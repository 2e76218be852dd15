"""Repeated benchmark runs with their spread: the baseline record of a commit.

    python3 perfbench/baseline.py --first-seed 1 [--out FILE]

Makes ten runs of each workload (run.measure, as the benchmark command does),
each time with the next seed, and prints for every end-to-end metric, with
its unit, the median, the quartiles and their distance as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound. The
same is printed for the wall times before scaling to one host speed, and
failed_frac beside them. Then one traced run per workload gives
the per-layer metrics and each layer's share of a traced pass, from self
times. --out writes everything as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

RUNS = 10  # runs per workload in one set, each with its own seed


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    record = {
        "run_seconds": bench["run_seconds"],
        "runs": RUNS,
        "first_seed": args.first_seed,
        "host": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "machine": platform.machine(),
            "numpy": subprocess.run(
                [sys.executable, "-c", "import numpy; print(numpy.__version__)"], capture_output=True, text=True
            ).stdout.strip(),
        },
        "workloads": {},
    }
    for name in (w["name"] for w in bench["workloads"]):
        results = [
            run.measure(name, seed, bench["run_seconds"], False)
            for seed in range(args.first_seed, args.first_seed + RUNS)
        ]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        e2e = {m: spread([r["end_to_end"][m] for r in results]) for m in bounds}
        wall = {m: spread([r["wall"][m] for r in results]) for m in results[0]["wall"]}
        row = {"failed_frac": failed / attempted, "attempted": attempted, "end_to_end": e2e, "wall_not_scaled": wall}
        print(f"== {name}: {RUNS} runs, seeds {args.first_seed}..{args.first_seed + RUNS - 1}")
        print(f"  failed_frac = {failed / attempted:.4g} ratio ({failed}/{attempted})")
        for m, s in e2e.items():
            bound = bounds[m]["bound"]
            flag = "ok" if s["iqr_share"] < bound / 3 else ("within bound" if s["iqr_share"] <= bound else "OVER BOUND")
            print(
                f"  {m} = {s['median']:.6g} {bounds[m]['unit']} (q1 {s['q1']:.6g}, q3 {s['q3']:.6g}, "
                f"spread {100 * s['iqr_share']:.2f}% vs bound {100 * bound:.0f}%: {flag})"
            )
        for m, s in wall.items():
            print(f"  wall time, not scaled: {m} = {s['median']:.6g} s (spread {100 * s['iqr_share']:.2f}%)")
        traced = run.measure(name, args.first_seed, bench["run_seconds"], True)
        row["per_layer"] = traced["per_layer"]
        shares = {k: v["share"] for k, v in traced["layer_shares"].items()}
        row["self_time_shares"] = dict(sorted(shares.items(), key=lambda kv: -kv[1]))
        top = ", ".join(f"{k} {100 * v:.1f}%" for k, v in list(row["self_time_shares"].items())[:4])
        print(f"  self-time shares of a traced pass: {top}")
        record["workloads"][name] = row
        sys.stdout.flush()

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
