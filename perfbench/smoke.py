"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For one instance of each workload, one untraced and one traced pass must
produce every end-to-end and per-layer metric that BENCHMARK.json names,
with failed_frac = 0. Then the pinned outputs are corrupted (a wrong verify
digest, a wrong lemma check count) and those same calls must be reported as
failures, which shows that the correctness gate is live. Exits 1 on any
violation.
"""

from __future__ import annotations

import json
import sys

import run

SMOKE_INSTANCES = {"brute": [29, 4, 4], "lift": [13, 8, 4], "identities": [3, 2, 3]}


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    pins = run.load_json("pins.json")["workloads"]
    problems = []
    for name, instance in SMOKE_INSTANCES.items():
        key = run.label(instance)
        res = run.measure(name, seed=0, seconds=0, trace=True, instances=[instance], pins={key: pins[name][key]})
        for section in ("end_to_end", "per_layer"):
            missing = {m["name"] for m in bench[section]} - set(res[section])
            if missing:
                problems.append(f"{name}: {section} lacks {sorted(missing)}")
        if res["failed"] or not res["correct"] or res["end_to_end"]["verified_frac"] != 1:
            problems.append(f"{name}: failed_frac {res['failed']}/{res['attempted']} on pinned output: {res['failures']}")

        bad = dict(pins[name][key])
        if "digest" in bad:
            bad["digest"] = "0" * len(bad["digest"])
        else:
            bad["checks"] += 1
        res = run.measure(name, seed=0, seconds=0, trace=False, instances=[instance], pins={key: bad})
        if res["correct"] or res["failed"] != res["attempted"] or res["end_to_end"]["verified_frac"] != 0:
            problems.append(f"{name}: corrupted pin not reported as a failure ({res['failed']}/{res['attempted']})")
        print(f"{name} {key}: metrics present, gate {'live' if res['failed'] else 'DEAD'}: {res['failures'][:1]}")

    for line in problems:
        print(f"SMOKE FAILURE {line}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
