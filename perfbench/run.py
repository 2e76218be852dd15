"""periodpoly benchmark: workloads driven through `periodpoly.cli.main`.

    python3 perfbench/run.py --workload brute|lift|identities --seed N --seconds S --trace 0|1

Run it from anywhere in a periodpoly checkout; it needs no build, only the
sources under src/. A pass runs each of the workload's instances once, each in
a fresh interpreter (worker.py), because every CLI call pays import and cold
caches; the seed draws the order of every pass. Passes repeat while another
one fits in --seconds. Every output is checked against the values pinned in
pins.json. verify_s and setup_s are scaled to one host speed by a probe timed
next to each call (worker.host_probe_s), and are medians over the run;
peak_rss_mb takes each instance's least over the run (see README.md).

The last line of standard output is one JSON object: the end-to-end metrics
with --trace 0, and with --trace 1 the per-layer metrics, taken from traced
passes that alternate with untraced ones (tracing.py). spec.json lists the
workloads, their instances and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0  # a run must end within 180 s
# The host-speed probe's time on a 2-vCPU Xeon (Sapphire Rapids) KVM guest at its
# fast state. verify_s and setup_s are seconds on a host where the probe takes this.
PROBE_REFERENCE_S = 0.016


def load_json(name: str) -> dict:
    with open(HERE / name, encoding="utf-8") as fh:
        return json.load(fh)


def label(instance) -> str:
    return ",".join(str(v) for v in instance)


def instance_argv(workload: dict, instance, threads: int, cache: Path) -> list[str]:
    p, s, m = instance
    argv = [workload["command"], "--p", str(p), "--s", str(s), "--m", str(m)]
    argv += ["--threads", str(threads), "--format", "json"]
    if workload["command"] == "verify":
        argv += ["--oracle", workload["oracle"], "--cache", str(cache)]
    return argv


def observed(command: str, stdout: str) -> dict:
    """The part of a call's JSON output that pins.json pins."""
    lines = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    if command == "verify":
        return {"status": lines[-1]["status"], "digest": lines[-1]["digest"]}
    passed = [
        json.dumps({k: v for k, v in check.items() if k not in ("lhs", "rhs", "pass")}, sort_keys=True)
        for check in lines
        if check["pass"] is True
    ]
    return {"checks": len(lines), "passed": sorted(passed)}


def failure(command: str, pin: dict, call: dict) -> str | None:
    """Why a call does not reproduce its pinned output, or None if it does."""
    if call["error"]:
        return call["error"]
    if call["rc"] != 0:
        return f"exit code {call['rc']}: {call['stderr'].strip()[-200:]}"
    try:
        got = observed(command, call["stdout"])
    except (ValueError, KeyError, IndexError) as exc:
        return f"unreadable output ({exc})"
    if got != pin:
        diff = {k: (got.get(k), pin.get(k)) for k in pin if got.get(k) != pin.get(k)}
        return "differs from pin: " + ", ".join(f"{k} {a!r} != {b!r}"[:160] for k, (a, b) in diff.items())
    return None


class Runner:
    """Starts worker interpreters with the checkout's sources on the path."""

    def __init__(self, deadline: float | None = None):
        self.deadline = deadline  # time.perf_counter() by which every worker must end
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))

    def __call__(self, job: dict) -> dict:
        timeout = None if self.deadline is None else max(self.deadline - time.perf_counter(), 1.0)
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=self.env,
            cwd=ROOT,
            timeout=timeout,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.splitlines()[-1])


def run_instance(run: Runner, workload: dict, instance, threads: int, cache: Path, **job) -> dict:
    """One CLI call of `instance` in a fresh worker; `job` adds trace, spans and pass."""
    try:
        return run({"label": label(instance), "argv": instance_argv(workload, instance, threads, cache), **job})
    finally:
        cache.unlink(missing_ok=True)


def merge_pass(results: list[dict]) -> dict:
    """One pass from the results of its per-instance workers.

    `pass_s` and `setup_s` hold wall times. `scaled_pass_s` and `scaled_setup_s`
    scale each call by PROBE_REFERENCE_S over the probe timed next to it (for a
    call the mean of the probes just before and just after it, for set-up the
    probe just after it), which takes out the host's drift in speed.
    """
    out = {
        "pass_s": sum(r["call"]["seconds"] for r in results),
        "scaled_pass_s": sum(
            r["call"]["seconds"] * 2 * PROBE_REFERENCE_S / (r["probe_before_s"] + r["probe_after_s"]) for r in results
        ),
        "setup_s": [r["setup_s"] for r in results],
        "scaled_setup_s": [r["setup_s"] * PROBE_REFERENCE_S / r["probe_before_s"] for r in results],
        "rss_mb": {r["call"]["label"]: r["peak_rss_mb"] for r in results},
        "calls": [r["call"] for r in results],
    }
    if "layers" in results[0]:
        layers: dict[str, dict[str, float]] = {}
        counts: dict[str, int] = {}
        for r in results:
            for name, row in r["layers"].items():
                acc = layers.setdefault(name, dict.fromkeys(row, 0))
                for k, v in row.items():
                    acc[k] += v
            for name, v in r["counts"].items():
                counts[name] = counts.get(name, 0) + v
        out["layers"], out["counts"] = layers, counts
    return out


def layer_metrics(result: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (names as in spec.json)."""
    layers, counts = result["layers"], result["counts"]

    def inclusive(span: str) -> float:
        return layers.get(span, {}).get("inclusive_s", 0.0)

    sweep_s = inclusive("periods.sweep")
    out = {
        name + "_s": inclusive(name)
        for name in (
            "fields.build", "fields.modulus", "intmath.factorize", "fields.generator",
            "periods.sweep", "periods.expand",
            "charsums.lift", "charsums.subfield_sums", "charsums.gauss", "charsums.dh", "charsums.fourier",
            "charsums.identity", "charsums.dlog", "charsums.jacobi",
            "closed_form.factor", "partitions.partition", "closed_form.expand",
        )
    }
    for name in ("fields.generator_candidates", "periods.sweep_elements", "cyclotomic.mul_calls", "fields.elem_mul_calls"):
        out[name] = counts.get(name, 0)
    out["periods.sweep_elements_per_s"] = counts.get("periods.sweep_elements", 0) / sweep_s if sweep_s else 0.0
    out["cli.self_s"] = layers.get("cli.command", {}).get("self_s", 0.0)
    return out


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    instances: list | None = None,
    pins: dict | None = None,
    deadline: float | None = None,
) -> dict:
    """Run workload `name`; `instances` and `pins` default to spec.json and pins.json."""
    spec = load_json("spec.json")
    workload = spec["workloads"][name]
    instances = instances or workload["instances"]
    pins = pins or load_json("pins.json")["workloads"][name]
    threads = min(spec["threads"], os.cpu_count() or 1)
    run = Runner(deadline)
    OUT.mkdir(exist_ok=True)
    cache = OUT / f"verify-cache-{os.getpid()}.jsonl"
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    spans.unlink(missing_ok=True)

    run({})  # byte-compiles the sources on the first run in a checkout; not measured
    rng = random.Random(seed)

    def one_pass(index: int, traced: bool) -> dict:
        """Every instance once, each in its own interpreter, in an order drawn from the seed."""
        job = {"trace": traced, "spans": str(spans) if traced else None, "pass": index}
        order = rng.sample(instances, len(instances))
        results = [run_instance(run, workload, instance, threads, cache, **job) for instance in order]
        return merge_pass(results)

    passes: list[tuple[bool, dict]] = []
    start = time.perf_counter()
    longest = 0.0
    # start no pass that would end after `seconds`, going by the longest one so far
    while len(passes) < (2 if trace else 1) or time.perf_counter() - start + longest <= seconds:
        traced = trace and len(passes) % 2 == 1
        began = time.perf_counter()
        passes.append((traced, one_pass(len(passes), traced)))
        longest = max(longest, time.perf_counter() - began)

    failures = []
    for _, result in passes:
        for call in result["calls"]:
            why = failure(workload["command"], pins[call["label"]], call)
            if why:
                failures.append(f"{call['label']}: {why}")
    attempted = sum(len(result["calls"]) for _, result in passes)
    plain = [result for traced, result in passes if not traced]
    verify_s = statistics.median(r["scaled_pass_s"] for r in plain)
    out = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "passes": len(passes),
        "wall": {
            "verify_s": statistics.median(r["pass_s"] for r in plain),
            "setup_s": statistics.median(t for _, r in passes for t in r["setup_s"]),
        },
        "end_to_end": {
            "verify_s": verify_s,
            "setup_s": statistics.median(t for _, r in passes for t in r["scaled_setup_s"]),
            # an instance's peak varies from call to call (threads, allocator); its least is reproducible
            "peak_rss_mb": max(min(r["rss_mb"][label(i)] for r in plain) for i in instances),
            "verified_frac": (attempted - len(failures)) / attempted,
        },
    }
    if trace:
        traced = [result for t, result in passes if t]
        per_pass = [layer_metrics(r) for r in traced]
        per_layer = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        per_layer["trace.overhead_s"] = statistics.median(r["scaled_pass_s"] for r in traced) - verify_s
        out["per_layer"] = per_layer
        out["layer_shares"] = layer_shares(traced)
    return out


def layer_shares(traced: list[dict]) -> dict[str, dict[str, float]]:
    """Median self time of every span name, and its share of the median traced pass."""
    pass_s = statistics.median(r["pass_s"] for r in traced)
    names = sorted({n for r in traced for n in r["layers"]})
    shares = {}
    for n in names:
        self_s = statistics.median(r["layers"].get(n, {}).get("self_s", 0.0) for r in traced)
        shares[n] = {"self_s": self_s, "share": self_s / pass_s}
    return shares


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "periodpoly" / "cli.py").is_file():
        print(f"error: no periodpoly sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = load_json("spec.json")
    if args.workload not in spec["workloads"]:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(spec['workloads'])}", file=sys.stderr)
        return 2

    res = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline=started + DEADLINE_S)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    section = "per_layer" if args.trace else "end_to_end"
    print(
        f"workload {args.workload} seed {args.seed}: {res['passes']} passes, "
        f"failed_frac {res['failed'] / res['attempted']:.4g} ({res['failed']}/{res['attempted']})"
    )
    for line in res["failures"]:
        print(f"FAILED {line}")
    for name, value in res["wall"].items():
        print(f"wall time, not scaled: {name} = {value:.6g} s")
    for name, value in {**res["end_to_end"], **res.get("per_layer", {})}.items():
        print(f"{name} = {value:.6g} {units[name]}")
    for name, row in res.get("layer_shares", {}).items():
        print(f"self {name} = {row['self_s']:.4g} s ({100 * row['share']:.1f}% of a traced pass)")
    metrics = {name: {"value": value, "unit": units[name]} for name, value in res[section].items()}
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
