"""Pin the outputs the benchmark checks: writes perfbench/pins.json.

    python3 perfbench/pin.py

Runs every instance of every workload once, each in its own worker with the
same CLI arguments as run.py, and records for each `verify` instance its status
and digest, and for each `lemmas` field its check count and the set of checks
that pass. Refuses to pin an output that is not verified or not all-pass. Run
it in a git checkout of the commit whose outputs are the reference; its hash
(git rev-parse HEAD) is recorded.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def main() -> int:
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()

    spec = run.load_json("spec.json")
    worker = run.Runner()
    run.OUT.mkdir(exist_ok=True)
    cache = run.OUT / "pin-cache.jsonl"
    pins: dict[str, dict] = {}
    for name, workload in spec["workloads"].items():
        pins[name] = {}
        for instance in workload["instances"]:
            call = run.run_instance(worker, workload, instance, spec["threads"], cache)["call"]
            if call["error"] or call["rc"] != 0:
                raise SystemExit(f"{name} {call['label']}: exit {call['rc']} {call['error'] or call['stderr']}")
            got = run.observed(workload["command"], call["stdout"])
            ok = got["status"] == "verified" if workload["command"] == "verify" else len(got["passed"]) == got["checks"]
            if not ok:
                raise SystemExit(f"{name} {call['label']}: refusing to pin a failing output {got}")
            pins[name][call["label"]] = got
        print(f"{name}: pinned {len(workload['instances'])} instances")

    with open(run.HERE / "pins.json", "w", encoding="utf-8") as fh:
        json.dump({"commit": commit, "workloads": pins}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
