"""One CLI call of a benchmark workload in a fresh interpreter.

Reads a job as JSON on stdin:

    {"label": str, "argv": [cli args...], "trace": bool, "spans": path or null, "pass": int}

times `import periodpoly.cli` through `make_parser()`, runs the argv through
`periodpoly.cli.main`, and prints one JSON line with the set-up time, the peak
resident set and the call's exit code, output and time in `cli.main`. Right
after set-up and right after the call it times a fixed host-speed probe (see
`host_probe_s`), which the caller uses to scale both times to one host speed. With
"trace" set it records spans (tracing.py), appends them to the "spans" file
tagged with "pass", and adds per-layer times and call counts to its result.
With no argv it only measures set-up. Checking the output against its pinned
value is left to the caller.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time

_PROBE_P = 13
_PROBE_MODULUS = [2, 1, 0, 1, 0, 0, 1, 1, 1]  # monic of degree 8 over F_13


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # ru_maxrss is in KiB on Linux


def _probe_python() -> int:
    """Products of list polynomials mod a fixed modulus: the shape of FieldElem arithmetic."""
    p, mod = _PROBE_P, _PROBE_MODULUS
    x, y = [1, 2, 3, 4, 5, 6, 7, 8], [3, 1, 4, 1, 5, 9, 2, 6]
    for _ in range(700):
        out = [0] * 15
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                out[i + j] = (out[i + j] + a * b) % p
        for i in range(14, 7, -1):
            c = out[i]
            for j in range(8):
                out[i - 8 + j] = (out[i - 8 + j] - c * mod[j]) % p
        x = out[:8]
    return sum(x)


def _probe_numpy() -> int:
    """Matrix steps and bucket counts over int64 blocks: the shape of the trace sweep."""
    import numpy as np  # here, not at the top: set-up is timed, and periodpoly imports numpy in it

    matrix = (np.arange(64, dtype=np.int64).reshape(8, 8) * 7 + 3) % _PROBE_P
    w = np.arange(8 * 4096, dtype=np.int64).reshape(8, 4096) % _PROBE_P
    counts = np.zeros(16 * _PROBE_P, dtype=np.int64)
    for step in range(20):
        w = matrix @ w % _PROBE_P
        counts += np.bincount((step % 16) * _PROBE_P + w[0], minlength=16 * _PROBE_P)
    return int(counts.sum())


def host_probe_s() -> float:
    """Wall time of a fixed piece of work that no periodpoly code runs in.

    The host's speed drifts by up to 1.8x over seconds to minutes. Timing the
    probe next to a measured interval gives the host's speed during it, so the
    caller can scale that interval to a fixed speed. The probe mixes
    pure-Python and numpy work in about equal parts, as the workloads do.
    """
    start = time.perf_counter()
    _probe_python()
    _probe_numpy()
    return time.perf_counter() - start


def main() -> int:
    job = json.load(sys.stdin)
    start = time.perf_counter()
    from periodpoly import cli

    cli.make_parser()
    setup_s = time.perf_counter() - start

    tracer = None
    if job.get("trace"):
        from tracing import Tracer

        tracer = Tracer().install()

    result = {"setup_s": setup_s, "probe_before_s": host_probe_s()}
    if job.get("argv") is not None:
        out, err = io.StringIO(), io.StringIO()
        error = None
        call_start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tracer.request(job["label"], cli.main, job["argv"]) if tracer else cli.main(job["argv"])
            except Exception as exc:  # an escaped exception fails this instance, not the pass
                rc, error = None, f"{type(exc).__name__}: {exc}"
        result["call"] = {
            "label": job["label"],
            "rc": rc,
            "stdout": out.getvalue(),
            "stderr": err.getvalue(),
            "error": error,
            "seconds": time.perf_counter() - call_start,
        }
        result["probe_after_s"] = host_probe_s()
    result["peak_rss_mb"] = _peak_rss_mb()
    if tracer:
        tracer.uninstall()
        if job.get("spans"):
            tracer.write(job["spans"], job.get("pass", 0))
        result["layers"] = tracer.layer_times()
        result["counts"] = dict(tracer.counts)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
