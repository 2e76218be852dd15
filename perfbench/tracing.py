"""Spans and call counters around periodpoly's layer functions, installed from outside.

`Tracer.install()` replaces each function listed in SPANS with a wrapper that
records a span (name, start, end, parent, run id). The wrapper is also put in
place of every alias that another periodpoly module imported under its own
name (cli's `build_field`, charsums' `bucket_sweep`, ...), so the calls made
through those namespaces are traced too. `FieldElem.__mul__` and
`CycElem.__mul__` get bare counters instead of spans: they run hundreds of
thousands of times per pass. Spans stay in memory until `write()`.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
from collections import defaultdict

# span name -> functions it wraps, as (module, attribute path)
SPANS = {
    "cli.command": [("cli", "cmd_verify"), ("cli", "cmd_lemmas")],
    "fields.build": [("fields", "build_field")],
    "fields.modulus": [("fields", "find_irreducible_modulus")],
    "intmath.factorize": [("intmath", "factorize")],
    "fields.generator": [("fields", "find_generator")],
    "closed_form.factor": [("closed_form", "closed_form_factorization")],
    "partitions.partition": [("partitions", "partition_a"), ("partitions", "partition_c")],
    "closed_form.expand": [("closed_form", "Factorization.expand")],
    "periods.spectrum": [("periods", "trace_spectrum")],
    "periods.sweep": [("periods", "bucket_sweep")],
    "periods.reduce": [("periods", "reduced_periods")],
    "periods.expand": [("periods", "period_polynomial")],
    "charsums.lift": [("charsums", "lifted_period_polynomial")],
    "charsums.subfield_sums": [("charsums", "subfield_sums")],
    "charsums.gauss": [("charsums", "GaussTable.value"), ("charsums", "SubfieldSums.gauss")],
    "charsums.dh": [("charsums", "lift_gauss_sum")],
    "charsums.fourier": [("charsums", "periods_from_gauss")],
    "charsums.identity": [("charsums", "identity_report")],
    "charsums.dlog": [("charsums", "discrete_log_map")],
    "charsums.jacobi": [("charsums", "jacobi_sum"), ("charsums", "subfield_jacobi")],
}

# counter name -> the method whose calls it counts (CycElem.__rmul__ is the same function)
CALL_COUNTERS = {
    "fields.elem_mul_calls": ("fields", "FieldElem", ("__mul__",)),
    "cyclotomic.mul_calls": ("cyclotomic", "CycElem", ("__mul__", "__rmul__")),
}


def _packed_key(elem) -> int:
    p = elem.ctx.p
    return sum(c * p**i for i, c in enumerate(elem.coords))


# span name -> (counter name, work done by one call, from its bound arguments and result)
SPAN_COUNTS = {
    "periods.sweep": ("periods.sweep_elements", lambda call, result: call.arguments["length"]),
    # candidates are tried in ascending packed-key order, so the key found is the number tried
    "fields.generator": ("fields.generator_candidates", lambda call, result: _packed_key(result)),
}


class Tracer:
    """Records spans and counts in memory, for the CLI calls of one traced worker."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, str]] = []  # name, start, end, parent, run id
        self.counts: dict[str, int] = defaultdict(int)
        self.run_id = ""
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def span(self, name: str, fn, *args, **kwargs):
        stack = self._stack()
        index = len(self.spans)
        self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, self.run_id))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index] = (name, start, end) + self.spans[index][3:]

    def request(self, run_id: str, fn, *args, **kwargs):
        """Run one CLI call as the root span of request `run_id`."""
        self.run_id = run_id
        return self.span("cli.main", fn, *args, **kwargs)

    # -- installation -----------------------------------------------------------
    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _span_wrapper(self, name: str, orig):
        count = SPAN_COUNTS.get(name)
        signature = inspect.signature(orig) if count else None

        def wrapper(*args, **kwargs):
            result = self.span(name, orig, *args, **kwargs)
            if count:
                counter, amount = count
                self.counts[counter] += amount(signature.bind(*args, **kwargs), result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def _counter_wrapper(self, counter: str, orig):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return orig(*args, **kwargs)

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items()) if n == "periodpoly" or n.startswith("periodpoly.")]
        for name, targets in SPANS.items():
            for module_name, path in targets:
                owner = importlib.import_module(f"periodpoly.{module_name}")
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                orig = getattr(owner, attr)
                wrapper = self._span_wrapper(name, orig)
                if parents:  # a method: the class attribute is its only binding
                    self._replace(owner, attr, wrapper)
                    continue
                for module in modules:
                    for alias, value in list(vars(module).items()):
                        if value is orig:
                            self._replace(module, alias, wrapper)
        for counter, (module_name, cls_name, attrs) in CALL_COUNTERS.items():
            cls = getattr(importlib.import_module(f"periodpoly.{module_name}"), cls_name)
            wrapper = self._counter_wrapper(counter, getattr(cls, attrs[0]))
            for attr in attrs:
                self._replace(cls, attr, wrapper)
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- output -----------------------------------------------------------------
    def write(self, path: str, pass_index: int) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run_id) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"pass": pass_index, "id": i, "name": name, "start": start, "end": end,
                         "parent": parent, "run": run_id}
                    )
                    + "\n"
                )

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per span name: inclusive time (outermost spans only), self time, call count."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                children[span[3]].append(i)
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"inclusive_s": 0.0, "self_s": 0.0, "calls": 0})
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            # children run inside their parent and one after another, so their
            # durations add up to the covered part of the parent's interval
            row["self_s"] += (end - start) - sum(self.spans[c][2] - self.spans[c][1] for c in children[i])
            ancestor = parent
            while ancestor >= 0 and self.spans[ancestor][0] != name:
                ancestor = self.spans[ancestor][3]
            if ancestor < 0:
                row["inclusive_s"] += end - start
        return dict(out)
