"""The benchmark tracer patches periodpoly by name: every name it patches must still resolve."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(f"periodpoly.{module_name}")
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def test_span_targets_resolve(tracing):
    targets = [target for targets in tracing.SPANS.values() for target in targets]
    assert ("partitions", "partition_a") in targets and ("partitions", "partition_c") in targets
    for module_name, path in targets:
        assert callable(_resolve(module_name, path)), (module_name, path)


def test_call_counter_targets_resolve(tracing):
    for module_name, cls_name, attrs in tracing.CALL_COUNTERS.values():
        for attr in attrs:
            assert callable(_resolve(module_name, f"{cls_name}.{attr}")), (module_name, cls_name, attr)


def test_span_counts_bind(tracing):
    # the sweep counter reads the bound `length` argument of the function under the span
    assert set(tracing.SPAN_COUNTS) <= set(tracing.SPANS)
    sweep = _resolve(*tracing.SPANS["periods.sweep"][0])
    assert sweep.__name__ == "bucket_sweep"
    assert "length" in inspect.signature(sweep).parameters
