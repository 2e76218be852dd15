import math

import pytest

from periodpoly.cyclotomic import CycElem
from periodpoly.fields import FieldCtx, FieldError, _order_defect


def _enumerate_representations(n: int, d: int) -> list[tuple[int, int]]:
    """All (a, b) with a^2 + d*b^2 = n and a, b >= 0, by exhaustive search (an O(sqrt(n)) oracle)."""
    out = []
    for a in range(math.isqrt(n) + 1):
        rem = n - a * a
        if rem % d == 0 and math.isqrt(rem // d) ** 2 == rem // d:
            out.append((a, math.isqrt(rem // d)))
    return out


@pytest.fixture
def enumerate_representations():
    """The exhaustive-search oracle for the partition tests."""
    return _enumerate_representations


def _conjugate(a: CycElem) -> CycElem:
    """Complex conjugation, zeta_n -> zeta_n^{-1}."""
    v = [0] * a.n
    for j, c in enumerate(a.vec):
        v[(-j) % a.n] += c
    return CycElem(a.n, v)


@pytest.fixture
def conjugate():
    """Complex conjugation on Z[zeta_n], for the |G|^2 = q checks."""
    return _conjugate


def _field_trace(ctx: FieldCtx):
    """x -> Tr(x) in F_p for elements of ctx, through the trace row taken once."""
    row = [int(t) for t in ctx.trace_row()]
    return lambda x: sum(c * t for c, t in zip(x.coords, row)) % ctx.p


@pytest.fixture
def field_trace():
    """The absolute trace of a field as a function, for tests that take many traces."""
    return _field_trace


def _with_generator(ctx: FieldCtx, g) -> FieldCtx:
    """The same field with the validated generator g."""
    if g.ctx.params != ctx.params:
        raise FieldError("generator belongs to a different field")
    ell = _order_defect(g)  # raises FieldError on zero
    if ell is not None:
        raise FieldError(f"element has order dividing (q-1)/{ell}")
    return FieldCtx(ctx.params, g.coords, ctx.q_minus_1_factorization)


@pytest.fixture
def with_generator():
    """Rebuild a field around another generator, for the generator-independence checks."""
    return _with_generator
