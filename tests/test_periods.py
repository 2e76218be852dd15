import functools
import math
import random

import numpy as np
import pytest

from periodpoly.cyclotomic import CycElem
from periodpoly.fields import FieldCtx, FieldError, build_field, is_irreducible
from periodpoly.intmath import ord2
from periodpoly.periods import (
    _MIN_RANGE,
    _ROWS,
    BudgetExceeded,
    PeriodVector,
    SweepOverflow,
    _exact_dtype,
    _range_sweep,
    bucket_sweep,
    period_polynomial,
    reduced_periods,
    trace_spectrum,
)


def naive_spectrum(ctx, e, trace):
    """Pure-python reference sweep (independent of the numpy block path)."""
    counts = [[0] * ctx.p for _ in range(e)]
    x = ctx.one()
    for j in range(ctx.q - 1):
        counts[j % e][trace(x)] += 1
        x = x * ctx.gamma
    return counts


def test_sweep_matches_naive_reference(field_trace):
    for p, s, e in ((3, 2, 4), (3, 2, 8), (5, 2, 4), (5, 2, 12), (3, 3, 13), (7, 2, 6), (3, 4, 16)):
        ctx = build_field(p, s)
        spec = trace_spectrum(ctx, e)
        assert [list(r) for r in spec.counts] == naive_spectrum(ctx, e, field_trace(ctx))


def test_row_and_column_sums():
    cases = [(5, 2, 2), (3, 2, 4), (5, 2, 4), (3, 4, 16), (5, 4, 8), (13, 2, 8)]
    for p, s, e in cases:
        ctx = build_field(p, s)
        spec = trace_spectrum(ctx, e)
        f = (ctx.q - 1) // e
        assert all(sum(row) == f for row in spec.counts)
        col0 = sum(row[0] for row in spec.counts)
        assert col0 == p ** (s - 1) - 1
        for t in range(1, p):
            assert sum(row[t] for row in spec.counts) == p ** (s - 1)
    # pinned examples: row sums 12 for (5,2,e=2); 2 for (3,2,e=4); col0 = 4 for (5,2,e=4)
    assert sum(trace_spectrum(build_field(5, 2), 2).counts[0]) == 12
    assert sum(trace_spectrum(build_field(3, 2), 4).counts[1]) == 2
    assert sum(row[0] for row in trace_spectrum(build_field(5, 2), 4).counts) == 4


def test_quadratic_period_value():
    # eta*_0 for e = 2 is the quadratic Gauss sum: -5 over F_25
    ctx = build_field(5, 2)
    pv = reduced_periods(trace_spectrum(ctx, 2))
    assert pv.eta_star[0].as_integer() == -5


def test_period_sums_and_frobenius_stability():
    instances = 0
    for p, s in ((3, 2), (3, 4), (5, 2), (5, 4), (11, 2), (13, 2), (7, 2), (3, 5)):
        ctx = build_field(p, s)
        q = ctx.q
        divisors = [e for e in range(2, min(q, 65)) if (q - 1) % e == 0]
        for e in divisors:
            pv = reduced_periods(trace_spectrum(ctx, e))
            total = CycElem.zero(p)
            for v in pv.eta_star:
                total = total + v
            assert total.is_zero()
            for k in range(e):
                assert pv.eta_star[k * p % e] == pv.eta_star[k]
            instances += 1
    assert instances >= 50


def test_period_polynomial_properties():
    ctx = build_field(3, 4)
    pv = reduced_periods(trace_spectrum(ctx, 16))
    poly = period_polynomial(pv)
    assert poly.is_monic() and poly.degree == 16
    assert poly.coeffs[15] == 0


def test_inconsistent_periods_raise():
    # the invariants are raised errors, so they hold under python -O too
    one = CycElem.integer(1, 1)
    with pytest.raises(ArithmeticError):
        period_polynomial(PeriodVector(e=2, eta_star=(one, one)))  # periods do not sum to 0
    with pytest.raises(ArithmeticError):
        period_polynomial(PeriodVector(e=3, eta_star=(one, -one)))  # two periods for e = 3


def test_multiplicity_structure_of_two_power_periods():
    # for e = 2^m the periods collapse by 2-adic valuation of the index
    for p, s, m in ((3, 4, 4), (5, 4, 4), (3, 8, 5), (5, 2, 3)):
        ctx = build_field(p, s)
        e = 1 << m
        pv = reduced_periods(trace_spectrum(ctx, e))
        for k in range(1, e):
            if k == e // 2:
                continue
            t = ord2(k)
            assert pv.eta_star[k] == pv.eta_star[1 << t] or pv.eta_star[k] == pv.eta_star[(e - (1 << t)) % e]


def test_generator_independence(with_generator):
    checked = 0
    for p, s, e in ((3, 4, 16), (5, 4, 16), (3, 2, 8), (5, 2, 8), (13, 2, 4)):
        ctx = build_field(p, s)
        base = period_polynomial(reduced_periods(trace_spectrum(ctx, e)))
        rng = random.Random(p * 100 + s)
        tried = 0
        while tried < 10:
            c = rng.randrange(3, ctx.q - 1)
            if math.gcd(c, ctx.q - 1) != 1:
                continue
            alt = with_generator(ctx, ctx.gamma**c)
            assert period_polynomial(reduced_periods(trace_spectrum(alt, e))) == base
            tried += 1
            checked += 1
    assert checked >= 50


def test_modulus_independence():
    # a different irreducible modulus gives the same period polynomial
    default = build_field(3, 4)
    alts = []
    for key in range(3**4):
        coeffs = []
        k = key
        for _ in range(4):
            coeffs.append(k % 3)
            k //= 3
        cand = tuple(coeffs) + (1,)
        if cand != default.params.modulus and is_irreducible(cand, 3):
            alts.append(cand)
        if len(alts) == 3:
            break
    base = period_polynomial(reduced_periods(trace_spectrum(default, 16)))
    for f in alts:
        alt = build_field(3, 4, modulus=f)
        assert period_polynomial(reduced_periods(trace_spectrum(alt, 16))) == base


def test_worker_count_determinism(monkeypatch):
    import periodpoly.periods as periods

    ctx = build_field(5, 10)  # the sweep walks (q - 1)/(p - 1) = 2441406 elements, about 37 * _MIN_RANGE
    base = trace_spectrum(ctx, 8, threads=1)
    starts = []

    def recording_sweep(p, mult, trow, e, start, *rest):
        starts.append(start)
        return _range_sweep(p, mult, trow, e, start, *rest)

    monkeypatch.setattr(periods, "_range_sweep", recording_sweep)
    for threads in (2, 3, 7):
        starts.clear()
        assert trace_spectrum(ctx, 8, threads=threads).counts == base.counts
        assert len(starts) == threads  # one range per worker, each swept


def test_budget():
    ctx = build_field(3, 4)
    with pytest.raises(BudgetExceeded):
        trace_spectrum(ctx, 16, max_q=80)
    with pytest.raises(BudgetExceeded):
        trace_spectrum(build_field(10007, 1), 2, max_q=15000)  # q is in budget, the 2x10007 table is not
    with pytest.raises(ValueError):
        trace_spectrum(ctx, 7)  # 7 does not divide 80


def walk_traces(ctx, base, trace, length):
    """trace(base^j) for j < length, by direct FieldElem multiplication."""
    out, x = [], ctx.one()
    for _ in range(length):
        out.append(trace(x))
        x = x * base
    return out


def subfield_trace(ctx, k):
    """x -> Tr_{F_{p^k}/F_p}(x) for x in the degree-k subfield of ctx, by the Frobenius sum."""

    def trace(x):
        acc, img = x, x
        for _ in range(k - 1):
            img = img**ctx.p
            acc = acc + img
        return acc.prime_field_value()

    return trace


@functools.lru_cache(maxsize=None)
def sweep_case(name, field_trace):
    """(field, traces over one period of its gamma) for a bucket_sweep test case."""
    if name == "subfield":  # F_{3^4} as its own field; the traces come from gamma^82 inside F_{3^8}
        ctx = build_field(3, 8)
        field, period = ctx.subfield(4), 80
        traces = walk_traces(ctx, ctx.gamma ** ((ctx.q - 1) // period), subfield_trace(ctx, 4), period)
    else:
        field = build_field(*{"s=1": (10007, 1), "s=6": (5, 6)}[name])
        period = field.q - 1
        traces = walk_traces(field, field.gamma, field_trace(field), period)
    assert field.gamma**period == field.one()
    return field, np.array(traces, dtype=np.int64)


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("name", ("s=1", "s=6", "subfield"))
def test_bucket_sweep_matches_direct_walk(name, threads, field_trace):
    ctx, traces = sweep_case(name, field_trace)
    # lengths that are multiples of neither the block nor e; the two short ones take
    # the int64 product, the long one the float64 product over up to three ranges
    for length in (1, _ROWS + 1, 3 * _MIN_RANGE + 4099):
        j = np.arange(length)
        for e in (3, 8, 11):
            direct = np.bincount(j % e * ctx.p + traces[j % len(traces)], minlength=e * ctx.p)
            got = bucket_sweep(ctx, ctx.gamma, ctx.trace_row(), e, length, threads)
            assert got.shape == (e, ctx.p)
            assert np.array_equal(got.ravel(), direct), (name, threads, length, e)
    # trace_spectrum sweeps one period of the same walk, for each e that divides it
    j = np.arange(len(traces))
    for e in (3, 8, 11):
        if len(traces) % e == 0:
            direct = np.bincount(j % e * ctx.p + traces, minlength=e * ctx.p)
            got = trace_spectrum(ctx, e, threads=threads)
            assert np.array_equal(np.array(got.counts).ravel(), direct), (name, threads, e)


@pytest.mark.parametrize(
    "p, dtype",
    # the primes on either side of the float64 bound: s*(p-1)^2 < 2^53 <= s*(p'-1)^2
    ((94906249, np.float64), (94906297, np.int64)),
)
def test_bucket_sweep_exact_near_float64_bound(p, dtype, field_trace):
    assert _exact_dtype(1, p) is dtype
    assert _exact_dtype(4, 94906249) is np.int64
    ctx = build_field(p, 1)
    # an element of order 8 keeps the residues near p but the touched buckets few,
    # so the 2p-bucket result stays a handful of pages
    base = ctx.gamma ** ((p - 1) // 8)
    traces = walk_traces(ctx, base, field_trace(ctx), 8)
    length = 3 * _MIN_RANGE + 5  # long enough that the dtype is the exactness bound's choice
    direct = {}
    for j in range(length):
        direct[j % 2, traces[j % 8]] = direct.get((j % 2, traces[j % 8]), 0) + 1
    got = bucket_sweep(ctx, base, ctx.trace_row(), 2, length, threads=1)
    assert np.count_nonzero(got) == len(direct)
    assert {key: int(got[key]) for key in direct} == direct


def test_range_sweep_products_at_float64_bound():
    # trow = seed = p-2 makes the products (p-2) * ((p-2) b^i mod p); at i = 0 that is
    # (p-2)^2, odd and just above 2^53 for the larger prime, where float64 rounds it
    for p, float_exact in ((94906249, True), (94906297, False)):
        ctx = build_field(p, 1)
        b = (ctx.gamma ** ((p - 1) // 8)).coords[0]  # order 8 divides the block, so W stays p-2
        length = 3 * _ROWS + 5
        direct = {}
        for j in range(length):
            t = (p - 2) ** 2 * pow(b, j, p) % p
            direct[t] = direct.get(t, 0) + 1
        res = np.array([p - 2], dtype=np.int64)
        for dtype in (np.float64, np.int64):
            got = _range_sweep(p, np.array([[b]], dtype=np.int64), res, 1, 0, length, res, dtype).ravel()
            exact = np.count_nonzero(got) == len(direct) and {t: int(got[t]) for t in direct} == direct
            assert exact == (dtype is np.int64 or float_exact), (p, dtype)


@pytest.mark.parametrize("k", (None, 2))
def test_corrupted_trace_row_raises(monkeypatch, k):
    # the tripwire compares the row with the Frobenius sum, on the whole field and on a
    # subfield; unchecked, this row gives wrong counts on both. It is the true row with
    # its top entry moved by one, as rolling leaves the F_9 row (2, 2) unchanged
    field = build_field(3, 4) if k is None else build_field(3, 4).subfield(k)
    row = FieldCtx.trace_row
    monkeypatch.setattr(FieldCtx, "trace_row", lambda ctx: row(ctx) + np.eye(1, ctx.s, ctx.s - 1, dtype=np.int64)[0])
    with pytest.raises(FieldError):
        trace_spectrum(field, 4)


def fold_case(name):
    """The field named "p^s", or "subfield" for F_{3^4} as ctx.subfield(4) of F_{3^8}."""
    if name == "subfield":
        return build_field(3, 8).subfield(4)
    p, s = map(int, name.split("^"))
    return build_field(p, s)


@pytest.mark.parametrize(
    "name, e",
    (
        ("7^2", 16),  # L = 8: a -> aL mod e has period 2 < p - 1 = 6, and e does not divide p - 1
        ("13^2", 8),  # L = 14: period 4 < 12
        ("5^2", 24),  # e = q - 1: period p - 1
        ("3^4", 16),  # p = 3, e does not divide p - 1
        ("3^5", 11),  # e odd and prime to p - 1: period 1
        ("13^1", 12),  # s = 1: L = 1, so the fold is all of the work
        ("13^1", 4),
        ("10007^1", 2),
        ("subfield", 16),  # F_{3^4} as its own field
    ),
)
def test_trace_spectrum_fold_matches_full_sweep(name, e):
    # the reference walks all q - 1 powers of gamma; trace_spectrum walks (q - 1)/(p - 1) and folds
    ctx = fold_case(name)
    full = bucket_sweep(ctx, ctx.gamma, ctx.trace_row(), e, ctx.q - 1, threads=1)
    for threads in (1, 2):
        assert np.array_equal(np.array(trace_spectrum(ctx, e, threads=threads).counts), full), (name, e)


def test_fold_rejects_a_gamma_whose_norm_is_not_primitive():
    # gamma^2 walks only the squares: its norm gamma^{2L} is a square in F_p, not a primitive root
    ctx = build_field(5, 2)
    square = FieldCtx(ctx.params, (ctx.gamma**2).coords, ctx.q_minus_1_factorization)
    with pytest.raises(FieldError, match="not a primitive root"):
        trace_spectrum(square, 4)
    zero = FieldCtx(ctx.params, (0, 0), ctx.q_minus_1_factorization)  # its norm is 0
    with pytest.raises(FieldError, match="not a primitive root"):
        trace_spectrum(zero, 4)


def test_overflow_guard_raises_before_sweeping():
    ctx = build_field(3037000507, 1)  # (p-1)^2 >= 2^63: int64 products would wrap
    with pytest.raises(OverflowError) as info:
        trace_spectrum(ctx, 2, max_q=10**10)
    assert isinstance(info.value, SweepOverflow)
