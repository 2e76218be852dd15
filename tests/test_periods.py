import functools
import math
import os
import random
import sys
import threading

import numpy as np
import pytest

from periodpoly.charsums import lifted_period_polynomial
from periodpoly.cyclotomic import CycElem, canonical_factors, expand_factor_list
from periodpoly.fields import FieldCtx, FieldElem, FieldError, build_field, is_irreducible
from periodpoly.intmath import ord2
from periodpoly.periods import (
    _CHUNK,
    _MIN_BLAS,
    _MIN_WORKER_MOD_P,
    _MIN_WORKER_RAW,
    _ROWS,
    BudgetExceeded,
    PeriodVector,
    SweepOverflow,
    _block_counts,
    _exact_dtype,
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
    assert pv.eta_star[0].canonical() == (-5,)


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
            assert total == CycElem.zero(p)
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
    one = CycElem.integer(3, 1)
    with pytest.raises(ArithmeticError):
        period_polynomial(PeriodVector((one, one)))  # periods do not sum to 0


def brute_or_lift_periods(oracle, p, s, x):
    """The periods of the brute-force oracle (e = x) or of the lift oracle (m = x)."""
    ctx = build_field(p, s)
    if oracle == "lift":
        return lifted_period_polynomial(ctx, x)[1]
    return reduced_periods(trace_spectrum(ctx, x))


@pytest.mark.parametrize(
    "oracle, p, s, x",
    (("brute", 3, 4, 16), ("brute", 29, 4, 16), ("brute", 13, 2, 8), ("lift", 13, 8, 4)),
)
def test_expansion_matches_sequential_reference(oracle, p, s, x, sequential_poly_from_roots):
    pv = brute_or_lift_periods(oracle, p, s, x)
    want = sequential_poly_from_roots(list(pv.eta_star))
    assert [CycElem.integer(1, c) for c in period_polynomial(pv).coeffs] == want


def test_expansion_ignores_constant_offsets():
    # k * (1, ..., 1) is zero in Z[zeta_p], whatever its size or sign
    pv = brute_or_lift_periods("brute", 29, 4, 16)
    base = period_polynomial(pv)
    for k in (7, 3**80, -(10**30)):
        shifted = tuple(CycElem(v.n, [c + k for c in v.vec]) for v in pv.eta_star)
        assert period_polynomial(PeriodVector(shifted)) == base


def test_periods_off_a_galois_orbit_raise():
    # one entry up by one in one period and down by one in another: the periods still sum
    # to zero, but sigma_g no longer permutes them, so the coefficients need not be integers
    pv = brute_or_lift_periods("brute", 29, 4, 4)
    vecs = [list(v.vec) for v in pv.eta_star]
    vecs[0][1] += 1
    vecs[1][1] -= 1
    with pytest.raises(ArithmeticError, match="does not permute"):
        period_polynomial(PeriodVector(tuple(CycElem(29, v) for v in vecs)))


BENCHMARK_INSTANCES = (
    ("brute", 3, 14, 3), ("brute", 5, 10, 3), ("brute", 13, 6, 3), ("brute", 3, 12, 4),
    ("brute", 5, 8, 4), ("brute", 29, 4, 4), ("brute", 3, 8, 5),
    ("lift", 5, 16, 5), ("lift", 13, 8, 4), ("lift", 3, 16, 5), ("lift", 11, 16, 4),
    ("lift", 13, 32, 4), ("lift", 3, 64, 5),
)


def _periods_of(oracle, p, s, m):
    return brute_or_lift_periods(oracle, p, s, m if oracle == "lift" else 1 << m)


@pytest.mark.parametrize(
    "oracle, p, s, m",
    BENCHMARK_INSTANCES + (("brute", 4003, 2, 3), ("brute", 5, 5, 2)),  # (5, 5, 2): SMALL_M2, one orbit of e values
)
def test_orbit_expansion_matches_all_roots_reference(oracle, p, s, m, all_roots_period_polynomial):
    pv = _periods_of(oracle, p, s, m)
    assert period_polynomial(pv) == all_roots_period_polynomial(pv)
    # the factors: distinct, monic and in canonical order, each to its multiplicity
    assert expand_factor_list(pv.factors) == all_roots_period_polynomial(pv)
    assert pv.factors == canonical_factors(pv.factors) and all(f.is_monic() for f, _ in pv.factors)


def _orbit_sizes(pv):
    """The sizes of the sigma_2-orbits of the distinct periods (2 is a primitive root of 13 and 29)."""
    p = pv.eta_star[0].n

    def sigma(v):
        out = [0] * p
        for t, c in enumerate(v.vec):
            out[2 * t % p] += c
        return CycElem(p, out)

    sizes, distinct = [], []
    for v in pv.eta_star:
        if any(v == u for u in distinct):
            continue
        distinct.append(v)
        u, size = sigma(v), 1
        while u != v:
            u, size = sigma(u), size + 1
        sizes.append(size)
    return sizes


@pytest.mark.parametrize("p, s, m", ((13, 6, 3), (29, 4, 4)))
def test_orbit_expansion_sizes_its_modulus_by_the_largest_orbit(p, s, m, monkeypatch, all_roots_period_polynomial):
    import periodpoly.periods as periods

    pv = _periods_of("brute", p, s, m)
    sizes = _orbit_sizes(pv)
    d = max(sizes)
    assert len(set(sizes)) > 1 and d < pv.e  # orbits of mixed sizes, the largest below e
    bounds = []
    ring_map = periods.root_of_unity_mod
    monkeypatch.setattr(periods, "root_of_unity_mod", lambda n, bound: bounds.append(bound) or ring_map(n, bound))
    assert period_polynomial(pv) == all_roots_period_polynomial(pv)
    vecs = [[c - v.vec[0] for c in v.vec] for v in pv.eta_star]
    height = max(math.isqrt(p * sum(c * c for c in w) - sum(w) ** 2) + 1 for w in vecs)
    assert bounds == [2 * (1 + height) ** d]


ZETA3, ZETA5 = CycElem.root(3, 1), CycElem.root(5, 1)


@pytest.mark.parametrize(
    "eta_star, match",
    (
        # sigma_2 sends zeta_5 to zeta_5^2, which is not a period, though the periods sum to zero
        ((ZETA5, -ZETA5), "does not permute"),
        # {v, sigma v, sigma v} with v = zeta_3, and their negatives: each orbit closes inside
        # the periods and they sum to zero, but sigma sends one copy of v to two of sigma v
        ((ZETA3, ZETA3**2, ZETA3**2, -ZETA3, -(ZETA3**2), -(ZETA3**2)), "does not permute"),
        # the orbit {zeta_5^k} and two copies of 1: sigma-stable, with sum -1 + 2 = 1
        (tuple(ZETA5**k for k in range(1, 5)) + (CycElem.integer(5, 1),) * 2, "sum to zero"),
    ),
    ids=("orbit-leaves-the-periods", "unequal-multiplicities", "nonzero-sum"),
)
def test_orbit_tripwires_raise(eta_star, match):
    with pytest.raises(ArithmeticError, match=match):
        period_polynomial(PeriodVector(eta_star))


@pytest.mark.parametrize(
    "eta_star",
    (
        (CycElem.integer(3, 1), CycElem.integer(5, -1)),  # mixed conductors
        (CycElem.integer(1, 1), CycElem.integer(1, -1)),
        (CycElem.integer(2, 1), CycElem.integer(2, -1)),
        (CycElem.root(8, 1), CycElem.root(8, 5)),
        (CycElem.root(24, 1), CycElem.root(24, 13)),
    ),
    ids=("3-and-5", "1", "2", "8", "24"),
)
def test_expansion_needs_one_odd_prime_conductor(eta_star):
    with pytest.raises(ValueError, match="conductor"):
        period_polynomial(PeriodVector(eta_star))


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
        if cand != default.modulus and is_irreducible(cand, 3):
            alts.append(cand)
        if len(alts) == 3:
            break
    base = period_polynomial(reduced_periods(trace_spectrum(default, 16)))
    for f in alts:
        alt = build_field(3, 4, modulus=f)
        assert period_polynomial(reduced_periods(trace_spectrum(alt, 16))) == base


def record_block_counts(monkeypatch):
    """Route periods._block_counts through a spy; returns the list of (R^T, W) it was called with."""
    import periodpoly.periods as periods

    calls = []

    def recording_counts(rt, w, *rest):
        calls.append((rt, w))
        return _block_counts(rt, w, *rest)

    monkeypatch.setattr(periods, "_block_counts", recording_counts)
    return calls


def test_worker_count_determinism(monkeypatch):
    import periodpoly.periods as periods

    monkeypatch.setattr(periods, "_line_degree", lambda p, s, e: 1)  # the F_p-line walk, d = 1
    ctx = build_field(5, 10)  # the sweep walks (q - 1)/(p - 1) = 2441406 elements on the raw tally
    base = trace_spectrum(ctx, 8, threads=1)
    calls = record_block_counts(monkeypatch)
    span = (ctx.q - 1) // (ctx.p - 1)
    for threads in (2, 3, 7):  # fewer than 2 * _MIN_WORKER_RAW elements: one worker
        calls.clear()
        assert trace_spectrum(ctx, 8, threads=threads).counts == base.counts
        assert [rt.shape[1] for rt, _ in calls] == [_ROWS, span % _ROWS]
    # with room for 9 workers the same sweep splits W over threads workers
    monkeypatch.setattr(periods, "_MIN_WORKER_RAW", _MIN_WORKER_MOD_P)
    # 7 workers on fewer cores, switching threads every microsecond: a lost update would
    # show in the counts
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (2, 3, 7):
            calls.clear()
            assert trace_spectrum(ctx, 8, threads=threads).counts == base.counts
            whole = calls[0][1].base  # every call gets a slice of the one W
            assert all(w.base is whole for _, w in calls)
            rows = max(rt.shape[1] for rt, _ in calls)
            # (first row of the slice in W, its rows, the rows of R it is multiplied by)
            spans = sorted(
                ((w.ctypes.data - whole.ctypes.data) // w.strides[0], len(w), rt.shape[1]) for rt, w in calls
            )
            assert [lo for lo, _, _ in spans] == [sum(n for _, n, _ in spans[:i]) for i in range(len(spans))]
            assert sum(n for _, n, _ in spans) == len(whole)  # contiguous slices that cover W
            # one slice of full blocks per worker, then the one tail block
            assert [n_r for _, _, n_r in spans] == [rows] * threads + [span % rows]
            assert spans[-1][1] == 1 and (len(whole) - 1) * rows + span % rows == span
    finally:
        sys.setswitchinterval(interval)


def test_worker_count_determinism_on_the_add_at_tally(monkeypatch):
    # 769^3 at e = 256: the F_p-line sweep counts L = 592,131 elements into e*(r+1) = 65,792 > 2^15
    # class buckets (r = 256), which take np.add.at; threads 2 and 3 give two workers of at least
    # _MIN_WORKER_MOD_P and the tail block, whose private count vectors must sum to the one-worker counts
    import periodpoly.periods as periods

    added = []  # (buckets, thread) of every np.add.at call

    class AddSpy:
        def __getattr__(self, name):
            return getattr(np.add, name)

        def at(self, counts, keys, value):
            added.append((counts.size, threading.get_ident()))
            np.add.at(counts, keys, value)

    class NumpySpy:
        add = AddSpy()

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(periods, "np", NumpySpy())
    calls = record_block_counts(monkeypatch)
    ctx = build_field(769, 3)
    got = {}
    for threads in (1, 2, 3):
        added.clear()
        calls.clear()
        got[threads] = trace_spectrum(ctx, 256, max_q=10**9, threads=threads).counts
        assert len(calls) == min(threads, 2) + 1  # the workers' slices and the tail block
        assert len(added) >= len(calls) and {size for size, _ in added} == {256 * 257}
        assert len({thread for _, thread in added}) == min(threads, 2)  # the tail runs in the caller's thread
    assert got[1] == got[2] == got[3]


def test_worker_count_determinism_on_the_float64_bincount_tally(monkeypatch):
    # 4129^3 at e = 32: s*(p-1)^2 >= 2^24 puts the products in float64, and the 32 x 33 class
    # buckets take bincount; L = 17,052,771 elements give two and three workers, whose private
    # count vectors must sum to the one-worker counts
    ctx = build_field(4129, 3)
    base = trace_spectrum(ctx, 32, max_q=10**11, threads=1)
    calls = record_block_counts(monkeypatch)
    for threads in (2, 3):
        calls.clear()
        assert trace_spectrum(ctx, 32, max_q=10**11, threads=threads).counts == base.counts
        assert len(calls) == threads + 1 and all(rt.dtype == np.float64 for rt, _ in calls)


@pytest.mark.parametrize(
    "p, s, e, raw, max_q",
    (
        # the mod-p tally in float32: s*(p-1)^2 = 2,583,552, L = 863,971 >= 3 * _MIN_WORKER_MOD_P
        (929, 3, 16, False, 10**9),
        # the raw tally: e*(s*(p-1)^2 + 1) = 2,080 buckets, L = 21,523,360 >= 3 * _MIN_WORKER_RAW
        (3, 16, 32, True, 10**8),
    ),
)
def test_worker_counts_above_the_per_worker_minimum(monkeypatch, p, s, e, raw, max_q):
    # threads 1, 2 and 3 give that many workers, and the same counts
    import periodpoly.periods as periods

    monkeypatch.setattr(periods, "_line_degree", lambda p, s, e: 1)  # the F_p-line walk, d = 1
    ctx = build_field(p, s)
    span = (ctx.q - 1) // (ctx.p - 1)
    assert span >= 3 * (_MIN_WORKER_RAW if raw else _MIN_WORKER_MOD_P)
    calls = record_block_counts(monkeypatch)
    got = {}
    for threads in (1, 2, 3):
        calls.clear()
        got[threads] = trace_spectrum(ctx, e, max_q=max_q, threads=threads).counts
        assert len(calls) == threads + 1  # one slice per worker and the tail block
        # float32 products; the raw tally's R^T carries its keys in one more row
        assert all(rt.dtype == np.float32 and rt.shape[0] == s + raw for rt, _ in calls)
    assert got[1] == got[2] == got[3]


@pytest.mark.parametrize("affinity", (True, False))
def test_default_worker_count_is_the_cpus_this_process_may_use(monkeypatch, affinity):
    # a process pinned to 2 CPUs of a 64-core host sweeps on 2 workers, not 64; where the OS
    # has no affinity mask, the core count is the default
    import periodpoly.periods as periods

    if affinity:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5, 9}, raising=False)
    else:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64 if affinity else 3)
    monkeypatch.setattr(periods, "_line_degree", lambda p, s, e: 1)  # the F_p-line walk, d = 1
    monkeypatch.setattr(periods, "_bucket_width", lambda e, s, p: p)  # the mod-p tally splits
    calls = record_block_counts(monkeypatch)
    ctx = build_field(5, 10)  # L = 2,441,406: room for 9 workers of _MIN_WORKER_MOD_P elements
    trace_spectrum(ctx, 8)
    assert len(calls) == (2 if affinity else 3) + 1  # the workers' slices and the tail block


def test_a_worker_exception_reaches_the_caller(monkeypatch):
    # every slice but the first raises; the caller re-raises the second slice's exception,
    # the first in slice order, after all three workers have run
    import periodpoly.periods as periods

    monkeypatch.setattr(periods, "_line_degree", lambda p, s, e: 1)  # the F_p-line walk, d = 1
    monkeypatch.setattr(periods, "_bucket_width", lambda e, s, p: p)
    ctx = build_field(5, 10)
    starts = []

    def failing_counts(rt, w, *rest):
        start = (w.ctypes.data - w.base.ctypes.data) // w.strides[0]
        starts.append(start)
        if start:
            raise ArithmeticError(f"slice at {start}")
        return _block_counts(rt, w, *rest)

    monkeypatch.setattr(periods, "_block_counts", failing_counts)
    full = (ctx.q - 1) // (ctx.p - 1) // _ROWS
    with pytest.raises(ArithmeticError, match=f"slice at {full // 3}$"):
        trace_spectrum(ctx, 8, threads=3)
    assert sorted(starts) == [0, full // 3, 2 * full // 3]


@pytest.mark.parametrize(
    "p, s, e, natural",
    (
        (41, 4, 5, np.float32),  # raw keys: e*(s*(p-1)^2 + 1) = 32,005 buckets, just below 2^15
        (41, 4, 10, np.float32),  # the same field on the mod-p tally: 64,010 buckets
        (2897, 2, 8, np.float32),  # mod p, s*(p-1)^2 = 16,773,632 < 2^24
        (2903, 2, 8, np.float64),  # mod p, s*(p-1)^2 = 16,843,208 >= 2^24
    ),
)
def test_dtype_tiers_give_identical_counts(monkeypatch, p, s, e, natural):
    # each tier, forced by dropping the narrower ones from _EXACT_BELOW, must give the
    # counts of the tier the bound picks; _MIN_BLAS = 0 lets the short sweeps take it
    import periodpoly.periods as periods

    monkeypatch.setattr(periods, "_line_degree", lambda p, s, e: 1)  # the F_p-line walk, d = 1
    monkeypatch.setattr(periods, "_MIN_BLAS", 0)
    calls = record_block_counts(monkeypatch)
    ctx = build_field(p, s)
    tiers = periods._EXACT_BELOW
    got = {}
    for first in range(len(tiers)):
        monkeypatch.setattr(periods, "_EXACT_BELOW", tiers[first:])
        calls.clear()
        got[first] = trace_spectrum(ctx, e, threads=1).counts
        assert {rt.dtype for rt, _ in calls} == {np.dtype(tiers[first][0] if first else natural)}
    assert got[0] == got[1] == got[2]


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


@functools.lru_cache(maxsize=None)
def sweep_case(name, field_trace, frobenius_trace):
    """(field, traces over one period of its gamma) for a bucket_sweep test case."""
    if name == "subfield":  # F_{3^4} as its own field; the traces come from gamma^82 inside F_{3^8}
        ctx = build_field(3, 8)
        field, period = ctx.subfield(4), 80
        traces = walk_traces(ctx, ctx.gamma ** ((ctx.q - 1) // period), frobenius_trace(ctx, 4), period)
    else:
        field = build_field(*{"s=1": (10007, 1), "s=6": (5, 6)}[name])
        period = field.q - 1
        traces = walk_traces(field, field.gamma, field_trace(field), period)
    assert field.gamma**period == field.one()
    return field, np.array(traces, dtype=np.int64)


@pytest.mark.parametrize("threads", (1, 2, 3))
@pytest.mark.parametrize("name", ("s=1", "s=6", "subfield"))
def test_bucket_sweep_matches_direct_walk(name, threads, field_trace, frobenius_trace):
    ctx, traces = sweep_case(name, field_trace, frobenius_trace)
    # lengths that are multiples of neither the block nor e; the two short ones take
    # the int64 product, the long one a float product, over up to three workers where
    # the tally is mod p (s=1)
    for length in (1, _ROWS + 1, 3 * _MIN_WORKER_MOD_P + 4099):
        j = np.arange(length)
        for e in (3, 8, 11):
            direct = np.bincount(j % e * ctx.p + traces[j % len(traces)], minlength=e * ctx.p)
            got = bucket_sweep(ctx, ctx.trace_row(), e, length, threads, classes=np.arange(ctx.p))
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
    # an element of order 8 keeps the residues near p; its 8 traces take classes 1 .. 8 and
    # every other residue class 0, so a product rounded to a wrong residue lands in column 0,
    # and the zero-filled class map stays a handful of touched pages
    base = ctx.gamma ** ((p - 1) // 8)
    traces = np.array(walk_traces(ctx, base, field_trace(ctx), 8))
    ctx = FieldCtx(ctx.p, ctx.modulus, base.coords, ctx.q_minus_1_factorization)  # the sweep walks base^j
    classes = np.zeros(p, dtype=np.int64)
    classes[traces] = np.arange(1, 9)
    length = 3 * _MIN_BLAS + 5  # long enough that the dtype is the exactness bound's choice
    j = np.arange(length)
    direct = np.bincount(j % 2 * 9 + classes[traces[j % 8]], minlength=2 * 9).reshape(2, 9)
    got = bucket_sweep(ctx, ctx.trace_row(), 2, length, threads=1, classes=classes)
    assert np.array_equal(got, direct)


def test_block_counts_products_at_float64_bound():
    # r = w = p-2 makes the one product (p-2)^2, odd and just above 2^53 for the larger
    # prime, where float64 rounds it and so lands in the wrong residue mod p: column 0 of a
    # class map that gives the true residue, alone, column 1
    for p, float_exact in ((94906249, True), (94906297, False)):
        classes = np.zeros(p, dtype=np.int64)
        classes[(p - 2) ** 2 % p] = 1
        for dtype in (np.float64, np.int64):
            res = np.array([[p - 2]], dtype=dtype)
            got = _block_counts(res, res, np.zeros((1, 1), dtype=np.int64), 2, p, classes)
            assert np.array_equal(got, [0, 1]) == (dtype is np.int64 or float_exact), (p, dtype)


@pytest.mark.parametrize(
    "p, s, e",
    # e*v = 456 and 50,192, v = s*(p-1)^2 + 1: one case on each side of the guard at 2^15
    ((3, 14, 8), (29, 4, 16)),
)
def test_raw_and_mod_p_tallies_agree(monkeypatch, p, s, e):
    # one row, on the identity class map (the trace itself) and on a random map onto 5
    # columns that is not the identity: the raw tally maps its dot values to classes once,
    # the class tally every residue, and both give the identity counts moved to the classes
    import periodpoly.periods as periods

    ctx = build_field(p, s)
    v = s * (p - 1) ** 2 + 1
    assert periods._bucket_width(e, s, p) == (v if e * v <= _CHUNK else p)
    length = 2 * _MIN_WORKER_MOD_P + 4099  # two workers on two threads on the class tally, and a tail block
    shuffled = np.random.default_rng(34).integers(0, 5, size=p)
    shuffled[:2] = 4, 0  # class 4 is taken, and the map is not the identity
    got = {}
    for width in (v, p):  # force the raw-dot tally, then the class tally
        monkeypatch.setattr(periods, "_bucket_width", lambda *_, width=width: width)
        for threads in (1, 2):
            for name, classes in (("identity", np.arange(p)), ("shuffled", shuffled)):
                counts = bucket_sweep(ctx, ctx.trace_row(), e, length, threads, classes=classes)
                got[name, width, threads] = counts
    identity = got["identity", p, 1]
    assert identity.sum() == length
    moved = np.zeros((e, 5), dtype=np.int64)
    np.add.at(moved, (slice(None), shuffled), identity)
    for (name, _, _), counts in got.items():
        assert np.array_equal(counts, identity if name == "identity" else moved), name


@functools.lru_cache(maxsize=None)
def tripwire_case(name):
    """The field named "p^s", or "subfield" for F_9 as build_field(3, 4).subfield(2)."""
    if name == "subfield":
        return build_field(3, 4).subfield(2)
    return build_field(*map(int, name.split("^")))


@pytest.mark.parametrize(
    "name, index",
    [("3^4", k) for k in range(4)] + [("subfield", k) for k in range(2)] + [("3^14", k) for k in range(14)],
)
def test_corrupted_trace_row_raises(monkeypatch, name, index):
    # the tripwire checks the whole row against the Frobenius matrix, on whole fields and
    # on a subfield, before the sweep; each case is the true row with one entry moved by
    # one. On 3^14, gamma = x, so gamma^0 ... gamma^7 span only 1 ... x^7: a check on a
    # few walked elements misses every index from 8 on
    field = tripwire_case(name)
    row = FieldCtx.trace_row
    shift = np.eye(1, field.s, index, dtype=np.int64)[0]
    monkeypatch.setattr(FieldCtx, "trace_row", lambda ctx: row(ctx) + shift)
    with pytest.raises(FieldError, match="trace row"):
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
    full = bucket_sweep(ctx, ctx.trace_row(), e, ctx.q - 1, threads=1, classes=np.arange(ctx.p))
    for threads in (1, 2):
        assert np.array_equal(np.array(trace_spectrum(ctx, e, threads=threads).counts), full), (name, e)


def test_fold_rejects_a_gamma_whose_norm_is_not_primitive():
    # gamma^2 walks only the squares: its norm gamma^{2L} is a square in F_p, not a primitive root
    ctx = build_field(5, 2)
    square = FieldCtx(ctx.p, ctx.modulus, (ctx.gamma**2).coords, ctx.q_minus_1_factorization)
    with pytest.raises(FieldError, match="not a primitive root"):
        trace_spectrum(square, 4)
    zero = FieldCtx(ctx.p, ctx.modulus, (0, 0), ctx.q_minus_1_factorization)  # its norm is 0
    with pytest.raises(FieldError, match="not a primitive root"):
        trace_spectrum(zero, 4)


@pytest.mark.parametrize(
    "p, s, most_e",
    (
        # every e | q - 1, among them odd e, e = q - 1 and, at 7^4, e = 480
        (3, 4, None),
        (3, 6, None),
        (5, 4, None),
        (7, 4, None),
        (3, 8, None),
        (3, 9, None),  # odd s: K = F_27
        # p = 1 (mod 8); e up to 2000, as e = q - 1 at d = 2 asks for an 83,520 x 289 table
        (17, 4, 2000),
    ),
)
def test_every_line_degree_gives_the_full_walk_spectrum(monkeypatch, p, s, most_e):
    # trace_spectrum walks F_q^*/K^*, K = F_{p^d}, for d from the rule; forced to each proper
    # divisor d of s, it must give the counts of the walk over all q - 1 powers of gamma
    import periodpoly.periods as periods

    ctx = build_field(p, s)
    degrees = [d for d in range(1, s) if s % d == 0]
    cases = 0
    for e in (e for e in range(1, min(ctx.q - 1, most_e or ctx.q) + 1) if (ctx.q - 1) % e == 0):
        full = bucket_sweep(ctx, ctx.trace_row(), e, ctx.q - 1, threads=1, classes=np.arange(ctx.p))
        for d in degrees:
            monkeypatch.setattr(periods, "_line_degree", lambda p, s, e, d=d: d)
            assert np.array_equal(np.array(trace_spectrum(ctx, e, threads=1).counts), full), (p, s, e, d)
            cases += 1
    assert cases >= 2 * 8


@pytest.mark.parametrize(
    "p, s, m, d",
    # the brute benchmark fields: K = F_{p^{s/2}}, but for 3^8 at e = 32, which walks 820
    # F_9-lines: the 82 F_81-lines save less than K's walk and the fold cost there
    # (BENCH_relative_sweep.json, "rule")
    ((3, 14, 3, 7), (5, 10, 3, 5), (13, 6, 3, 3), (3, 12, 4, 6), (5, 8, 4, 4), (29, 4, 4, 2), (3, 8, 5, 2)),
)
def test_line_degree_on_the_brute_fields(p, s, m, d):
    import periodpoly.periods as periods

    assert ("brute", p, s, m) in BENCHMARK_INSTANCES
    assert periods._line_degree(p, s, 1 << m) == d


def test_line_degree_is_a_proper_divisor():
    import periodpoly.periods as periods

    # s prime: K = F_p is the only proper subfield
    for p, s, e in ((3, 1, 2), (17, 5, 16), (5, 11, 4), (41, 3, 40), (4129, 3, 32), (40013, 2, 8)):
        assert periods._line_degree(p, s, e) == 1
    for p, s, e in ((3, 16, 32), (7, 8, 32), (5, 16, 64), (7, 4, 480), (3, 12, 1040), (5, 8, 5**8 - 1)):
        d = periods._line_degree(p, s, e)
        assert d < s and s % d == 0
    # at e = q - 1 on 5^8, d = 4 would fold a 390,624 x 625 table
    assert periods._line_degree(5, 8, 5**8 - 1) < 4


@pytest.mark.parametrize("threads", (1, 2))
def test_bucket_sweep_buckets_residue_vectors_by_classes(monkeypatch, threads):
    # d = 2 rows: each element's pair of residues is looked up in a 3 x 3 table of bucket
    # columns. Lengths of one element, one block and a tail, and past _MIN_BLAS, where the
    # product is float32 and, on two threads, split over two workers
    import periodpoly.periods as periods

    monkeypatch.setattr(periods, "_MIN_WORKER_MOD_P", 1 << 12)
    ctx = build_field(3, 6)
    rng = np.random.default_rng(36)
    rows = rng.integers(0, 3, size=(2, 6))
    classes = rng.integers(0, 5, size=(3, 3))
    classes[0, 0] = width = 5
    width += 1
    walk, x = [], ctx.one()
    for _ in range(ctx.q - 1):
        walk.append(x.coords)
        x = x * ctx.gamma
    residues = np.array(walk) @ rows.T % 3
    column = classes[residues[:, 0], residues[:, 1]]
    calls = record_block_counts(monkeypatch)
    for length in (1, _ROWS + 1, _MIN_BLAS + 4099):
        j = np.arange(length)
        for e in (3, 8, 7):
            calls.clear()
            direct = np.bincount(j % e * width + column[j % (ctx.q - 1)], minlength=e * width)
            got = bucket_sweep(ctx, rows, e, length, threads, classes=classes)
            assert got.shape == (e, width)
            assert np.array_equal(got.ravel(), direct), (threads, length, e)
            if length > _MIN_BLAS:
                assert {rt.dtype for rt, _ in calls} == {np.dtype(np.float32)}
                assert len(calls) == threads + (length % (calls[0][0].shape[1] // 2) > 0)


def test_line_walk_rejects_a_gamma_that_does_not_generate_the_subfield():
    # on 5^8 at e = 16 the rule walks F_625-lines: delta = gamma^626 must generate F_625^*.
    # gamma^2 gives a delta of order 312 and degree 4, whose windows repeat; gamma = 0 gives
    # delta = 0, whose Hankel system is singular
    import periodpoly.periods as periods

    ctx = build_field(5, 8)
    assert periods._line_degree(5, 8, 16) == 4
    square = FieldCtx(ctx.p, ctx.modulus, (ctx.gamma**2).coords, ctx.q_minus_1_factorization)
    with pytest.raises(FieldError, match="not a primitive root of F_625"):
        trace_spectrum(square, 16)
    zero = FieldCtx(ctx.p, ctx.modulus, (0,) * 8, ctx.q_minus_1_factorization)
    with pytest.raises(FieldError, match="not a primitive root of F_625"):
        trace_spectrum(zero, 16)


def test_line_walk_rejects_a_delta_in_a_proper_subfield_of_k():
    # gamma^26 on 5^8 gives delta = gamma^(26*626) of order 24, a primitive root of F_25 inside
    # K = F_625: its windows span only F_25's, so the 4 x 4 Hankel system is singular
    import periodpoly.periods as periods

    ctx = build_field(5, 8)
    assert periods._line_degree(5, 8, 16) == 4
    gamma = ctx.gamma**26
    delta = gamma**626
    assert delta**24 == ctx.one() and delta**8 != ctx.one() and delta**12 != ctx.one()
    small = FieldCtx(ctx.p, ctx.modulus, gamma.coords, ctx.q_minus_1_factorization)
    with pytest.raises(FieldError, match="not a primitive root of F_625: its degree is below 4"):
        trace_spectrum(small, 16)


def test_line_walk_rejects_a_generator_outside_the_subfield(monkeypatch):
    # gamma^627 in place of gamma^626 is not in F_625: F^4 moves it
    ctx = build_field(5, 8)
    power = FieldElem.__pow__
    monkeypatch.setattr(FieldElem, "__pow__", lambda x, n: power(x, n + 1))
    with pytest.raises(FieldError, match=r"gamma\^626 is not in F_625"):
        trace_spectrum(ctx, 16)


@pytest.mark.parametrize("name, e", (("5^8", 16), ("13^6", 8), ("3^14", 8)))
def test_corrupted_projection_raises(monkeypatch, name, e):
    # the tripwire compares the sweep's d x s block of rows trow . M^c, by Newton's identities,
    # with the Frobenius route, the sum of the block orbit of kt . M^c under F^d. Each case
    # moves one entry of one side by one: of the left block, or of the first term of the
    # right's orbit, the only block orbit in trace_spectrum; the check must catch every entry
    import periodpoly.periods as periods

    ctx = tripwire_case(name)
    d = periods._line_degree(ctx.p, ctx.s, e)
    assert d > 1
    orbit = periods._orbit
    trow = ctx.trace_row() % ctx.p
    for side in ("left", "right"):
        for c in range(d):
            for k in range(ctx.s):
                hits = []

                def corrupting(first, step, n, p, out=None, side=side, c=c, k=k):
                    rows = orbit(first, step, n, p, out)
                    if side == "right" and first.ndim == 2 and out is None:
                        rows[0, c, k] += 1
                        hits.append(1)
                    elif side == "left" and out is None and n == d and np.array_equal(first, trow):
                        rows[c, k] += 1
                        hits.append(1)
                    return rows

                monkeypatch.setattr(periods, "_orbit", corrupting)
                with pytest.raises(FieldError, match="trace row disagrees"):
                    trace_spectrum(ctx, e)
                assert hits == [1], (side, c, k)


@pytest.mark.parametrize("corrupt", ("row-sum", "negative"))
def test_folded_count_tripwires_raise(monkeypatch, corrupt):
    import periodpoly.periods as periods

    fold = periods._fold

    def corrupted(*args):
        counts = fold(*args)
        if corrupt == "row-sum":  # one element moved from row 0 to row 1
            counts[0, 1] -= 1
            counts[1, 1] += 1
        else:  # row 0 keeps its sum with one count at -1
            counts[0, 2] += counts[0, 1] + 1
            counts[0, 1] = -1
        return counts

    monkeypatch.setattr(periods, "_fold", corrupted)
    with pytest.raises(ArithmeticError, match="folded counts"):
        trace_spectrum(build_field(5, 8), 16)


def test_overflow_guard_raises_before_sweeping():
    # (p-1)^2 >= 2^63: int64 products would wrap in the sweep and, at s >= 2, in the
    # tripwire's Frobenius matrix; at s = 3 they do, and a wrapped row raises FieldError
    for p, s in ((3037000507, 1), (4000000007, 3)):
        ctx = build_field(p, s)
        with pytest.raises(OverflowError) as info:
            trace_spectrum(ctx, 2, max_q=2 * ctx.q)  # admits q and the 2 x p table
        assert isinstance(info.value, SweepOverflow), (p, s)
