import math
import random

import pytest

from periodpoly.cyclotomic import CycElem
from periodpoly.fields import build_field, is_irreducible
from periodpoly.intmath import ord2
from periodpoly.periods import (
    BudgetExceeded,
    PeriodVector,
    period_polynomial,
    reduced_periods,
    trace_spectrum,
)


def naive_spectrum(ctx, e):
    """Pure-python reference sweep (independent of the numpy block path)."""
    counts = [[0] * ctx.p for _ in range(e)]
    x = ctx.one()
    for j in range(ctx.q - 1):
        counts[j % e][ctx.trace(x)] += 1
        x = x * ctx.gamma
    return counts


def test_sweep_matches_naive_reference():
    for p, s, e in ((3, 2, 4), (3, 2, 8), (5, 2, 4), (5, 2, 12), (3, 3, 13), (7, 2, 6), (3, 4, 16)):
        ctx = build_field(p, s)
        spec = trace_spectrum(ctx, e)
        assert [list(r) for r in spec.counts] == naive_spectrum(ctx, e)


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


def test_generator_independence():
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
            alt = ctx.with_generator(ctx.gamma**c)
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


def test_worker_count_determinism():
    ctx = build_field(5, 6)  # q = 15625
    base = trace_spectrum(ctx, 8, threads=1)
    for threads in (2, 3, 7):
        assert trace_spectrum(ctx, 8, threads=threads).counts == base.counts


def test_budget():
    ctx = build_field(3, 4)
    with pytest.raises(BudgetExceeded):
        trace_spectrum(ctx, 16, max_q=80)
    with pytest.raises(ValueError):
        trace_spectrum(ctx, 7)  # 7 does not divide 80
