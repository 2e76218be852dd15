import math

import numpy as np
import pytest

from periodpoly.charsums import (
    _logs,
    discrete_log_map,
    gauss_table,
    identity_report,
    jacobi_sum,
    lift_gauss_sum,
    lifted_period_polynomial,
    partition_sum_identity,
    periods_from_gauss,
    smallest_lift_base,
    subfield_sums,
)
from periodpoly.cyclotomic import CycElem
from periodpoly.fields import FieldError, build_field
from periodpoly.periods import BudgetExceeded, SweepOverflow, period_polynomial, reduced_periods, trace_spectrum

ISQRT2 = CycElem.root(8, 1) + CycElem.root(8, 3)


def test_gauss_sum_values():
    ctx9 = build_field(3, 2)
    assert gauss_table(ctx9, 2).value(1).as_integer() == 3
    assert gauss_table(ctx9, 4).value(1).as_integer() == -3
    ctx3 = build_field(3, 1)
    assert gauss_table(ctx3, 2).value(1) == CycElem(3, (1, 2, 0))  # i*sqrt(3)
    with pytest.raises(ValueError):
        gauss_table(ctx9, 4).value(0)
    with pytest.raises(ValueError):
        gauss_table(ctx9, 3)  # 3 does not divide 8


def test_conjugate_product_is_q():
    from periodpoly.intmath import ord2

    for p, s in ((3, 2), (3, 4), (5, 2), (5, 4), (13, 2)):
        ctx = build_field(p, s)
        e = 1 << min(4, ord2(ctx.q - 1))
        table = gauss_table(ctx, e)
        for j in range(1, e):
            g = table.value(j)
            sign = 1 if (j * ((ctx.q - 1) // 2)) % e == 0 else -1
            assert g * table.value(-j) == sign * ctx.q  # psi(-1) q


def test_jacobi_values():
    ctx9 = build_field(3, 2)
    jac = jacobi_sum(ctx9, 8, 1, discrete_log_map(ctx9))
    assert jac == -1 + 2 * ISQRT2 or jac == -1 - 2 * ISQRT2
    ctx5 = build_field(5, 1)
    j5 = jacobi_sum(ctx5, 4, 1, discrete_log_map(ctx5))
    c = j5.canonical()
    a, b = c[0], c[1] if len(c) > 1 else 0
    assert a * a + b * b == 5
    with pytest.raises(ValueError):
        jacobi_sum(ctx9, 8, 0, discrete_log_map(ctx9))  # trivial character
    with pytest.raises(ValueError):
        jacobi_sum(ctx9, 3, 1, discrete_log_map(ctx9))  # 3 does not divide 8
    with pytest.raises(BudgetExceeded):
        discrete_log_map(build_field(3, 13))  # q = 1594323 is over the discrete-log budget
    # the walk against direct FieldElem multiplication, on whole groups and on the
    # subfield F_81 inside F_{3^8}, walked as powers of gamma^82; odd orders included
    for p, s, d, orders in ((3, 4, 1, (5, 16)), (5, 4, 1, (3, 16)), (13, 2, 1, (3, 8)), (3, 8, 82, (5, 16))):
        ctx = build_field(p, s)
        base, length = ctx.gamma**d, (ctx.q - 1) // d
        dlog = discrete_log_map(ctx, base, length)
        assert len(dlog) == length
        x = ctx.one()
        for row in dlog:
            assert tuple(row) == x.coords
            x = x * base
        for order in orders:
            for j in range(1, order):
                assert jacobi_sum(ctx, order, j, dlog) == dict_walk_jacobi(ctx, base, length, order, j)
    # gamma is not a square, so it is not in the walk of <gamma^2>
    ctx9 = build_field(3, 2)
    squares = discrete_log_map(ctx9, ctx9.gamma**2, 4)
    with pytest.raises(FieldError):
        _logs(ctx9, squares, np.array([ctx9.gamma.coords]))
    assert _logs(ctx9, squares, np.array([(ctx9.gamma**6).coords])).tolist() == [3]
    # s*(p-1)^2 >= 2^63: the orbit's int64 products would wrap
    with pytest.raises(SweepOverflow):
        discrete_log_map(build_field(3037000507, 1), length=2)
    # p^s >= 2^63: the packed keys would wrap, though the orbit itself is exact
    ctx340 = build_field(3, 40)
    small = discrete_log_map(ctx340, ctx340.gamma ** ((ctx340.q - 1) // 8), 8)
    with pytest.raises(SweepOverflow):
        jacobi_sum(ctx340, 4, 1, small)


def dict_walk_jacobi(ctx, base, length, order, j):
    """Reference Jacobi sum: a dict of coords -> log filled by FieldElem multiplication."""
    dlog, x = {}, ctx.one()
    for a in range(length):
        dlog[x.coords] = a
        x = x * base
    buckets = [0] * order
    for x, a in dlog.items():
        if a:  # x = 1 makes 1 - x = 0, and psi(0) = 0
            one_minus_x = ((1 - x[0]) % ctx.p,) + tuple(-c % ctx.p for c in x[1:])
            buckets[j * (a + dlog[one_minus_x]) % order] += 1
    return CycElem(order, buckets)


def test_gauss_jacobi_relation():
    # G(psi)^2 = G(psi^2) J(psi) for nontrivial psi != rho
    for p, s, e in ((3, 2, 4), (3, 2, 8), (5, 2, 4), (5, 1, 4), (5, 2, 8), (13, 1, 4)):
        ctx = build_field(p, s)
        table = gauss_table(ctx, e)
        dlog = discrete_log_map(ctx)
        for j in range(1, e):
            if 2 * j % e == 0:
                continue
            g = table.value(j)
            assert g * g == table.value(2 * j) * jacobi_sum(ctx, e, j, dlog)


def test_davenport_hasse_lift(conjugate):
    g3 = gauss_table(build_field(3, 1), 2).value(1)
    assert lift_gauss_sum(g3, 1) == g3
    assert lift_gauss_sum(g3, 2).as_integer() == 3  # -(i sqrt3)^2
    # quartic over F_9 lifted to F_81 vs a direct sweep:
    ctx9 = build_field(3, 2)
    ctx81 = build_field(3, 4)
    sums = subfield_sums(ctx81, 2, 4)
    with pytest.raises(BudgetExceeded):
        subfield_sums(ctx81, 2, 8, max_q=20)  # q0 = 9 is in budget, the 8x3 count table is not
    direct_base = sums.gauss(1)
    lifted = lift_gauss_sum(direct_base, 2)
    assert lifted == gauss_table(ctx81, 4).value(1)
    # the subfield sweep agrees with a native build of the base field up to
    # generator choice: |G|^2 = q0 either way
    native = gauss_table(ctx9, 4).value(1)
    assert native * conjugate(native) == 9
    assert direct_base * conjugate(direct_base) == 9


def test_fourier_expansion_of_periods():
    # eta*_k = sum_j G(lambda^j) zeta_e^{-jk}
    for p, s, e in ((3, 2, 8), (5, 2, 4), (3, 4, 16)):
        ctx = build_field(p, s)
        table = gauss_table(ctx, e)
        pv = reduced_periods(trace_spectrum(ctx, e))
        n = math.lcm(e, p)
        for k in range(e):
            acc = CycElem.zero(n)
            for j in range(1, e):
                acc = acc + table.value(j) * CycElem.root(e, (-j * k) % e)
            assert acc == pv.eta_star[k]


def test_periods_from_gauss_direct():
    for p, s, m in ((3, 4, 4), (5, 4, 4), (5, 2, 3), (3, 2, 3)):
        ctx = build_field(p, s)
        e = 1 << m
        tab = gauss_table(ctx, e)
        table = {}
        for r in range(1, m + 1):
            for key in ((1 << (m - r)) % e, (-(1 << (m - r))) % e):
                table[key] = tab.value(key)
        pv = periods_from_gauss(p, s, m, table)
        bv = reduced_periods(trace_spectrum(ctx, e))
        assert all(a == b for a, b in zip(pv.eta_star, bv.eta_star))
    with pytest.raises(ValueError):
        periods_from_gauss(3, 4, 4, {})
    with pytest.raises(ValueError):
        periods_from_gauss(7, 4, 4, {})


def test_lift_oracle_matches_enumeration():
    # both oracles run and agree exactly, per index and as polynomials
    m2_cases = ((5, 2, 2), (5, 4, 2), (5, 6, 2), (5, 8, 2), (13, 2, 2), (13, 4, 2), (29, 2, 2))
    for p, s, m in ((5, 8, 4), (3, 8, 4), (3, 4, 4), (5, 4, 3)) + m2_cases:
        ctx = build_field(p, s)
        poly_lift, pv_lift, s_base = lifted_period_polynomial(ctx, m)
        bv = reduced_periods(trace_spectrum(ctx, 1 << m))
        assert poly_lift == period_polynomial(bv)
        assert all(a == b for a, b in zip(pv_lift.eta_star, bv.eta_star))
        assert s_base == smallest_lift_base(p, s, m)


def test_smallest_lift_base():
    assert smallest_lift_base(5, 16, 4) == 4
    assert smallest_lift_base(5, 8, 4) == 4
    assert smallest_lift_base(3, 8, 4) == 4
    assert smallest_lift_base(5, 4, 2) == 1  # 4 | 5 - 1
    with pytest.raises(ValueError):
        smallest_lift_base(3, 3, 4)


def test_partition_sum_identity_examples():
    ctx = build_field(3, 4)
    checks = partition_sum_identity(ctx, 4, 3)
    by_side = {c.params["side"]: c for c in checks}
    assert by_side["sum"].passed and by_side["diff"].passed
    # G + Gbar = 2 A_3 q^{1/4} = -6
    assert by_side["sum"].rhs == -6
    ctx54 = build_field(5, 4)
    checks = partition_sum_identity(ctx54, 4, 2)
    by_side = {c.params["side"]: c for c in checks}
    assert by_side["sum"].passed and by_side["diff"].passed
    # G + Gbar = -2 C_2 q^{1/4} = 30
    assert by_side["sum"].rhs == 30
    # the (-1)^r branch when 2^{r-1} || s
    ctx52 = build_field(5, 2)
    checks = partition_sum_identity(ctx52, 3, 2)
    assert all(c.passed for c in checks)


def test_identity_report_all_pass():
    total = 0
    for p, s, m in ((3, 4, 4), (3, 8, 4), (5, 4, 4), (5, 8, 4), (3, 2, 3), (5, 2, 3), (11, 4, 4), (13, 4, 4), (5, 1, 2), (13, 2, 2)):
        ctx = build_field(p, s)
        checks = identity_report(ctx, m)
        assert all(c.passed for c in checks), [c for c in checks if not c.passed]
        total += len(checks)
    assert total >= 50


def test_identity_report_filter_and_json():
    ctx = build_field(5, 4)
    checks = identity_report(ctx, 4, only={"16", "11"})
    assert checks and all(c.lemma in ("16", "11") for c in checks)
    d = checks[0].to_json_dict()
    assert d["lemma"] in ("16", "11") and "pass" in d and "lhs" in d and "rhs" in d
