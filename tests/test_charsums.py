import math

import numpy as np
import pytest

from periodpoly import charsums
from periodpoly.charsums import (
    GaussTable,
    discrete_log_map,
    identity_report,
    jacobi_sum,
    lift_gauss_sum,
    lifted_period_polynomial,
    partition_sum_identity,
    periods_from_gauss,
    smallest_lift_base,
    subfield_sums,
    zech_logs,
)
from periodpoly.cyclotomic import CycElem
from periodpoly.fields import FieldError, build_field
from periodpoly.intmath import ord2
from periodpoly.periods import BudgetExceeded, SweepOverflow, period_polynomial, reduced_periods, trace_spectrum

ISQRT2 = CycElem.root(8, 1) + CycElem.root(8, 3)


def test_gauss_sum_values():
    ctx9 = build_field(3, 2)
    assert GaussTable(trace_spectrum(ctx9, 2)).value(1).canonical() == (3,)
    assert GaussTable(trace_spectrum(ctx9, 4)).value(1).canonical() == (-3,)
    ctx3 = build_field(3, 1)
    assert GaussTable(trace_spectrum(ctx3, 2)).value(1) == CycElem(3, (1, 2, 0))  # i*sqrt(3)
    with pytest.raises(ValueError):
        GaussTable(trace_spectrum(ctx9, 4)).value(0)
    with pytest.raises(ValueError):
        GaussTable(trace_spectrum(ctx9, 3))  # 3 does not divide 8


def test_conjugate_product_is_q():
    from periodpoly.intmath import ord2

    for p, s in ((3, 2), (3, 4), (5, 2), (5, 4), (13, 2)):
        ctx = build_field(p, s)
        e = 1 << min(4, ord2(ctx.q - 1))
        table = GaussTable(trace_spectrum(ctx, e))
        for j in range(1, e):
            g = table.value(j)
            sign = 1 if (j * ((ctx.q - 1) // 2)) % e == 0 else -1
            assert g * table.value(-j) == CycElem.integer(1, sign * ctx.q)  # psi(-1) q


def test_jacobi_values():
    ctx9 = build_field(3, 2)
    zech9 = zech_logs(ctx9)
    jac = jacobi_sum(8, 1, zech9)
    minus_one = CycElem.integer(8, -1)
    assert jac == minus_one + 2 * ISQRT2 or jac == minus_one - 2 * ISQRT2
    ctx5 = build_field(5, 1)
    j5 = jacobi_sum(4, 1, zech_logs(ctx5))
    c = j5.canonical()
    a, b = c[0], c[1] if len(c) > 1 else 0
    assert a * a + b * b == 5
    with pytest.raises(ValueError):
        jacobi_sum(8, 0, zech9)  # trivial character
    with pytest.raises(ValueError):
        jacobi_sum(3, 1, zech9)  # 3 does not divide 8
    with pytest.raises(BudgetExceeded):
        discrete_log_map(build_field(3, 13))  # q = 1594323 is over the discrete-log budget
    # the walk against direct FieldElem multiplication, on whole groups and on the
    # subfield F_81 of F_{3^8} as its own field; its Jacobi sums against a walk of
    # gamma^82 inside F_{3^8}; odd orders included
    for p, s, s_sub, orders in ((3, 4, 4, (5, 16)), (5, 4, 4, (3, 16)), (13, 2, 2, (3, 8)), (3, 8, 4, (5, 16))):
        ctx = build_field(p, s)
        field = ctx if s_sub == s else ctx.subfield(s_sub)
        base, length = ctx.gamma ** ((ctx.q - 1) // (p**s_sub - 1)), p**s_sub - 1
        dlog = discrete_log_map(field)
        assert len(dlog) == length
        x = field.one()
        for row in dlog:
            assert tuple(row) == x.coords
            x = x * field.gamma
        zech = zech_logs(field)
        for order in orders:
            for j in range(1, order):
                assert jacobi_sum(order, j, zech) == dict_walk_jacobi(ctx, base, length, order, j)
    # s*(p-1)^2 >= 2^63: the orbit's int64 products would wrap; this is checked before
    # the discrete-log budget
    with pytest.raises(SweepOverflow):
        discrete_log_map(build_field(3037000507, 1))


def test_logs_by_scatter_index(monkeypatch):
    # every log gathered from the length-q index is the row of 1 - x_a's packed key
    # sum_i c_i p^i in a dict filled from the walk, on the walk-test fields above
    for p, s, s_sub in ((3, 4, 4), (5, 4, 4), (13, 2, 2), (3, 8, 4)):
        ctx = build_field(p, s)
        field = ctx if s_sub == s else ctx.subfield(s_sub)
        walk = discrete_log_map(field).tolist()
        pack = lambda coords: sum(c * p**i for i, c in enumerate(coords))
        rows = {pack(x): a for a, x in enumerate(walk)}
        assert len(rows) == field.q - 1 and 0 not in rows  # distinct keys in [1, q)
        want = [rows[pack([(1 - x[0]) % p] + [-c % p for c in x[1:]])] for x in walk[1:]]
        assert (zech_logs(field) - np.arange(1, field.q - 1)).tolist() == want
    # a key missing from the walk raises: the walk of gamma^2 on F_9 is the squares, which
    # do not hold 1 - gamma^2; and a walk that meets 1 twice asks for the key 0 of 1 - 1
    ctx9 = build_field(3, 2)
    for walk in (discrete_log_map(ctx9)[::2], discrete_log_map(ctx9)[[0, 0, 4]]):
        with monkeypatch.context() as m:
            m.setattr(charsums, "discrete_log_map", lambda ctx, walk=walk: walk)
            with pytest.raises(FieldError, match="not in the walked group"):
                zech_logs(ctx9)
    # q - 1 = 1594323 - 1 is over the walk's budget: the walk raises, and the length-q
    # index is never allocated
    with pytest.raises(BudgetExceeded):
        zech_logs(build_field(3, 13))


def test_zech_vector_against_its_definition():
    # 1 - x formed with a modulo, each log looked up in a dict of the walk's rows; and the
    # log of 4 that identity_report reads off the Zech vector as 2 log(1 - (-1)),
    # -1 = gamma^((q-1)/2)
    for p, s, s_sub in ((3, 4, 4), (5, 4, 4), (13, 2, 2), (3, 8, 4), (3, 2, 1)):
        ctx = build_field(p, s)
        field = ctx if s_sub == s else ctx.subfield(s_sub)
        dlog = discrete_log_map(field)
        logs = {tuple(row): a for a, row in enumerate(dlog.tolist())}
        one_minus_x = -dlog[1:] % p
        one_minus_x[:, 0] = (1 - dlog[1:, 0]) % p
        zech = zech_logs(field)
        assert zech.tolist() == [a + logs[tuple(row)] for a, row in enumerate(one_minus_x.tolist(), 1)]
        half = (field.q - 1) // 2
        four = logs[field.from_int(4 % p).coords]
        assert 2 * (zech[half - 1] - half) % (field.q - 1) == four


def test_walk_in_chunks(monkeypatch):
    # with a chunk of a few rows the walk crosses many chunk boundaries, some chunks
    # dividing q - 1 and some not, and a last chunk of one row; each row is still the
    # FieldElem power and the Zech vector still its definition
    for p, s, s_sub, chunks in ((3, 4, 4, (1, 7, 16, 79, 80)), (13, 2, 2, (5, 56)), (3, 8, 4, (3, 33))):
        ctx = build_field(p, s)
        field = ctx if s_sub == s else ctx.subfield(s_sub)
        for chunk in chunks:
            monkeypatch.setattr(charsums, "_WALK_CHUNK", chunk)
            dlog = discrete_log_map(field)
            x = field.one()
            for row in dlog.tolist():
                assert tuple(row) == x.coords
                x = x * field.gamma
            assert x == field.one()
            logs = {tuple(row): a for a, row in enumerate(dlog.tolist())}
            want = [a + logs[((1 - y[0]) % p,) + tuple(-c % p for c in y[1:])] for a, y in enumerate(dlog.tolist()) if a]
            zech = zech_logs(field)
            assert zech.dtype == np.int64 and zech.tolist() == want


def test_walk_dtype_is_the_narrowest_that_holds_p_minus_1():
    # int8 up to p = 127, int16 up to 32749, int32 past it (q - 1 = 32770 is within
    # the discrete-log budget at s = 1); signed, so -dlog % p is exact in every dtype
    for p, s, dtype in ((13, 4, np.int8), (127, 2, np.int8), (131, 2, np.int16), (32749, 1, np.int16), (32771, 1, np.int32)):
        dlog = discrete_log_map(build_field(p, s))
        assert dlog.dtype == dtype
        assert int(dlog.min()) >= 0 and int(dlog.max()) == p - 1
        assert np.array_equal(-dlog % p, -dlog.astype(np.int64) % p)


def test_zech_vector_memory_per_element():
    # the tracemalloc peak of one Zech vector of F_{13^4}, warm, per element of F_q: the
    # narrow walk, two int64 key vectors, the length-q index and the scattered rows take
    # about 36 bytes; an int64 walk with a full-size copy for 1 - x took about 97
    import tracemalloc

    field = build_field(13, 4)
    zech_logs(field)
    tracemalloc.start()
    try:
        zech_logs(field)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * field.q


def test_subfield_walk_sees_the_subfield_bounds():
    # F_{13^4} inside F_{13^32}: 13^32 >= 2^63, but the subfield's own walk and its
    # packed keys are small; its Zech vector against a FieldElem walk of g0 in F_{13^32}
    ctx = build_field(13, 32)
    sub = ctx.subfield(4)
    zech = zech_logs(sub)
    assert len(zech) == 28559
    g0 = ctx.gamma ** ((ctx.q - 1) // (sub.q - 1))
    logs, x = {}, ctx.one()
    for a in range(sub.q - 1):
        logs[x.coords] = a
        x = x * g0
    assert x == ctx.one() and len(logs) == sub.q - 1
    want = [a + logs[((1 - y[0]) % 13,) + tuple(-c % 13 for c in y[1:])] for y, a in logs.items() if a]
    assert zech.tolist() == want


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
        table = GaussTable(trace_spectrum(ctx, e))
        zech = zech_logs(ctx)
        for j in range(1, e):
            if 2 * j % e == 0:
                continue
            g = table.value(j)
            assert g * g == table.value(2 * j) * jacobi_sum(e, j, zech)


def test_davenport_hasse_lift(conjugate):
    ctx3 = build_field(3, 1)
    g3 = GaussTable(trace_spectrum(ctx3, 2)).value(1)
    assert lift_gauss_sum(g3, 1) == g3
    assert lift_gauss_sum(g3, 2).canonical() == (3,)  # -(i sqrt3)^2
    # quartic over F_9 lifted to F_81 vs a direct sweep:
    ctx9 = build_field(3, 2)
    ctx81 = build_field(3, 4)
    sums = subfield_sums(ctx81, 2, 4)
    with pytest.raises(BudgetExceeded):
        subfield_sums(ctx81, 2, 8, max_q=20)  # q0 = 9 is in budget, the 8x3 count table is not
    direct_base = sums.gauss(1)
    lifted = lift_gauss_sum(direct_base, 2)
    assert lifted == GaussTable(trace_spectrum(ctx81, 4)).value(1)
    # the subfield sweep agrees with a native build of the base field up to
    # generator choice: |G|^2 = q0 either way
    native = GaussTable(trace_spectrum(ctx9, 4)).value(1)
    assert native * conjugate(native) == CycElem.integer(1, 9)
    assert direct_base * conjugate(direct_base) == CycElem.integer(1, 9)


def test_davenport_hasse_square_is_one_product(monkeypatch):
    # G^2 is one squaring in Z[zeta_{ep}]: no product by one and no squaring past the top bit
    g = subfield_sums(build_field(5, 4), 2, 8).gauss(1)
    want = g * g
    products = []
    mul = CycElem.__mul__
    monkeypatch.setattr(CycElem, "__mul__", lambda a, b: products.append((a, b)) or mul(a, b))
    assert lift_gauss_sum(g, 2) == -want
    assert len(products) == 1 and products[0][0] is products[0][1] is g


def test_fourier_expansion_of_periods():
    # eta*_k = sum_j G(lambda^j) zeta_e^{-jk}
    for p, s, e in ((3, 2, 8), (5, 2, 4), (3, 4, 16)):
        ctx = build_field(p, s)
        table = GaussTable(trace_spectrum(ctx, e))
        pv = reduced_periods(trace_spectrum(ctx, e))
        n = math.lcm(e, p)
        for k in range(e):
            acc = CycElem.zero(n)
            for j in range(1, e):
                acc = acc + table.value(j) * CycElem.root(e, (-j * k) % e)
            assert acc == pv.eta_star[k]


def full_gauss_table(ctx, m):
    """{j: G(lambda^j)} for j = 1 .. 2^m - 1, from one sweep of ctx."""
    tab = GaussTable(trace_spectrum(ctx, 1 << m))
    return {j: tab.value(j) for j in range(1, 1 << m)}


def read_periods(ctx, m):
    """periods_from_gauss at r = 1: L is ctx's own count table H, read off G(lambda)."""
    e = 1 << m
    return periods_from_gauss(ctx.q, e, GaussTable(trace_spectrum(ctx, e)).value(1))


def test_periods_from_gauss_direct():
    # p = 7 and 17 (7 and 1 mod 8) too: the reader assumes nothing about p mod 8
    for p, s, m in ((3, 4, 4), (5, 4, 4), (5, 2, 3), (3, 2, 3), (3, 2, 1), (7, 2, 4), (17, 1, 4)):
        ctx = build_field(p, s)
        pv = read_periods(ctx, m)
        bv = reduced_periods(trace_spectrum(ctx, 1 << m))
        assert [a.vec for a in pv.eta_star] == [b.vec for b in bv.eta_star]
    ctx = build_field(3, 4)
    g = GaussTable(trace_spectrum(ctx, 16)).value(1)
    for q, e in ((81, 8), (81, 32), (82, 16)):  # conductor 48 is not 8p or 32p; 16 does not divide 81
        with pytest.raises(ValueError):
            periods_from_gauss(q, e, g)
    with pytest.raises(ValueError, match="m must be >= 1"):
        lifted_period_polynomial(ctx, 0)


def test_periods_from_gauss_rejects_corrupted_table(monkeypatch):
    # a lifted sum that is not (-1)^{r-1} H^r for one field: rows that are no count row, or periods off sigma_g
    ctx = build_field(5, 8)
    lift = charsums.lift_gauss_sum
    corruptions = (
        (lambda v: v + CycElem.root(v.n, 3), "not a count row"),
        (lambda v: v - CycElem.integer(v.n, 10**6), "not a count row"),
        (lambda v: v * CycElem.root(v.n, 16), "does not permute"),  # zeta_p: every row shifted by one trace
    )
    for corrupt, message in corruptions:
        monkeypatch.setattr(charsums, "lift_gauss_sum", lambda value, r: corrupt(lift(value, r)))
        with pytest.raises(ArithmeticError, match=message):
            lifted_period_polynomial(ctx, 4)


def paper_periods_from_gauss(p, m, table):
    """The paper's expansion of the periods, specialised to p = 3, 5 (mod 8), as a reference.

    Reads only G(lambda^j) for j = +/-2^{m-r} mod 2^m, r = 1..m: for p = 3, 5 (mod 8)
    the inner root-of-unity sums collapse to 0, +/-2^t, 2^t i or 2^t i*sqrt2.
    """
    e = 1 << m
    n = math.lcm(8, e, p)

    def gp(r):
        return table[(1 << (m - r)) % e].embed(n)

    def gm(r):
        return table[(-(1 << (m - r))) % e].embed(n)

    g_rho = gp(1)
    pair = [None, None] + [gp(r) + gm(r) for r in range(2, m + 1)]
    diff = [None, None] + [gp(r) - gm(r) for r in range(2, m + 1)]
    i_unit = CycElem.root(4, 1).embed(n)
    isqrt2 = ISQRT2.embed(n)

    eta = [CycElem.zero(n) for _ in range(e)]
    total = g_rho
    for r in range(2, m + 1):
        total = total + (1 << (r - 2)) * pair[r]
    eta[0] = total
    half = g_rho
    for r in range(2, m):
        half = half + (1 << (r - 2)) * pair[r]
    eta[e // 2] = half - (1 << (m - 2)) * pair[m]

    plus_minus = {}
    for t in range(0, m - 1):
        base = CycElem.zero(n)
        for r in range(2, t + 1):
            base = base + (1 << (r - 2)) * pair[r]
        if t == 0:
            base = base - g_rho
        else:
            base = base + g_rho - (1 << (t - 1)) * pair[t + 1]
        corr = CycElem.zero(n)
        if p % 8 == 5:
            corr = corr + (1 << t) * (i_unit * diff[t + 2])
        if p % 8 == 3 and t <= m - 3:
            corr = corr + (1 << t) * (isqrt2 * diff[t + 3])
        plus_minus[t] = (base - corr, base + corr)

    for k in range(1, e):
        if k == e // 2:
            continue
        t = ord2(k)
        k0 = (k >> t) % (1 << (m - t))
        sign_set = set()
        v = 1
        for _ in range(1 << max(0, m - t - 2)):
            sign_set.add(v)
            v = v * p % (1 << (m - t))
        if k0 in sign_set:
            eta[k] = plus_minus[t][0]
        else:
            assert (-k0) % (1 << (m - t)) in sign_set
            eta[k] = plus_minus[t][1]
    return eta


@pytest.mark.parametrize(
    "p, s, m", ((5, 1, 2), (3, 2, 2), (3, 2, 3), (5, 2, 3), (3, 4, 4), (5, 4, 4), (3, 8, 5), (5, 8, 5), (3, 16, 6))
)
def test_transform_matches_paper_expansion(p, s, m):
    ctx = build_field(p, s)
    paper = paper_periods_from_gauss(p, m, full_gauss_table(ctx, m))
    assert all(a == b for a, b in zip(read_periods(ctx, m).eta_star, paper, strict=True))


def test_lift_oracle_matches_enumeration(monkeypatch):
    # both oracles run and agree exactly, per index and as polynomials; the lift sweeps its base subfield
    bases = []
    sweep = charsums.subfield_sums
    monkeypatch.setattr(charsums, "subfield_sums", lambda ctx, s_sub, *args, **kwargs: bases.append(s_sub) or sweep(ctx, s_sub, *args, **kwargs))
    # (3, 16, 5): m = 5 lifted from F_{3^8} (r = 2); p = 7 and 17 need no p mod 8 case
    m2_cases = ((5, 2, 2), (5, 4, 2), (5, 6, 2), (5, 8, 2), (13, 2, 2), (13, 4, 2), (29, 2, 2))
    for p, s, m in ((5, 8, 4), (3, 8, 4), (3, 4, 4), (5, 4, 3), (3, 16, 5), (7, 4, 4), (17, 2, 4), (3, 2, 1)) + m2_cases:
        ctx = build_field(p, s)
        poly_lift, pv_lift = lifted_period_polynomial(ctx, m)
        bv = reduced_periods(trace_spectrum(ctx, 1 << m))
        assert poly_lift == period_polynomial(bv)
        assert all(a.n == p for a in pv_lift.eta_star)  # the brute oracle's ring, Z[zeta_p]
        assert [a.vec for a in pv_lift.eta_star] == [b.vec for b in bv.eta_star]  # the same vectors, not only equal
        assert bases.pop() == smallest_lift_base(p, s, m)


@pytest.mark.parametrize("p, s, m", ((5, 16, 5), (13, 32, 4), (3, 64, 5)))
def test_lift_is_one_power(monkeypatch, p, s, m):
    # every G(lambda^j) of F_q is an image of one power of H: one Davenport-Hasse call per lift
    calls = []
    lift = charsums.lift_gauss_sum
    monkeypatch.setattr(charsums, "lift_gauss_sum", lambda value, r: calls.append(r) or lift(value, r))
    lifted_period_polynomial(build_field(p, s), m)
    assert len(calls) == 1


def test_smallest_lift_base():
    assert smallest_lift_base(5, 16, 4) == 4
    assert smallest_lift_base(5, 8, 4) == 4
    assert smallest_lift_base(3, 8, 4) == 4
    assert smallest_lift_base(5, 4, 2) == 1  # 4 | 5 - 1
    with pytest.raises(ValueError):
        smallest_lift_base(3, 3, 4)


def test_partition_sum_identity_examples():
    ctx = build_field(3, 4)
    checks = partition_sum_identity(ctx, 3, GaussTable(trace_spectrum(ctx, 16)))
    by_side = {c.params["side"]: c for c in checks}
    assert by_side["sum"].passed and by_side["diff"].passed
    # G + Gbar = 2 A_3 q^{1/4} = -6
    assert by_side["sum"].rhs == CycElem.integer(1, -6)
    ctx54 = build_field(5, 4)
    checks = partition_sum_identity(ctx54, 2, GaussTable(trace_spectrum(ctx54, 16)))
    by_side = {c.params["side"]: c for c in checks}
    assert by_side["sum"].passed and by_side["diff"].passed
    # G + Gbar = -2 C_2 q^{1/4} = 30
    assert by_side["sum"].rhs == CycElem.integer(1, 30)
    # the (-1)^r branch when 2^{r-1} || s
    ctx52 = build_field(5, 2)
    checks = partition_sum_identity(ctx52, 2, GaussTable(trace_spectrum(ctx52, 8)))
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


def test_identity_report_sweeps_only_for_a_selected_check(monkeypatch):
    # a selection that applies to no check raises before the whole-field sweep or the
    # discrete-log walk, and check 10 needs neither
    import periodpoly.charsums as charsums
    import periodpoly.periods as periods

    def refuse(*args, **kwargs):
        raise RuntimeError("the field was enumerated")

    monkeypatch.setattr(periods, "bucket_sweep", refuse)
    monkeypatch.setattr(charsums, "discrete_log_map", refuse)
    ctx = build_field(3, 4)
    with pytest.raises(ValueError, match="no selected identity check applies"):
        identity_report(ctx, 2, only={"16"})  # p = 3 (mod 8) has no lemma 16
    checks = identity_report(ctx, 4, only={"10"})
    assert checks and all(c.lemma == "10" and c.passed for c in checks)
    with pytest.raises(RuntimeError, match="enumerated"):
        identity_report(ctx, 4, only={"9"})
    with pytest.raises(BudgetExceeded):  # the walk of F_81^* is held to the enumeration budget too
        identity_report(ctx, 4, only={"9"}, max_q=50)


def test_lemma_11_sweeps_only_the_whole_field(monkeypatch):
    # the subfield Jacobi sum of lemma 11 needs the subfield's walk, not its Gauss sums:
    # the one trace_spectrum call is the whole field's, for G(psi) on the left
    calls = []
    spectrum = charsums.trace_spectrum
    monkeypatch.setattr(charsums, "trace_spectrum", lambda ctx, *a, **k: calls.append(ctx.q) or spectrum(ctx, *a, **k))
    checks = identity_report(build_field(3, 8), 5, only={"11"})
    assert [c.params["r"] for c in checks] == [3, 4] and all(c.passed for c in checks)
    assert calls == [3**8]
