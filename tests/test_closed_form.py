import json
import math
from dataclasses import replace

import pytest

from periodpoly.closed_form import (
    UnsupportedCase,
    classify,
    closed_form_factorization,
    factorization_3mod8,
    factorization_5mod8,
    irreducibility_witness,
    q_power,
    semiprimitive_factorization,
)
from periodpoly.cyclotomic import IntPoly, expand_factor_list, linear
from periodpoly.fields import build_field
from periodpoly.partitions import partition_records
from periodpoly.periods import period_polynomial, reduced_periods, trace_spectrum


def oracle_poly(ctx, m):
    return period_polynomial(reduced_periods(trace_spectrum(ctx, 1 << m)))


def test_classify():
    assert classify(3, 8, 4).case == "T1a"
    assert classify(3, 4, 4).case == "T1c"
    assert classify(3, 8, 5).case == "T1b"
    assert classify(3, 16, 5).case == "T1a"
    assert classify(5, 4, 4).case == "T2c"
    assert classify(5, 8, 4).case == "T2b"
    assert classify(5, 16, 4).case == "T2a"
    assert classify(5, 2, 2).case == "SMALL_M2"
    assert classify(3, 2, 3).case == "SMALL_M3"
    assert classify(11, 4, 4).case == "T1c"
    assert classify(13, 4, 4).case == "T2c"
    with pytest.raises(UnsupportedCase):
        classify(7, 4, 4)
    with pytest.raises(UnsupportedCase):
        classify(3, 2, 4)  # 2^{m-2} does not divide s
    with pytest.raises(UnsupportedCase):
        classify(3, 4, 1)


def test_q_power():
    assert q_power(3, 8, 1, 2) == 81
    assert q_power(3, 8, 3, 8) == 27
    assert q_power(3, 4, 3, 4) == 27
    with pytest.raises(UnsupportedCase):
        q_power(3, 4, 1, 8)


def test_t1c_instance():
    ctx = build_field(3, 4)
    fac = factorization_3mod8(ctx, 4)
    assert fac.case.case == "T1c"
    got = {(poly.coeffs, mult) for poly, mult in fac.factors}
    # multiset frozen from the brute-force oracle over F_81
    expected = {
        ((15, 1), 6),
        ((-33, 1), 4),
        ((39 * 39 + 1728, 78, 1), 1),
        ((81 + 1728, -18, 1), 2),
    }
    assert got == expected
    assert fac.expand() == oracle_poly(ctx, 4)


def test_t1a_instance():
    ctx = build_field(3, 8)
    fac = factorization_3mod8(ctx, 4)
    assert fac.case.case == "T1a"
    got = {(poly.coeffs, mult) for poly, mult in fac.factors}
    expected = {
        ((63, 1), 4),
        ((-225, 1), 5),
        ((351, 1), 2),
        ((-513, 1), 2),
        ((495, 1), 2),
        ((207, 1), 1),
    }
    assert got == expected
    assert fac.expand() == oracle_poly(ctx, 4)


def test_t2c_instance():
    ctx = build_field(5, 4)
    fac = factorization_5mod8(ctx, 4)
    assert fac.case.case == "T2c"
    quartic = None
    for poly, mult in fac.factors:
        if poly.degree == 4:
            quartic = (poly, mult)
    inner = IntPoly((25 + 22000, -10, 1))
    wing = linear(95)
    expected_quartic = inner * inner - 8000 * (wing * wing)
    assert quartic == (expected_quartic, 1)
    got = {(poly.coeffs, mult) for poly, mult in fac.factors}
    expected = {
        ((15, 1), 4),
        ((-65, 1), 4),
        ((55 * 55 - 8000, 110, 1), 2),
        (expected_quartic.coeffs, 1),
    }
    assert got == expected
    assert fac.expand() == oracle_poly(ctx, 4)


def test_t2b_instance_partition_values():
    ctx = build_field(5, 8)
    fac = factorization_5mod8(ctx, 4)
    assert fac.case.case == "T2b"
    by_r = {rec.r: rec for rec in fac.partitions}
    assert (by_r[2].first, abs(by_r[2].second)) == (-7, 24)
    assert (by_r[3].first, abs(by_r[3].second)) == (-3, 4)
    assert (by_r[4].first, abs(by_r[4].second)) == (1, 2)
    assert fac.expand() == oracle_poly(ctx, 4)


def test_oracle_equality_grid():
    grid = [
        (3, 2, 3), (3, 4, 3), (3, 4, 4), (3, 8, 3), (3, 8, 4), (3, 8, 5),
        (5, 2, 2), (5, 2, 3), (5, 4, 2), (5, 4, 3), (5, 4, 4), (5, 8, 2),
        (5, 8, 3), (5, 8, 4), (5, 8, 5), (11, 2, 3), (11, 4, 3), (11, 4, 4),
        (13, 2, 2), (13, 2, 3), (13, 4, 2), (13, 4, 3), (13, 4, 4),
        (19, 2, 3), (19, 4, 4), (29, 2, 2), (29, 2, 3), (29, 4, 4), (37, 2, 3),
    ]
    for p, s, m in grid:
        ctx = build_field(p, s)
        fac = closed_form_factorization(ctx, m)
        assert fac.expand() == oracle_poly(ctx, m), (p, s, m, fac.case.case)


def test_expansion_shape():
    ctx = build_field(3, 4)
    poly = factorization_3mod8(ctx, 4).expand()
    assert poly.is_monic() and poly.degree == 16
    assert poly.coeffs[15] == 0
    assert expand_factor_list([]).coeffs == (1,)


def test_sign_flip_invariance():
    # flipping the gamma-dependent sign of any B/D record leaves the output unchanged
    count = 0
    for p, s, m in ((3, 8, 4), (3, 8, 5), (5, 8, 4), (5, 4, 4), (3, 4, 4), (13, 4, 4), (11, 4, 4)):
        ctx = build_field(p, s)
        build = factorization_3mod8 if p % 8 == 3 else factorization_5mod8
        lo = 3 if p % 8 == 3 else 2
        tag = classify(p, s, m)
        hi = m if (p % 8 == 3 or tag.s2 >= m - 1) else m - 1
        records = partition_records(ctx, list(range(lo, hi + 1)))
        base = build(ctx, m, records=records)
        for r in records:
            flipped = dict(records)
            flipped[r] = replace(records[r], second=-records[r].second)
            assert build(ctx, m, records=flipped).factors == base.factors
            count += 1
    assert count >= 15


def test_splitting_count_arithmetic():
    # factor content groups into delta = gcd(e, (q-1)/(p-1)) chunks of degree e/delta
    cases = 0
    for p, s, m in (
        (3, 4, 4), (3, 8, 4), (3, 8, 5), (5, 4, 4), (5, 8, 4), (5, 2, 3),
        (5, 2, 2), (5, 4, 2), (5, 4, 3), (3, 2, 3), (3, 4, 3), (11, 4, 4),
        (13, 4, 4), (19, 4, 4), (29, 4, 4), (13, 2, 3), (29, 2, 3),
    ):
        ctx = build_field(p, s)
        fac = closed_form_factorization(ctx, m)
        e = 1 << m
        delta = math.gcd(e, (ctx.q - 1) // (p - 1))
        piece = e // delta
        assert sum(poly.degree * mult for poly, mult in fac.factors) == e
        pieces = 0
        for poly, mult in fac.factors:
            assert poly.degree <= piece
            assert (poly.degree * mult) % piece == 0
            pieces += poly.degree * mult // piece
        assert pieces == delta
        cases += 1
    assert cases >= 17


def test_emitted_quadratics_are_irreducible():
    # discriminant of every quadratic factor is not a perfect square
    for p, s, m in ((3, 4, 4), (3, 8, 5), (5, 4, 4), (5, 8, 4), (5, 2, 3), (13, 4, 4)):
        ctx = build_field(p, s)
        fac = closed_form_factorization(ctx, m)
        for poly, _ in fac.factors:
            if poly.degree != 2:
                continue
            c, b, a = poly.coeffs
            disc = b * b - 4 * a * c
            if disc >= 0:
                r = math.isqrt(disc)
                assert r * r != disc, (p, s, m, poly.coeffs)
        assert fac.expand() == oracle_poly(ctx, m)


def test_small_m_cases():
    assert closed_form_factorization(build_field(5, 2), 2).case.case == "SMALL_M2"
    with pytest.raises(UnsupportedCase):
        factorization_3mod8(build_field(3, 2), 2)  # no closed form for p = 3 mod 8
    irr = factorization_5mod8(build_field(5, 1), 2)
    assert irr.irreducible and irr.factors == ()
    with pytest.raises(UnsupportedCase):
        irr.expand()
    # the irreducible claim is checked by a witness prime, found below 8 on every odd-s case here
    for p, s in ((5, 1), (5, 3), (5, 5), (13, 1), (13, 3), (29, 1), (37, 1), (53, 3), (61, 1)):
        ctx = build_field(p, s)
        poly = oracle_poly(ctx, 2)
        assert irreducibility_witness(poly) <= 7
        assert factorization_5mod8(ctx, 2).matches(poly)
    reducible = expand_factor_list([(IntPoly((1, 0, 1)), 1), (IntPoly((-2, 0, 1)), 1)])  # (X^2+1)(X^2-2)
    assert irreducibility_witness(reducible) is None and not irr.matches(reducible)
    assert not irr.matches(IntPoly((2, 1)))  # irreducible, but of the wrong degree
    with pytest.raises(UnsupportedCase):
        factorization_3mod8(build_field(5, 4), 4)  # p = 5 mod 8 is the other class's builder


def test_semiprimitive():
    fac = semiprimitive_factorization(3, 2, 4)
    assert {(f.coeffs, m) for f, m in fac.factors} == {((-9, 1), 1), ((3, 1), 3)}
    fac5 = semiprimitive_factorization(3, 4, 5)
    assert {(f.coeffs, m) for f, m in fac5.factors} == {((-36, 1), 1), ((9, 1), 4)}
    assert fac5.degree() == 5
    ctx = build_field(3, 4)
    assert fac5.expand() == period_polynomial(reduced_periods(trace_spectrum(ctx, 5)))
    with pytest.raises(UnsupportedCase):
        semiprimitive_factorization(3, 3, 4)  # 2l = 2 does not divide 3
    with pytest.raises(UnsupportedCase):
        semiprimitive_factorization(3, 2, 2)
    with pytest.raises(UnsupportedCase):
        semiprimitive_factorization(5, 4, 7)  # 7 never divides 5^l + 1


def test_factorization_json_schema():
    ctx = build_field(3, 8)
    fac = factorization_3mod8(ctx, 4)
    d = fac.to_json_dict()
    assert set(d) == {"case", "q", "factors", "partitions"}
    assert d["case"] == "T1a" and d["q"] == "6561"
    for item in d["factors"]:
        assert set(item) == {"coeffs", "mult"}
        assert all(isinstance(c, str) for c in item["coeffs"])
    json.dumps(d)  # serializable
    got = {(tuple(int(c) for c in it["coeffs"]), it["mult"]) for it in d["factors"]}
    assert ((-225, 1), 5) in got


def test_factor_ordering_is_canonical():
    ctx = build_field(3, 8)
    fac = factorization_3mod8(ctx, 4)
    keys = [(poly.degree, poly.coeffs) for poly, _ in fac.factors]
    assert keys == sorted(keys)


def test_t1b_deep_pair_block_against_oracle():
    # m = 6 exercises the paired-linear blocks inside the 3-mod-8 mixed case
    ctx = build_field(3, 16)
    fac = closed_form_factorization(ctx, 6)
    assert fac.case.case == "T1b"
    assert fac.expand() == oracle_poly(ctx, 6)
