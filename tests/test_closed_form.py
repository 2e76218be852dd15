import collections
import contextlib
import hashlib
import io
import json
import math
from dataclasses import replace

import pytest

from periodpoly import cli, closed_form
from periodpoly.charsums import lifted_period_polynomial
from periodpoly.closed_form import (
    UnsupportedCase,
    classify,
    closed_form_factorization,
    factorization_3mod8,
    factorization_5mod8,
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


def test_sign_flip_invariance(monkeypatch):
    # flipping the gamma-dependent sign of any B/D record leaves the output unchanged
    count = 0
    for p, s, m in ((3, 8, 4), (3, 8, 5), (5, 8, 4), (5, 4, 4), (3, 4, 4), (13, 4, 4), (11, 4, 4)):
        ctx = build_field(p, s)
        build = factorization_3mod8 if p % 8 == 3 else factorization_5mod8
        lo = 3 if p % 8 == 3 else 2
        tag = classify(p, s, m)
        hi = m if (p % 8 == 3 or tag.s2 >= m - 1) else m - 1
        records = partition_records(ctx, list(range(lo, hi + 1)))
        base = build(ctx, m)
        for r in records:
            flipped = dict(records)
            flipped[r] = replace(records[r], second=-records[r].second)
            monkeypatch.setattr(closed_form, "partition_records", lambda ctx, rs, f=flipped: {k: f[k] for k in rs})
            assert build(ctx, m).factors == base.factors
            monkeypatch.undo()
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
    # the irreducible claim holds where the oracle's periods are one Galois orbit, each period once
    for p, s in ((5, 1), (5, 3), (5, 5), (13, 1), (13, 3), (29, 1), (37, 1), (53, 3), (61, 1)):
        periods = reduced_periods(trace_spectrum(build_field(p, s), 4))
        assert periods.factors == ((period_polynomial(periods), 1),), (p, s)
    with pytest.raises(UnsupportedCase):
        factorization_3mod8(build_field(5, 4), 4)  # p = 5 mod 8 is the other class's builder


@pytest.mark.parametrize(
    "p, s, m, oracle, tag",
    (
        (3, 8, 4, "brute", "T1a"), (3, 8, 5, "brute", "T1b"), (3, 4, 4, "brute", "T1c"),
        (5, 16, 4, "lift", "T2a"), (5, 8, 4, "brute", "T2b"), (5, 4, 4, "brute", "T2c"),
        (5, 2, 2, "brute", "SMALL_M2"), (5, 3, 2, "lift", "SMALL_M2"), (3, 2, 3, "brute", "SMALL_M3"),
        (5, 4, 3, "brute", "SMALL_M3"),
    ),
)
def test_oracle_factors_are_the_factor_list(p, s, m, oracle, tag):
    # the periods' Galois orbits are the irreducible factors over Q: the closed form's list, factor
    # for factor, or for an irreducible claim the one factor of degree 2^m
    ctx = build_field(p, s)
    fac = closed_form_factorization(ctx, m)
    assert fac.case.case == tag
    if oracle == "lift":
        poly, periods = lifted_period_polynomial(ctx, m)
    else:
        periods = reduced_periods(trace_spectrum(ctx, 1 << m))
        poly = period_polynomial(periods)
    assert periods.factors == (fac.factors or ((poly, 1),))


def _verify(p, s, m, tmp_path):
    """(exit code, record) of verify --format json on (p, s, m), its cache under tmp_path."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "--p", str(p), "--s", str(s), "--m", str(m), "--format", "json", "--cache", str(tmp_path / "cache.jsonl")])
    return code, json.loads(out.getvalue())


@pytest.mark.parametrize(
    "p, s, m, digest",
    ((5, 8, 4, "7f7b5bd455d1"), (5, 16, 4, "b1676e9ef5b0"), (13, 4, 4, "abcd5e9c3006")),
)
def test_verify_fails_a_reducible_quadratic(p, s, m, digest, monkeypatch, tmp_path):
    # a _pair that emits (X + c)^2 - t^2 even where t is an integer keeps the product, but the
    # quadratic splits over Q, so it is not the oracle's factor list
    def one_quadratic(ctx, c, rec, x, mult, sign):
        return [(closed_form._shifted_sq(c, sign * closed_form._term_sq(ctx, rec, x)), mult)]

    monkeypatch.setattr(closed_form, "_pair", one_quadratic)
    code, record = _verify(p, s, m, tmp_path)
    assert (code, record["status"], record["digest"][:12]) == (cli.EXIT_MISMATCH, "failed", digest)


def test_semiprimitive():
    fac = semiprimitive_factorization(3, 2, 4)
    assert {(f.coeffs, m) for f, m in fac.factors} == {((-9, 1), 1), ((3, 1), 3)}
    fac5 = semiprimitive_factorization(3, 4, 5)
    assert {(f.coeffs, m) for f, m in fac5.factors} == {((-36, 1), 1), ((9, 1), 4)}
    assert fac5.degree() == 5
    periods = reduced_periods(trace_spectrum(build_field(3, 4), 5))
    assert fac5.expand() == period_polynomial(periods)
    assert periods.factors == fac5.factors  # PROP20: the oracle's factors, factor for factor
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


_GRID_P = (3, 5, 11, 13, 19, 29, 37, 43, 53, 59, 61, 67, 83, 101)
_GRID_S = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16, 20, 24, 32, 48, 64)
_GRID_DIGEST = "78233944cf14798cd82d608a20c250adc89462d0327b9d95733baf2535504472"


def test_closed_form_golden_grid():
    # every closed form (or its refusal) on a fixed grid, pinned by one digest:
    # a rewrite of the builders must reproduce each factor list and each message
    digest = hashlib.sha256()
    tags = collections.Counter()
    for p in _GRID_P:
        for s in _GRID_S:
            if p**s > 10**24:
                continue
            ctx = build_field(p, s)
            for m in range(2, 9):
                try:
                    fac = closed_form_factorization(ctx, m)
                    line = json.dumps(fac.to_json_dict(), sort_keys=True, separators=(",", ":"))
                    tags[fac.case.case] += 1
                except ValueError as exc:
                    line = f"{type(exc).__name__}: {exc}"
                    tags["error"] += 1
                digest.update(f"{p} {s} {m} {line}\n".encode())
    assert tags == {
        "SMALL_M2": 69, "SMALL_M3": 98, "T1a": 19, "T1b": 13, "T1c": 16,
        "T2a": 5, "T2b": 12, "T2c": 27, "error": 721,
    }
    assert digest.hexdigest() == _GRID_DIGEST


# verify's verdict on every cell of the golden grid with a closed form, by (m, p mod 8, status),
# at the default budget; the skipped cells wait for an oracle past the sweep's reach
_GRID_COVERAGE = {
    (2, 5, "verified"): 69,
    (3, 3, "verified"): 50, (3, 5, "verified"): 48,
    (4, 3, "verified"): 29, (4, 5, "verified"): 25, (4, 5, "skipped"): 2,
    (5, 3, "verified"): 5, (5, 3, "skipped"): 8, (5, 5, "verified"): 4, (5, 5, "skipped"): 8,
    (6, 3, "verified"): 3, (6, 3, "skipped"): 2, (6, 5, "skipped"): 4,
    (7, 3, "skipped"): 1, (7, 5, "skipped"): 1,
}
_GRID_COVERAGE_DIGEST = "b10aa8088a0834be88d60eb09ac97c245a99ff4982aba08b9ea1f7b64f94d39e"


def test_verify_golden_grid_coverage(tmp_path):
    # a cell that moves from verified to skipped or failed is a regression; one that moves from
    # skipped to verified moves the pins, and its change names it
    digest = hashlib.sha256()
    tally = collections.Counter()
    for p in _GRID_P:
        for s in _GRID_S:
            if p**s > 10**24:
                continue
            ctx = build_field(p, s)
            for m in range(2, 9):
                try:
                    closed_form_factorization(ctx, m)
                except ValueError:
                    continue
                code, record = _verify(p, s, m, tmp_path)
                status = record["status"]
                assert code == {"verified": cli.EXIT_OK, "skipped": cli.EXIT_BUDGET}[status], (p, s, m)
                tally[(m, p % 8, status)] += 1
                digest.update(f"{p} {s} {m} {record['oracle']} {status} {record['digest']}\n".encode())
    assert tally == _GRID_COVERAGE
    assert sum(tally.values()) == 259
    assert digest.hexdigest() == _GRID_COVERAGE_DIGEST
