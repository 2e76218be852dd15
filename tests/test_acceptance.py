"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Each test prints a `criterion N: PASS` line (visible with pytest -s); a failed
assertion marks the criterion failed. Criterion 7 is the large brute-force
sweep over q = 3^16.
"""

import math
import random
import time
from dataclasses import replace

import pytest
from conftest import _prime_field_value

from periodpoly import closed_form
from periodpoly.charsums import identity_report, lifted_period_polynomial, smallest_lift_base
from periodpoly.closed_form import classify, closed_form_factorization
from periodpoly.cyclotomic import CycElem, IntPoly
from periodpoly.fields import build_field
from periodpoly.partitions import (
    partition_a,
    partition_c,
    partition_records,
    power_representation,
)
from periodpoly.periods import period_polynomial, reduced_periods, trace_spectrum


def brute(ctx, m, threads=None):
    return period_polynomial(reduced_periods(trace_spectrum(ctx, 1 << m, threads=threads)))


def factor_multiset(fac):
    return {(poly.coeffs, mult) for poly, mult in fac.factors}


def test_criterion_01_t1c_desk_instance():
    t0 = time.perf_counter()
    ctx = build_field(3, 4)
    fac = closed_form_factorization(ctx, 4)
    oracle = brute(ctx, 4)
    assert fac.expand() == oracle  # exact integer equality
    # multiset frozen from the brute-force oracle over F_81; the closed form
    # uses A_3=-1, |B_3|=2, A_4=-1, |B_4|=1
    assert factor_multiset(fac) == {
        ((15, 1), 6),
        ((-33, 1), 4),
        ((3249, 78, 1), 1),
        ((1809, -18, 1), 2),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 1: PASS (T1c p=3 s=4 m=4, {elapsed:.3f}s)")


def test_criterion_02_t1a_desk_instance():
    t0 = time.perf_counter()
    ctx = build_field(3, 8)
    fac = closed_form_factorization(ctx, 4)
    oracle = brute(ctx, 4)
    assert fac.expand() == oracle
    assert factor_multiset(fac) == {
        ((63, 1), 4),
        ((-225, 1), 5),
        ((351, 1), 2),
        ((-513, 1), 2),
        ((495, 1), 2),
        ((207, 1), 1),
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 2: PASS (T1a p=3 s=8 m=4, {elapsed:.3f}s)")


def test_criterion_03_t1b_desk_instance():
    t0 = time.perf_counter()
    ctx = build_field(3, 8)
    fac = closed_form_factorization(ctx, 5)
    assert fac.case.case == "T1b"
    assert fac.expand() == brute(ctx, 5)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 3: PASS (T1b p=3 s=8 m=5, {elapsed:.3f}s)")


def test_criterion_04_t2c_desk_instance():
    t0 = time.perf_counter()
    ctx = build_field(5, 4)
    fac = closed_form_factorization(ctx, 4)
    assert fac.expand() == brute(ctx, 4)
    inner = IntPoly((22025, -10, 1))
    wing = IntPoly((95, 1))
    quartic = inner * inner - 8000 * (wing * wing)
    assert factor_multiset(fac) == {
        ((15, 1), 4),
        ((-65, 1), 4),
        ((-4975, 110, 1), 2),  # (X+55)^2 - 8000
        (quartic.coeffs, 1),  # ((X-5)^2 + 22000)^2 - 8000 (X+95)^2
    }
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"criterion 4: PASS (T2c p=5 s=4 m=4, {elapsed:.3f}s)")


def test_criterion_05_t2b_single_threaded():
    t0 = time.perf_counter()
    ctx = build_field(5, 8)
    fac = closed_form_factorization(ctx, 4)
    assert fac.case.case == "T2b"
    assert fac.expand() == brute(ctx, 4, threads=1)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"criterion 5: PASS (T2b p=5 s=8 m=4 over F_390625, {elapsed:.3f}s)")


def test_criterion_06_t2a_lift_instance():
    t0 = time.perf_counter()
    ctx = build_field(5, 16)  # construction is cheap; never enumerated
    assert ctx.q == 152587890625
    fac = closed_form_factorization(ctx, 4)
    assert fac.case.case == "T2a"
    assert smallest_lift_base(5, 16, 4) == 4  # Gauss sums over F_{5^4} only
    poly, periods = lifted_period_polynomial(ctx, 4, max_q=10**4)  # the budget admits no field past 10^4 elements
    assert fac.expand() == poly
    assert all(len(v.canonical()) <= 1 for v in periods.eta_star)  # rational integers
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"criterion 6: PASS (T2a p=5 s=16 m=4 via double lift, {elapsed:.3f}s)")


def test_criterion_07_large_brute_force_stretch():
    t0 = time.perf_counter()
    ctx = build_field(3, 16)
    fac = closed_form_factorization(ctx, 5)
    assert fac.case.case == "T1a"
    assert fac.expand() == brute(ctx, 5)  # q = 43 046 721, parallel sweep
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    print(f"criterion 7: PASS (T1a p=3 s=16 m=5 over q=43046721, {elapsed:.1f}s)")


def test_criterion_08_bigger_p_coverage():
    t0 = time.perf_counter()
    ctx11 = build_field(11, 4)
    fac11 = closed_form_factorization(ctx11, 4)
    assert fac11.case.case == "T1c"
    assert fac11.expand() == brute(ctx11, 4)
    e1 = time.perf_counter() - t0
    assert e1 < 30.0
    t0 = time.perf_counter()
    ctx13 = build_field(13, 4)
    fac13 = closed_form_factorization(ctx13, 4)
    assert fac13.case.case == "T2c"
    assert fac13.expand() == brute(ctx13, 4)
    e2 = time.perf_counter() - t0
    assert e2 < 30.0
    print(f"criterion 8: PASS (p=11 T1c {e1:.2f}s; p=13 T2c {e2:.2f}s)")


def test_criterion_09_small_degree_formulas():
    for p, s, m in ((3, 4, 3), (5, 2, 2), (5, 2, 3), (5, 4, 3)):
        ctx = build_field(p, s)
        fac = closed_form_factorization(ctx, m)
        assert fac.case.case in ("SMALL_M2", "SMALL_M3")
        assert fac.expand() == brute(ctx, m), (p, s, m)
    print("criterion 9: PASS (small-degree formulas at (3,4,3), (5,2,2), (5,2,3), (5,4,3))")


# ---------------------------------------------------------------------------
# criterion 10: property suites, each with at least 50 exact cases
# ---------------------------------------------------------------------------


def test_criterion_10a_period_sum_and_frobenius_stability():
    cases = 0
    for p, s in ((3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)):
        ctx = build_field(p, s)
        q = ctx.q
        for e in [e for e in range(2, min(q - 1, 49)) if (q - 1) % e == 0]:
            pv = reduced_periods(trace_spectrum(ctx, e))
            total = CycElem.zero(p)
            for v in pv.eta_star:
                total = total + v
            assert total == CycElem.zero(p)
            for k in range(e):
                assert pv.eta_star[k * p % e] == pv.eta_star[k]
            cases += 1
    assert cases >= 50
    print(f"criterion 10a: PASS (sum/stability on {cases} instances)")


def test_criterion_10b_generator_independence(with_generator):
    cases = 0
    for p, s, e in ((3, 4, 16), (5, 4, 16), (3, 2, 8), (5, 2, 8), (13, 2, 4), (11, 2, 8)):
        ctx = build_field(p, s)
        base = period_polynomial(reduced_periods(trace_spectrum(ctx, e)))
        rng = random.Random(1000 * p + s)
        seen = 0
        while seen < 10:
            c = rng.randrange(3, ctx.q - 1)
            if math.gcd(c, ctx.q - 1) != 1:
                continue
            alt = with_generator(ctx, ctx.gamma**c)
            assert period_polynomial(reduced_periods(trace_spectrum(alt, e))) == base
            seen += 1
            cases += 1
    assert cases >= 50
    print(f"criterion 10b: PASS (generator independence on {cases} generators)")


def test_criterion_10c_partition_identities_and_uniqueness(enumerate_representations):
    cases = 0
    for p, s in ((3, 2), (3, 4), (3, 8), (3, 16), (11, 2), (11, 4), (11, 8), (19, 2), (19, 4), (19, 8), (43, 2), (43, 4), (59, 2), (67, 2)):
        ctx = build_field(p, s)
        u = _prime_field_value(ctx.gamma ** ((ctx.q - 1) // 8) + ctx.gamma ** (3 * (ctx.q - 1) // 8))
        for r in range(3, 10):
            if s % (1 << (r - 2)):
                continue
            rec = partition_a(ctx, r)
            assert rec.first**2 + 2 * rec.second**2 == p**rec.exponent
            assert rec.first % 4 == 3 and rec.first % p != 0
            assert (2 * rec.second - rec.first * u) % p == 0
            reps = enumerate_representations(p**rec.exponent, 2)
            assert len([ab for ab in reps if ab[0] % p and ab[0] % 2]) == 1
            cases += 1
    for p, s in ((5, 2), (5, 4), (5, 8), (5, 16), (13, 2), (13, 4), (13, 8), (29, 2), (29, 4), (29, 8), (37, 2), (53, 2), (61, 2), (101, 2)):
        ctx = build_field(p, s)
        v = _prime_field_value(ctx.gamma ** ((ctx.q - 1) // 4))
        for r in range(2, 10):
            if s % (1 << (r - 1)):
                continue
            rec = partition_c(ctx, r)
            assert rec.first**2 + rec.second**2 == p**rec.exponent
            assert rec.first % 4 == 1 and rec.first % p != 0
            assert (rec.second * v - rec.first) % p == 0
            reps = enumerate_representations(p**rec.exponent, 1)
            assert len([ab for ab in reps if ab[0] % p and ab[0] % 2]) == 1
            cases += 1
    assert cases >= 50
    print(f"criterion 10c: PASS (partition identities/uniqueness on {cases} records)")


def test_criterion_10d_classical_identity_suite():
    required = {"2a", "2b", "2c", "4", "5", "7", "8", "9", "10", "11", "15", "16"}
    seen: dict[str, int] = {}
    total = 0
    for p, s, m in ((3, 4, 4), (3, 8, 4), (3, 8, 5), (5, 4, 4), (5, 8, 4), (3, 2, 3), (5, 2, 3), (11, 4, 4), (13, 4, 4)):
        ctx = build_field(p, s)
        for check in identity_report(ctx, m):
            assert check.passed, (p, s, m, check.lemma, check.params)
            seen[check.lemma] = seen.get(check.lemma, 0) + 1
            total += 1
    assert required <= set(seen), f"missing ids: {required - set(seen)}"
    assert total >= 50
    print(f"criterion 10d: PASS ({total} identity checks, ids {sorted(seen)})")


def test_criterion_10e_splitting_count_and_sign_flips():
    primes_3mod8 = (3, 11, 19, 43, 59, 67, 83)
    primes_5mod8 = (5, 13, 29, 37, 53, 61, 101, 109)
    count_delta = 0
    count_flip = 0
    for p in primes_3mod8 + primes_5mod8:
        for s in (2, 4, 8):
            if p**s > 10**12:
                continue
            for m in range(2, 6):
                try:
                    tag = classify(p, s, m)
                except Exception:
                    continue
                ctx = build_field(p, s)
                try:
                    fac = closed_form_factorization(ctx, m)
                except Exception:
                    continue  # p = 3 mod 8, m = 2 has no closed form
                if fac.irreducible:
                    continue
                e = 1 << m
                delta = math.gcd(e, (ctx.q - 1) // (p - 1))
                piece = e // delta
                pieces = 0
                for poly, mult in fac.factors:
                    assert poly.degree <= piece
                    assert (poly.degree * mult) % piece == 0
                    pieces += poly.degree * mult // piece
                assert pieces == delta
                count_delta += 1
                if tag.case.startswith(("T1", "T2")):
                    from periodpoly.closed_form import factorization_3mod8, factorization_5mod8

                    build = factorization_3mod8 if p % 8 == 3 else factorization_5mod8
                    lo = 3 if p % 8 == 3 else 2
                    hi = m if (p % 8 == 3 or tag.s2 >= m - 1) else m - 1
                    records = partition_records(ctx, list(range(lo, hi + 1)))
                    for r in records:
                        flipped = dict(records)
                        flipped[r] = replace(records[r], second=-records[r].second)
                        with pytest.MonkeyPatch.context() as patch:
                            patch.setattr(closed_form, "partition_records", lambda ctx, rs, f=flipped: {k: f[k] for k in rs})
                            assert build(ctx, m).factors == fac.factors
                        count_flip += 1
    assert count_delta >= 50, count_delta
    assert count_flip >= 50, count_flip
    print(f"criterion 10e: PASS (delta bookkeeping on {count_delta} factorizations, {count_flip} sign flips)")


def test_criterion_10f_power_representation_properties():
    cases = 0
    for p, d in ((3, 2), (11, 2), (19, 2), (43, 2), (59, 2), (5, 1), (13, 1), (29, 1), (37, 1), (53, 1)):
        for k in range(1, 7):
            a, b = power_representation(p, k)
            assert a * a + d * b * b == p**k
            assert a % p != 0 and a % 2 == 1
            cases += 1
    assert cases >= 50
    print(f"criterion 10f: PASS (power representations on {cases} cases)")
