import math
import random

import pytest

from periodpoly import partitions
from periodpoly.fields import build_field
from periodpoly.partitions import (
    cornacchia,
    partition_a,
    partition_c,
    partition_records,
    power_representation,
)


def test_cornacchia_examples():
    assert cornacchia(3) == (1, 1)
    assert cornacchia(5) == (1, 2)
    assert cornacchia(11) == (3, 1)
    with pytest.raises(ValueError):
        cornacchia(7)  # 7 = 7 mod 8
    with pytest.raises(ValueError):
        cornacchia(17)  # p = 1 (mod 8) has both representations, but neither family uses them


def test_cornacchia_many_primes():
    from periodpoly.intmath import is_prime

    count = 0
    for p in range(3, 3000):
        if not is_prime(p):
            continue
        if p % 8 == 3:
            a, b = cornacchia(p)
            assert a > 0 and b > 0 and a * a + 2 * b * b == p
            count += 1
        if p % 8 == 5:
            a, b = cornacchia(p)
            assert a % 2 == 1 and a * a + b * b == p
            count += 1
    assert count >= 50


def test_power_representation_examples():
    a, b = power_representation(3, 4)
    assert (abs(a), abs(b)) == (7, 4) and a * a + 2 * b * b == 81
    a, b = power_representation(3, 2)
    assert (abs(a), abs(b)) == (1, 2)
    a, b = power_representation(5, 2)
    assert (abs(a), abs(b)) == (3, 4)
    # first coordinate is odd and coprime to p in all cases
    for p, d in ((3, 2), (11, 2), (19, 2), (5, 1), (13, 1), (29, 1)):
        for k in range(1, 7):
            a, b = power_representation(p, k)
            assert a % 2 == 1
            assert a % p != 0
            assert a * a + d * b * b == p**k


def test_partition_a_known_values():
    ctx = build_field(3, 8)
    rec3 = partition_a(ctx, 3)
    assert (rec3.first, abs(rec3.second), rec3.exponent) == (7, 4, 4)
    rec4 = partition_a(ctx, 4)
    assert (rec4.first, abs(rec4.second), rec4.exponent) == (-1, 2, 2)
    ctx34 = build_field(3, 4)
    rec3 = partition_a(ctx34, 3)
    assert (rec3.first, abs(rec3.second)) == (-1, 2)
    rec4 = partition_a(ctx34, 4)
    assert (rec4.first, abs(rec4.second)) == (-1, 1)


def test_partition_c_known_values():
    ctx = build_field(5, 4)
    rec2 = partition_c(ctx, 2)
    assert (rec2.first, abs(rec2.second)) == (-3, 4)
    rec3 = partition_c(ctx, 3)
    assert (rec3.first, abs(rec3.second)) == (1, 2)
    ctx132 = build_field(13, 2)
    rec = partition_c(ctx132, 2)
    assert (rec.first, abs(rec.second)) == (-3, 2)
    ctx58 = build_field(5, 8)
    assert (partition_c(ctx58, 2).first, abs(partition_c(ctx58, 2).second)) == (-7, 24)
    assert (partition_c(ctx58, 3).first, abs(partition_c(ctx58, 3).second)) == (-3, 4)
    assert (partition_c(ctx58, 4).first, abs(partition_c(ctx58, 4).second)) == (1, 2)


def test_partition_preconditions():
    ctx = build_field(5, 4)
    with pytest.raises(ValueError):
        partition_a(ctx, 3)  # p = 5 mod 8
    with pytest.raises(ValueError):
        partition_c(ctx, 4)  # 2^3 does not divide 4
    ctx3 = build_field(3, 4)
    with pytest.raises(ValueError):
        partition_c(ctx3, 2)
    with pytest.raises(ValueError):
        partition_a(ctx3, 2)
    with pytest.raises(ValueError):
        partition_a(ctx3, 5)  # 2^3 does not divide 4


def test_defining_identities_and_congruences():
    cases = 0
    for p, s in ((3, 2), (3, 4), (3, 8), (3, 16), (11, 2), (11, 4), (11, 8), (19, 2), (19, 4), (19, 8), (43, 2), (43, 4), (59, 2)):
        ctx = build_field(p, s)
        q = ctx.q
        u = ctx.gamma ** ((q - 1) // 8) + ctx.gamma ** (3 * (q - 1) // 8)
        assert u.in_prime_field()
        assert (u.coords[0] ** 2 + 2) % p == 0  # u is a square root of -2
        for r in range(3, 10):
            if s % (1 << (r - 2)):
                continue
            rec = partition_a(ctx, r)
            assert rec.first**2 + 2 * rec.second**2 == p**rec.exponent
            assert rec.first % 4 == 3
            assert rec.first % p != 0
            assert (2 * rec.second - rec.first * u.coords[0]) % p == 0
            cases += 1
    for p, s in ((5, 2), (5, 4), (5, 8), (5, 16), (13, 2), (13, 4), (13, 8), (29, 2), (29, 4), (29, 8), (37, 2), (53, 2), (61, 2)):
        ctx = build_field(p, s)
        q = ctx.q
        v = ctx.gamma ** ((q - 1) // 4)
        assert v.in_prime_field()
        assert (v.coords[0] ** 2 + 1) % p == 0  # v is a square root of -1
        for r in range(2, 10):
            if s % (1 << (r - 1)):
                continue
            rec = partition_c(ctx, r)
            assert rec.first**2 + rec.second**2 == p**rec.exponent
            assert rec.first % 4 == 1
            assert rec.first % p != 0
            assert (rec.second * v.coords[0] - rec.first) % p == 0
            cases += 1
    assert cases >= 50


def test_uniqueness_by_exhaustive_enumeration(enumerate_representations):
    # the congruence conditions pin exactly one representation (up to nothing)
    checked = 0
    for p, d, rmax in ((3, 2, 7), (11, 2, 4), (19, 2, 4), (43, 2, 3), (5, 1, 7), (13, 1, 5), (29, 1, 4), (37, 1, 3)):
        for k in range(1, rmax + 1):
            n = p**k
            reps = enumerate_representations(n, d)
            primitive = [(a, b) for a, b in reps if a % p != 0 and a % 2 == 1]
            # exactly one unordered primitive pair with odd first coordinate
            assert len(primitive) == 1, (p, d, k, reps)
            a, b = primitive[0]
            got = power_representation(p, k)
            assert (abs(got[0]), abs(got[1])) == (a, b)
            checked += 1
    assert checked >= 30


def test_gamma_stability(with_generator):
    # a different generator can flip only the sign of the second coordinate
    for p, s, rs in ((3, 4, (3, 4)), (5, 4, (2, 3)), (3, 8, (3, 4, 5)), (5, 8, (2, 3, 4))):
        ctx = build_field(p, s)
        fn = partition_a if p % 8 == 3 else partition_c
        base = {r: fn(ctx, r) for r in rs}
        rng = random.Random(41)
        flips = 0
        for _ in range(6):
            c = rng.randrange(3, ctx.q - 1, 2)
            while math.gcd(c, ctx.q - 1) != 1:
                c += 2
            alt = with_generator(ctx, ctx.gamma**c)
            for r in rs:
                rec = fn(alt, r)
                assert rec.first == base[r].first
                assert abs(rec.second) == abs(base[r].second)
                if rec.second != base[r].second:
                    flips += 1
        assert flips >= 0  # signs may or may not flip; magnitudes never change


def test_squaring_consistency():
    # (A_r, B_r) is the normalized square of (A_{r+1}, B_{r+1})
    for p, s in ((3, 4), (3, 8), (11, 4), (19, 4)):
        ctx = build_field(p, s)
        rs = [r for r in range(3, 10) if s % (1 << (r - 2)) == 0]
        recs = {r: partition_a(ctx, r) for r in rs}
        for r in rs:
            if r + 1 not in recs:
                continue
            hi = recs[r + 1]
            lo = recs[r]
            first_sq = hi.first**2 - 2 * hi.second**2
            second_sq = 2 * hi.first * hi.second
            assert abs(lo.first) == abs(first_sq)
            assert abs(lo.second) == abs(second_sq)
            assert lo.first == (first_sq if first_sq % 4 == 3 else -first_sq)
    # the sharper identity: when 2^{m-2} || s, A_{m-1} = A_m^2 - 2 B_m^2 exactly
    ctx = build_field(3, 4)  # s = 4, ord2 = 2, m = 4
    a4 = partition_a(ctx, 4)
    a3 = partition_a(ctx, 3)
    assert a3.first == a4.first**2 - 2 * a4.second**2
    for p, s in ((5, 4), (5, 8), (13, 4), (29, 4)):
        ctx = build_field(p, s)
        rs = [r for r in range(2, 10) if s % (1 << (r - 1)) == 0]
        recs = {r: partition_c(ctx, r) for r in rs}
        for r in rs:
            if r + 1 not in recs:
                continue
            hi, lo = recs[r + 1], recs[r]
            first_sq = hi.first**2 - hi.second**2
            second_sq = 2 * hi.first * hi.second
            assert abs(lo.first) == abs(first_sq)
            assert abs(lo.second) == abs(second_sq)


@pytest.mark.parametrize("p, s, rs", [(3, 8, [3, 4, 5]), (11, 4, [3, 4]), (5, 8, [2, 3, 4]), (13, 4, [2, 3])])
def test_partition_records_take_one_root_per_field(p, s, rs, monkeypatch):
    # the signing root depends only on the field: one power of gamma for all r, the same records as one call per r
    ctx = build_field(p, s)
    fn = partition_a if p % 8 == 3 else partition_c
    name = "_signing_root"
    root = getattr(partitions, name)
    calls = []
    monkeypatch.setattr(partitions, name, lambda c: calls.append(c) or root(c))
    assert partition_records(ctx, rs) == {r: fn(ctx, r) for r in rs}
    assert len(calls) == 1 + len(rs)  # one for the records, one per direct call
    assert partition_records(ctx, []) == {}
    with pytest.raises(ValueError):
        partition_records(ctx, rs + [rs[-1] + 1])  # 2^{r-2} or 2^{r-1} no longer divides s
    assert len(calls) == 1 + len(rs)  # the range is checked before the root is taken


def test_record_serialization():
    ctx = build_field(3, 8)
    rec = partition_a(ctx, 3)
    d = rec.to_json_dict()
    assert d["kind"] == "A" and d["r"] == 3
    assert d["first"] == "7" and d["pk"] == "81"
    assert d["second"] in ("4", "-4")
    assert d["gamma"] == ctx.gamma_fingerprint()
