import functools
import itertools
import math
import random

import numpy as np
import pytest
from conftest import _floyd_rho, _poly_powmod, _prime_field_value

from periodpoly import fields, intmath
from periodpoly.fields import (
    FieldCtx,
    FieldElem,
    FieldError,
    _discriminant,
    _factor_q_minus_1,
    _irreducible_binomials,
    _order_defect,
    _resultant,
    build_field,
    find_generator,
    find_irreducible_modulus,
    is_irreducible,
)
from periodpoly.intmath import factorize, is_prime, legendre, ord2, power
from periodpoly.periods import trace_spectrum


def frobenius_irreducible(f, p):
    """Reference test: x^{p^s} = x (mod f) and gcd(x^{p^{s/l}} - x, f) = 1 for every prime l | s."""
    s = len(f) - 1
    x = [0, 1] + [0] * (s - 2)

    def frob_iter(k):
        r = list(x)
        for _ in range(k):
            r = _poly_powmod(r, p, f, p)
        return r

    if s == 1:
        return True
    if frob_iter(s) != x:
        return False
    return all(
        _resultant(f, [u - v for u, v in zip(frob_iter(s // ell), x)], p) for ell, _ in factorize(s)
    )


def schoolbook_mulmod(a, b, modulus, p):
    """Reference product: (a * b) mod modulus over F_p, schoolbook, reducing mod p on every add."""
    s = len(modulus) - 1
    out = [0] * (2 * s - 1) if s > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, s - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(s):
                out[i - s + j] = (out[i - s + j] - c * modulus[j]) % p
    return out[:s]


def dense_irreducible(p, s, seed, draws=1000):
    """A monic irreducible of degree s over F_p with every coefficient nonzero, from at most `draws` draws."""
    rng = random.Random(seed)
    for _ in range(draws):
        f = tuple(rng.randrange(1, p) for _ in range(s)) + (1,)
        if is_irreducible(f, p):
            return f
    raise RuntimeError(f"no irreducible among {draws} dense draws of degree {s} over F_{p}")


MERSENNE_31 = 2**31 - 1

def monic(s, terms):
    """x^s + sum of c*x^i over the items (i, c) of terms, the inverse of sparse below."""
    f = [0] * s + [1]
    for i, c in terms.items():
        f[i] = c
    return tuple(f)


# (p, s, build), build() making the modulus: s = 1 and s = 2, binomials, trinomials and
# dense moduli, small and large p. The binomials and trinomials are the modulus search's
# picks, written out. The tests build the moduli, so a broken is_irreducible fails them
# instead of hanging the collection
KERNEL_MODULI = [
    (3, 1, lambda: (1, 1)),
    (13, 1, lambda: (11, 1)),
    (5, 2, lambda: (2, 0, 1)),
    (3, 2, lambda: (2, 1, 1)),
    (5, 16, lambda: monic(16, {0: 2})),  # binomial x^16 + 2
    (13, 32, lambda: monic(32, {0: 2})),  # binomial x^32 + 2
    (3, 14, lambda: monic(14, {0: 2, 1: 1})),  # trinomial x^14 + x + 2
    (11, 64, lambda: monic(64, {0: 8, 3: 1})),  # trinomial x^64 + x^3 + 8
    (7, 9, lambda: dense_irreducible(7, 9, seed=1)),
    (3, 20, lambda: dense_irreducible(3, 20, seed=2)),
    (MERSENNE_31, 1, lambda: (7, 1)),
    (MERSENNE_31, 2, lambda: dense_irreducible(MERSENNE_31, 2, seed=3)),
    (MERSENNE_31, 5, lambda: dense_irreducible(MERSENNE_31, 5, seed=4)),
]
KERNEL_IDS = [f"{p}-{s}" for p, s, _ in KERNEL_MODULI]


@functools.cache
def kernel_modulus(build, s):
    """The modulus that a KERNEL_MODULI entry's build() makes, once for both kernel tests."""
    modulus = build()
    assert len(modulus) == s + 1 and modulus[-1] == 1
    return modulus


@pytest.mark.parametrize("p, s, build", KERNEL_MODULI, ids=KERNEL_IDS)
def test_field_kernel_matches_schoolbook(p, s, build):
    # FieldElem products through _mul; the Mersenne-31 entries run it on Python ints
    modulus = kernel_modulus(build, s)
    ctx, rng = bare_field(p, s, modulus), random.Random(p * s)
    top = [p - 1] * s  # top * top has the coefficient s*(p-1)^2 at degree s-1, the largest _mul's dtype must hold
    pairs = [(top, list(top)), (top, [1] + [0] * (s - 1)), ([0] * s, top)]
    for _ in range(60):
        pairs.append(([rng.randrange(p) for _ in range(s)], [rng.randrange(p) for _ in range(s)]))
        # coefficients outside [0, p), negative ones too, act as their residues through FieldElem
        pairs.append(tuple([rng.randrange(-3 * p, 3 * p) for _ in range(s)] for _ in range(2)))
    for a, b in pairs:
        x, y = FieldElem(ctx, a), FieldElem(ctx, b)
        assert list((x * y).coords) == schoolbook_mulmod(a, b, modulus, p), (a, b)
        assert list((x * x).coords) == schoolbook_mulmod(a, a, modulus, p), a  # a square: the same object twice


@pytest.mark.parametrize("p, s, build", KERNEL_MODULI, ids=KERNEL_IDS)
def test_poly_powmod_matches_repeated_schoolbook(p, s, build):
    modulus = kernel_modulus(build, s)
    rng = random.Random(p + s)
    one = [1] + [0] * (s - 1)
    exponents = (0, 1, 2, 3) + ((p,) if p < 100 else ())  # e = p is Ben-Or's and the Frobenius's power
    for length in sorted({1, max(1, s // 2), s}):  # inputs shorter than s, as Ben-Or's x = [0, 1, ...]
        a = [rng.randrange(-p, 2 * p) for _ in range(length)]
        want = one
        for e in range(max(exponents) + 1):
            if e in exponents:
                got = _poly_powmod(a, e, modulus, p)
                assert got == want and got is not a, (a, e)
                assert len(got) == s and all(0 <= c < p for c in got)
            want = schoolbook_mulmod(want, [c % p for c in a], modulus, p)


def schoolbook_power(coords, e, modulus, p):
    """Reference g^e: intmath.power's square-and-multiply over schoolbook_mulmod."""
    s = len(modulus) - 1
    return power(list(coords), e, lambda u, v: schoolbook_mulmod(u, v, modulus, p), [1] + [0] * (s - 1))


def bare_field(p, s, modulus):
    """F_p[x]/(modulus) with gamma = 1 and no factorization of q - 1: enough for products and powers."""
    return FieldCtx(p, modulus, (1,) + (0,) * (s - 1), ())


# (p, s, build) for the power tests: s = 1 and s = 2, the binomial and trinomial of two big
# fields, a dense subfield modulus (the minimal polynomial of the norm of build_field(13, 8)'s
# gamma onto F_{13^4}), a large p, and a p where s*(p-1)^2 >= 2^63 puts the kernel on Python ints
POWER_FIELDS = [
    (13, 1, lambda: (11, 1)),
    (5, 2, lambda: (2, 0, 1)),
    (3, 64, lambda: monic(64, {0: 2, 3: 1})),
    (13, 32, lambda: monic(32, {0: 2})),
    (13, 4, lambda: (11, 4, 5, 10, 1)),
    (1000003, 4, lambda: monic(4, {0: 1, 1: 1})),
    (MERSENNE_31, 5, lambda: dense_irreducible(MERSENNE_31, 5, seed=4)),
]


@pytest.mark.parametrize("p, s, build", POWER_FIELDS, ids=[f"{p}-{s}" for p, s, _ in POWER_FIELDS])
def test_power_by_frobenius_digits_matches_square_and_multiply(p, s, build):
    modulus = build()
    assert is_irreducible(modulus, p)
    # Python ints exactly where s*(p-1)^2 >= 2^63: here only at p = 2^31 - 1, s = 5
    assert fields._reduction(modulus, p).dtype == (object if p == MERSENNE_31 else np.int64)
    ctx, q = bare_field(p, s, modulus), p**s
    rng = random.Random(p * s)
    exponents = [0, 1, p - 1, p, p + 1, q - 2, q - 1, q, 3 * q + 5] + [rng.randrange(q) for _ in range(2)]
    for g in (FieldElem(ctx, [rng.randrange(p) for _ in range(s)]), ctx.from_int(0)):
        for e in exponents:
            assert (g**e).coords == tuple(schoolbook_power(g.coords, e, modulus, p)), (g, e)


def test_build_prime_field():
    ctx = build_field(3, 1)
    assert ctx.modulus == (0, 1)
    assert ctx.gamma.coords == (2,)  # 2 generates F_3^*
    ctx5 = build_field(5, 1)
    assert ctx5.gamma.coords == (2,)  # 2 generates F_5^*


def test_build_f9():
    ctx = build_field(3, 2)
    assert ctx.modulus == (1, 0, 1)  # x^2 + 1, -1 a non-residue mod 3
    assert ctx.gamma.coords == (1, 1)  # x + 1 has order 8
    one = ctx.one()
    orders = [k for k in range(1, 9) if ctx.gamma**k == one]
    assert orders == [8]


def test_build_f5_4_irreducibility_oracle():
    ctx = build_field(5, 4)
    assert is_irreducible(ctx.modulus, 5)
    assert len(ctx.modulus) == 5 and ctx.modulus[-1] == 1


def test_build_rejects_bad_input():
    with pytest.raises(FieldError):
        build_field(9, 2)
    with pytest.raises(FieldError):
        build_field(2, 3)
    with pytest.raises(FieldError):
        build_field(5, 0)
    with pytest.raises(FieldError):
        build_field(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = x^2 - 1 reducible
    # empty, constant and degree-3 moduli for s = 2: the length is checked before any entry is read
    for modulus in ((), (1,), (2, 1, 0, 1)):
        with pytest.raises(FieldError, match="monic of degree s"):
            build_field(3, 2, modulus=modulus)


def test_is_irreducible_matches_frobenius_reference():
    # every monic polynomial of degree <= 5 over F_3, <= 4 over F_5, <= 3 over F_7, F_11, F_13
    checked = 0
    for p, top in ((3, 5), (5, 4), (7, 3), (11, 3), (13, 3)):
        for s in range(1, top + 1):
            for low in itertools.product(range(p), repeat=s):
                f = low + (1,)
                assert is_irreducible(f, p) == frobenius_irreducible(f, p), (p, f)
                checked += 1
    assert checked == 5384
    with pytest.raises(FieldError):
        is_irreducible((1, 2), 3)  # not monic
    with pytest.raises(FieldError):
        is_irreducible((1,), 3)  # degree 0


def test_is_irreducible_over_f2_matches_frobenius_reference():
    # the closed-form witness search asks at l = 2, where the parity pre-test is disc != 0 alone
    found = 0
    for s in range(1, 9):
        for low in itertools.product(range(2), repeat=s):
            want = frobenius_irreducible(low + (1,), 2)
            assert is_irreducible(low + (1,), 2) == want, low
            found += want
    assert found == 2 + 1 + 2 + 3 + 6 + 9 + 18 + 30  # the irreducibles of degree 1 .. 8


def divmod_mod_p(f, g, p):
    """(quotient, remainder) of f by the monic g over F_p, little-endian lists."""
    f, dg = [c % p for c in f], len(g) - 1
    quot = [0] * max(0, len(f) - dg)
    for i in range(len(f) - 1, dg - 1, -1):
        c = quot[i - dg] = f[i]
        for j in range(dg + 1):
            f[i - dg + j] = (f[i - dg + j] - c * g[j]) % p
    return quot, f[:dg]


def sylvester_discriminant(f, p):
    """Reference disc f in F_p: (-1)^{s(s-1)/2} times the Sylvester determinant of f and f',
    at the actual degree of f' (a monic f makes Res(f, f') the product of f' over its roots)."""
    s = len(f) - 1
    g = [k * c % p for k, c in enumerate(f)][1:]
    while g and not g[-1]:
        g.pop()
    if not g:
        return 0
    d = len(g) - 1
    rows = [[0] * i + list(f[::-1]) + [0] * (d - 1 - i) for i in range(d)]
    rows += [[0] * j + g[::-1] + [0] * (s - 1 - j) for j in range(s)]
    det = 1
    for col in range(s + d):  # Gaussian elimination mod p
        piv = next((r for r in range(col, s + d) if rows[r][col] % p), None)
        if piv is None:
            return 0
        if piv != col:
            rows[col], rows[piv], det = rows[piv], rows[col], -det
        det = det * rows[col][col] % p
        inv = pow(rows[col][col], -1, p)
        for r in range(col + 1, s + d):
            k = rows[r][col] * inv % p
            rows[r] = [(x - k * y) % p for x, y in zip(rows[r], rows[col])]
    return (-1) ** (s * (s - 1) // 2) * det % p


def test_discriminant_parity_counts_irreducible_factors():
    # Stickelberger: a squarefree f of degree s with r irreducible factors over F_p has
    # (disc f | p) = (-1)^{s-r}; a repeated factor gives disc f = 0. Degree 3 over F_3 is
    # the p | s case, where f' drops degree (x^3 + x + 1) or vanishes (x^3 + 1).
    checked = squarefree = 0
    for p, top in ((3, 5), (5, 4)):
        monic = [low + (1,) for s in range(1, top + 1) for low in itertools.product(range(p), repeat=s)]
        irreducibles = [f for f in monic if frobenius_irreducible(f, p)]

        @functools.cache
        def factor_count(f):
            """(r, squarefree) for monic f: irreducible factors with multiplicity, by trial division."""
            if len(f) == 1:
                return 0, True
            g = next(g for g in irreducibles if not any(divmod_mod_p(f, g, p)[1]))
            quot = tuple(divmod_mod_p(f, g, p)[0])
            r, sq = factor_count(quot)
            return r + 1, sq and any(divmod_mod_p(quot, g, p)[1])

        for f in monic:
            s = len(f) - 1
            r, sq = factor_count(f)
            disc = _discriminant(f, p)
            assert disc == sylvester_discriminant(f, p), (p, f)
            if sq:
                assert legendre(disc, p) == (-1) ** (s - r), (p, f, r)
                squarefree += 1
            else:
                assert disc == 0, (p, f)
            checked += 1
    assert checked == 363 + 780
    assert squarefree == 243 + 625  # p^s - p^{s-1} monic squarefree polynomials of degree s >= 2, p of degree 1


def spy(monkeypatch, name):
    """The calls of fields.<name> from here on, each as its tuple of positional arguments."""
    real, calls = getattr(fields, name), []
    monkeypatch.setattr(fields, name, lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs))
    return calls


def test_modulus_search_at_11_16_ben_or_rounds(monkeypatch):
    # 302 trinomials are scanned. 155 have a root in F_11 and are decided by their values,
    # with no resultant; the other 147 take a discriminant, and 96 of them fail its parity.
    # The 51 left take 83 Ben-Or checks at rounds 2, 4 and 5: 230 resultants in all (516
    # when round 1 was a resultant after the parity). p^2 >= s, so the rounds past the
    # monomial x^11 are powers, no Frobenius table is built, and one reduction matrix is
    # built per candidate that reaches round 2: 51
    scanned, discs = spy(monkeypatch, "is_irreducible"), spy(monkeypatch, "_discriminant")
    resultants, columns = spy(monkeypatch, "_resultant"), spy(monkeypatch, "_power_columns")
    fields._reduction.cache_clear()
    assert sparse(find_irreducible_modulus(11, 16)) == PINNED_FIELDS[11, 16][0]  # x^16 + x^4 + 2
    assert (len(scanned), len(discs), len(resultants)) == (302, 147, 230)
    assert [count for _, _, count in columns] == [31] * 51  # every one a reduction matrix, 2s - 1 columns
    assert fields._reduction.cache_info().misses == 51


def test_modulus_search_at_3_64_resultants(monkeypatch):
    # four of the ten candidates have a root in F_3 and take no resultant; the others take one
    # for the discriminant, then one per dyadic interval of Ben-Or rounds from round 2: 27 in
    # all (36 when round 1 was a resultant, 96 with one per round)
    calls = spy(monkeypatch, "_resultant")
    assert sparse(find_irreducible_modulus(3, 64)) == PINNED_FIELDS[3, 64][0]  # x^64 + x^3 + 2
    assert 0 < len(calls) <= 27


def poly_mul_mod_p(a, b, p):
    """a * b over F_p, little-endian lists, schoolbook."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return out


@functools.cache
def reference_irreducibles(p, k, count=3):
    """`count` distinct monic irreducibles of degree k over F_p, from seeded draws, by the reference
    test; draws of the wrong discriminant parity (reducible, by Stickelberger) skip it."""
    rng, found = random.Random(p * 100 + k), set()
    while len(found) < count:
        f = tuple(rng.randrange(p) for _ in range(k)) + (1,)
        if legendre(_discriminant(f, p), p) == (-1) ** (k - 1) and frobenius_irreducible(f, p):
            found.add(f)
    return sorted(found)


@pytest.mark.parametrize("s", (12, 14, 15, 16, 22))
@pytest.mark.parametrize("p", (3, 5, 11, 23))
def test_ben_or_checks_every_interval(p, s):
    # a product of three distinct irreducibles is squarefree with r = 3 factors, so it passes
    # the parity pre-test and only Ben-Or rejects it. Its least factor has degree d (the
    # others s - d split in two, both >= d), caught at the first check at or past round d:
    # d runs over every round 1 .. s/3, the last check included (5, 6 and 7 at s = 22).
    # p = 3, 5, 11 and 23 give x^p a monomial below x^s, or not
    for d in range(1, s // 3 + 1):
        degrees = (d, (s - d) // 2, s - d - (s - d) // 2)
        f = [1]
        for k in set(degrees):
            for g in reference_irreducibles(p, k)[: degrees.count(k)]:
                f = poly_mul_mod_p(f, list(g), p)
        f = tuple(f)
        assert len(f) == s + 1 and not frobenius_irreducible(f, p), (p, s, d)
        assert not is_irreducible(f, p), (p, s, d)
    f = reference_irreducibles(p, s, count=1)[0]
    assert is_irreducible(f, p), (p, s, f)


def sparse(coords):
    return {i: c for i, c in enumerate(coords) if c}


# (p, s) -> nonzero coefficients of the modulus and of gamma's coordinates
PINNED_FIELDS = {
    (3, 5): ({0: 1, 1: 2, 5: 1}, {1: 1}),
    (7, 3): ({0: 2, 3: 1}, {0: 1, 1: 3}),
    (11, 16): ({0: 2, 4: 1, 16: 1}, {0: 4, 1: 1, 2: 1}),
    (13, 32): ({0: 2, 32: 1}, {0: 2, 1: 1}),
    (3, 64): ({0: 2, 3: 1, 64: 1}, {1: 1}),
    (13, 6): ({0: 2, 6: 1}, {1: 1, 2: 1}),
    (3, 16): ({0: 2, 4: 1, 16: 1}, {0: 2, 2: 1, 3: 1}),
    (5, 16): ({0: 2, 16: 1}, {0: 1, 1: 1}),
    (13, 8): ({0: 2, 8: 1}, {0: 2, 1: 1}),
    (3, 128): ({0: 2, 6: 1, 128: 1}, {1: 1, 2: 1}),
    # reach fields: 29^64 - 1 has large factors; no binomial of degree 4 is irreducible mod 1000003 = 3 (mod 4)
    (29, 64): ({0: 2, 64: 1}, {0: 1, 1: 1}),
    (1000003, 4): ({0: 1, 1: 1, 4: 1}, {0: 8, 1: 1}),
}


@pytest.mark.parametrize("p, s", sorted(PINNED_FIELDS))
def test_q_minus_1_factorization_on_pinned_fields(p, s, monkeypatch):
    fac = _factor_q_minus_1(p, s)
    with monkeypatch.context() as m:  # Floyd's rho, the loop Brent's search replaced, agrees
        m.setattr(intmath, "_pollard_rho", _floyd_rho)
        assert _factor_q_minus_1(p, s) == fac
    assert math.prod(ell**v for ell, v in fac) == p**s - 1
    assert all(is_prime(ell) and v >= 1 for ell, v in fac)
    assert all(a < b for (a, _), (b, _) in zip(fac, fac[1:]))
    # so fac is the factorization of p^s - 1. Here factorize(p^s - 1) alone takes minutes:
    # Pollard rho then meets the large primes of several Phi_d(p) in one number
    if (p, s) not in ((3, 128), (29, 64)):
        assert fac == factorize(p**s - 1)


@pytest.mark.parametrize("p, s", sorted(PINNED_FIELDS))
def test_pinned_modulus_and_generator(p, s):
    # the digests carry gamma's fingerprint, so construction must not drift
    ctx = build_field(p, s)
    assert (sparse(ctx.modulus), sparse(ctx.gamma.coords)) == PINNED_FIELDS[p, s]
    assert is_irreducible(ctx.modulus, p)
    assert order_defect_reference(ctx.gamma) is None


def frobenius_builds(monkeypatch, modulus, p, sides=(True, False)):
    """F built afresh on each side of the table rule: read off the power table (True) and by
    s - 1 products (False)."""
    out = []
    for by_table in sides:
        with monkeypatch.context() as m:
            m.setattr(fields, "_frobenius_by_table", lambda modulus, p, by_table=by_table: by_table)
            out.append(fields._frobenius.__wrapped__(modulus, p))
    return out


def check_frobenius_columns(frob, modulus, p):
    """Column j of F is coords(x^{pj}) = coords((x^j)^p), by square-and-multiply."""
    s = len(modulus) - 1
    assert frob.shape == (s, s) and frob.dtype == np.int64
    for j in range(s):
        assert frob[:, j].tolist() == _poly_powmod([0] * j + [1], p, modulus, p), j


@pytest.mark.parametrize("p, s", sorted(PINNED_FIELDS))
def test_frobenius_matrix(p, s, monkeypatch):
    modulus = monic(s, {i: c for i, c in PINNED_FIELDS[p, s][0].items() if i < s})
    ctx = bare_field(p, s, modulus)
    frob = ctx.frobenius()
    assert frob is ctx.frobenius() and not frob.flags.writeable  # one cached matrix per field
    check_frobenius_columns(frob, modulus, p)
    # both builds give F; at p = 1000003 a table would have p(s - 1) = 3,000,009 columns
    for other in frobenius_builds(monkeypatch, modulus, p, sides=(False,) if p > 10**6 else (True, False)):
        assert np.array_equal(other, frob) and not other.flags.writeable
    eye = np.eye(s, dtype=np.int64)
    assert np.array_equal(power(frob, s, lambda a, b: a @ b % p, eye), eye)  # F^s = I (mod p)
    rng = random.Random(p * s)
    for _ in range(3):
        y = [rng.randrange(p) for _ in range(s)]
        assert (frob @ np.array(y) % p).tolist() == schoolbook_power(y, p, modulus, p)


def sparse_and_dense_moduli(p, s, seed):
    """A random monic x^s + b x^t + c with t <= s/2 and b, c != 0, and a random monic degree-s
    polynomial with every coefficient nonzero, over F_p. Neither need be irreducible: F, the
    matrix of y -> y^p on F_p[x]/(f), is defined for both."""
    rng = random.Random(seed)
    sparse_one = monic(s, {0: rng.randrange(1, p), rng.randrange(1, s // 2 + 1): rng.randrange(1, p)})
    return sparse_one, tuple(rng.randrange(1, p) for _ in range(s)) + (1,)


# (p, s) on both sides of p^2 < s, p = 2 included (Ben-Or's rounds at l = 2)
TABLE_RULE_SIDES = ((2, 9), (3, 10), (3, 40), (5, 30), (5, 12), (7, 9), (13, 20), (3, 9))


@pytest.mark.parametrize("p, s", TABLE_RULE_SIDES)
def test_frobenius_by_table_matches_products(p, s, monkeypatch):
    # the rule takes the table for a sparse modulus with p^2 < s, never for a dense one;
    # both builds give the same F on either side of it
    sparse_one, dense_one = sparse_and_dense_moduli(p, s, seed=p * s)
    assert fields._frobenius_by_table(sparse_one, p) == (p * p < s)
    assert not fields._frobenius_by_table(dense_one, p)
    for modulus in (sparse_one, dense_one):
        table, products = frobenius_builds(monkeypatch, modulus, p)
        assert np.array_equal(table, products), modulus
        check_frobenius_columns(table, modulus, p)


# (p, s, seed): int64 columns, and Python ints at p = 2147483693, where s*(p-1)^2 >= 2^63
POWER_COLUMN_FIELDS = ((3, 16, 1), (5, 40, 2), (13, 32, 3), (3, 64, 4), (2147483693, 4, 5))


@pytest.mark.parametrize("p, s, seed", POWER_COLUMN_FIELDS)
def test_power_columns_match_schoolbook_division(p, s, seed):
    # column n is x^n mod f entry for entry, for a sparse and a dense f, a binomial and a
    # modulus with no term below x^s among them; each column divides x times the last by f
    sparse_one, dense_one = sparse_and_dense_moduli(p, s, seed)
    for modulus in (sparse_one, dense_one, monic(s, {0: p - 2}), monic(s, {})):
        count = 3 * s + 2
        cols = fields._power_columns(modulus, p, count)
        assert cols.dtype == (object if p == 2147483693 else np.int64)
        x, want = [0, 1] + [0] * (s - 2), [1] + [0] * (s - 1)
        for n in range(count):
            assert cols[:, n].tolist() == want, (modulus, n)
            want = schoolbook_mulmod(want, x, modulus, p)


def test_scan_hands_its_frobenius_to_the_field(monkeypatch):
    # at (3, 64) the rule holds, so Ben-Or's rounds past x^27 are products by the candidate's
    # F: five candidates reach them, and the last F built is the accepted modulus's. The
    # field, its generator search included, builds no other, and that F is a fresh build
    fields._frobenius.cache_clear()
    ctx = build_field(3, 64)
    frob = ctx.frobenius()
    assert fields._frobenius.cache_info().misses == 5
    for fresh in frobenius_builds(monkeypatch, ctx.modulus, 3):
        assert np.array_equal(fresh, frob)


def test_no_power_table_at_large_p(monkeypatch):
    # at p = 1000003 the rule never holds: every power-columns matrix is a reduction matrix
    columns = spy(monkeypatch, "_power_columns")
    fields._reduction.cache_clear()
    fields._frobenius.cache_clear()
    ctx = build_field(1000003, 4)
    assert ctx.frobenius().shape == (4, 4) and not fields._frobenius_by_table(ctx.modulus, 1000003)
    assert columns and all(count == 7 for _, _, count in columns)


def test_root_values_decide_round_one():
    # f @ (a^k mod p) holds f(a) for each a in F_p, and f has a root in F_p exactly when
    # Res(f, x^p - x) = 0, Ben-Or's round 1: every monic f of degree 2 .. 6 over F_2, F_3, F_5.
    # is_irreducible reads round 1 off these values when p < s, and rejects every f with a root
    checked = 0
    for p in (2, 3, 5):
        xp_minus_x = [0, -1] + [0] * (p - 2) + [1]
        for s in range(2, 7):
            table = fields._power_values(s, p)
            assert table.shape == (s + 1, p) and table.dtype == np.int64
            for low in itertools.product(range(p), repeat=s):
                f = low + (1,)
                values = np.array(f) @ table % p
                assert values.tolist() == [sum(c * a**k for k, c in enumerate(f)) % p for a in range(p)], f
                assert values.all() == bool(_resultant(f, xp_minus_x, p)), (p, f)
                assert values.all() or not is_irreducible(f, p), (p, f)
                checked += 1
    assert checked == 124 + 1089 + 19525


CHAIN_FIELDS = [(p, s, build) for p, s, build in POWER_FIELDS if p in (3, 13, 1000003)]


@pytest.mark.parametrize("p, s, build", CHAIN_FIELDS, ids=[f"{p}-{s}" for p, s, _ in CHAIN_FIELDS])
def test_digit_chain_powers_with_distinct_digits(p, s, build):
    # the powers g^d of the distinct base-p digits are one ascending chain, each the one below
    # times the gap's power. Every exponent here has distinct digits, so its chain is as long
    # as it gets: every order of 0, 1, 2 at p = 3, all of 1 .. 12 at p = 13, and four random
    # digits at p = 1000003
    modulus = build()
    ctx, rng = bare_field(p, s, modulus), random.Random(p + s)
    if p == 3:
        digit_lists = [d for d in itertools.permutations(range(3)) if d[-1]]
    else:
        digit_lists = [rng.sample(range(1, p), 12 if p == 13 else 4) for _ in range(3)]
    g = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
    for digits in digit_lists:
        e = sum(d * p**i for i, d in enumerate(digits))
        assert (g**e).coords == tuple(schoolbook_power(g.coords, e, modulus, p)), (digits, e)


def test_power_products_by_digit_chain(monkeypatch):
    # each distinct digit's power takes its own square-and-multiply chain, bitlen + popcount - 2
    # products, unless the gap from the digit below plus one product is cheaper; then one
    # product per nonzero digit below the top. g^(1 + 8*13): g^8 by its own chain in 3 (from
    # g^1, the gap 7 takes 4 and the step 1), then 1. Digits 1 .. 12: g^2 in 1, a tie that
    # goes to its own chain, each later digit in 1 from the one below, then 11. (q-1)/2 over
    # F_{3^64} is 64 digits 1: 63 products after the Frobenius ones
    ctx13, ctx3 = build_field(13, 4), build_field(3, 64)
    cases = [
        (ctx13, 1 + 8 * 13, 4),
        (ctx13, 1 + 12 * 13, 5),
        (ctx13, sum(d * 13 ** (d - 1) for d in range(1, 13)), 22),
        (ctx3, (ctx3.q - 1) // 2, 63),
    ]
    for ctx, _, _ in cases:
        ctx.frobenius()  # cached before the spy: at (13, 4) F is built by products
    calls = spy(monkeypatch, "_mul")
    for ctx, e, products in cases:
        calls.clear()
        y = ctx.gamma**e
        assert len(calls) == products, e
        if ctx is ctx3:
            assert y == -ctx3.one()  # gamma generates, so its (q-1)/2 power is -1
        else:
            assert y.coords == tuple(schoolbook_power(ctx.gamma.coords, e, ctx.modulus, ctx.p)), e


@pytest.mark.parametrize("p, s", ((3, 64), (13, 32), (11, 16), (5, 16)))
def test_subfield_matches_the_power_and_the_product_of_conjugates(p, s):
    # the reference is the norm as one power, gamma^{(q-1)/(q0-1)} by square-and-multiply over
    # schoolbook products, then its minimal polynomial prod_{i<k} (X - g0^{p^i}) over F_q
    ctx = build_field(p, s)
    f, one = ctx.modulus, [1] + [0] * (s - 1)
    mul = lambda u, v: schoolbook_mulmod(u, v, f, p)
    for k in (k for k in range(1, s + 1) if s % k == 0):
        conj = FieldElem(ctx, power(list(ctx.gamma.coords), (ctx.q - 1) // (p**k - 1), mul, one))
        f0 = [ctx.one()]
        for _ in range(k):
            f0 = [-(conj * f0[0])] + [a + -(conj * b) for a, b in zip(f0[:-1], f0[1:])] + [f0[-1]]
            conj = FieldElem(ctx, power(list(conj.coords), p, mul, one))
        modulus = tuple(_prime_field_value(c) for c in f0)
        sub = ctx.subfield(k)
        assert sub.modulus == modulus, k
        assert list(sub.gamma.coords) == (divmod_mod_p([0, 1], modulus, p)[1] + [0] * k)[:k], k  # x mod f0


def test_modulus_search_deterministic():
    assert find_irreducible_modulus(3, 2) == (1, 0, 1)
    assert find_irreducible_modulus(3, 4) == find_irreducible_modulus(3, 4)


def test_modulus_search_last_stage():
    # over F_3, degree 49 has no irreducible binomial and none of its 192 trinomials
    # x^49 + b*x^t + c is irreducible, so the scan ends at its last stage: every monic
    # polynomial by ascending packed key sum(c_i * 3^i)
    p, s = 3, 49
    assert not list(fields._irreducible_binomials(s, p))
    trinomials = [
        (c,) + (0,) * (t - 1) + (b,) + (0,) * (s - t - 1) + (1,)
        for t in range(1, s)
        for b in (1, 2)
        for c in (1, 2)
    ]
    assert len(trinomials) == 192 and not any(is_irreducible(f, p) for f in trinomials)
    f = find_irreducible_modulus(p, s)
    assert sparse(f) == {0: 1, 2: 1, 3: 2, 49: 1}  # x^49 + 2x^3 + x^2 + 1, packed key 64
    below = [tuple(key // p**i % p for i in range(s)) + (1,) for key in range(64)]
    assert not any(is_irreducible(g, p) for g in below)


def test_mul_example_f9():
    ctx = build_field(3, 2)
    x = FieldElem(ctx, (0, 1))
    assert (x * x) == ctx.from_int(-1)  # modulus relation x^2 = -1


def test_pow_lagrange_and_order_two():
    for p, s in ((3, 2), (5, 2), (3, 4), (13, 2)):
        ctx = build_field(p, s)
        q = ctx.q
        assert ctx.gamma ** (q - 1) == ctx.one()
        assert ctx.gamma ** ((q - 1) // 2) == ctx.from_int(-1)


def test_context_mismatch_errors():
    a = build_field(3, 2)
    b = build_field(5, 2)
    with pytest.raises(FieldError):
        _ = a.gamma * b.gamma
    with pytest.raises(FieldError):
        _ = a.gamma + b.gamma


def test_fields_mix_exactly_when_p_and_modulus_agree():
    # the same (p, s) under another irreducible modulus is another field: its elements do not mix
    a = build_field(3, 2)
    b = build_field(3, 2, modulus=(2, 1, 1))  # x^2 + x + 2
    assert a.modulus == (1, 0, 1) and (b.p, b.s, b.q) == (a.p, a.s, a.q)
    for x, y in ((a.gamma, b.gamma), (a.one(), b.one())):
        with pytest.raises(FieldError):
            _ = x * y
        with pytest.raises(FieldError):
            _ = x + y
        assert (x == y) is False
    # two separate builds of one field are one field, and so is a context with another gamma
    c = build_field(3, 2)
    assert c is not a and a.gamma * c.gamma == c.gamma**2 and a.gamma == c.gamma
    d = FieldCtx(a.p, a.modulus, (a.gamma**3).coords, a.q_minus_1_factorization)
    assert d.gamma == a.gamma**3 and (d.gamma * a.gamma).ctx is d


def test_negative_power_rejected():
    ctx = build_field(3, 2)
    for x in (ctx.from_int(0), ctx.gamma):
        with pytest.raises(ValueError):
            x**-1
    assert ctx.gamma ** (ctx.q - 2) * ctx.gamma == ctx.one()  # the inverse, as a positive power


def test_trace_basics(field_trace):
    for p, s in ((3, 2), (3, 4), (5, 2), (5, 4), (11, 2)):
        ctx = build_field(p, s)
        trace = field_trace(ctx)
        assert trace(ctx.one()) == s % p
        rng = random.Random(p * s)
        for _ in range(10):
            x = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
            y = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
            # Frobenius invariance and linearity
            assert trace(x**p) == trace(x)
            assert (trace(x) + trace(y)) % p == trace(x + y)


def test_trace_against_frobenius_sum(field_trace, frobenius_trace):
    # the trace row vs the defining sum x + x^p + ... + x^{p^{s-1}}
    for p, s in ((3, 3), (5, 2), (7, 2), (3, 4)):
        ctx = build_field(p, s)
        trace, reference = field_trace(ctx), frobenius_trace(ctx)
        rng = random.Random(s + p)
        for _ in range(12):
            x = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
            assert trace(x) == reference(x)


def frobenius_trace_row(ctx):
    """Reference trace row: row 0 of sum_{i<s} F^i, F the matrix of the p-power Frobenius."""
    s, p, modulus = ctx.s, ctx.p, ctx.modulus
    # Matrix of the p-power Frobenius: columns are coords of (x^i)^p
    frob = np.zeros((s, s), dtype=np.int64)
    xpow = _poly_powmod([0, 1] + [0] * (s - 2) if s > 1 else [1], p, modulus, p)
    col = [1] + [0] * (s - 1)
    for j in range(s):
        frob[:, j] = col
        col = schoolbook_mulmod(col, xpow, modulus, p)
    total = np.zeros((s, s), dtype=np.int64)
    acc = np.eye(s, dtype=np.int64)
    for _ in range(s):
        total = (total + acc) % p
        acc = acc @ frob % p
    return total[0, :].copy()


def test_newton_trace_row_matches_frobenius_reference():
    # fields and every subfield of them, so the row is checked on the minimal polynomials too
    checked = 0
    for p, s in itertools.product((3, 5, 7, 13), (1, 2, 3, 4, 6, 8, 12)):
        ctx = build_field(p, s)
        for k in (k for k in range(1, s + 1) if s % k == 0):
            field = ctx.subfield(k)
            for f in (field, ctx) if k == s else (field,):
                row = f.trace_row()
                assert row.dtype == np.int64 and row.tolist() == frobenius_trace_row(f).tolist(), (p, s, k)
                checked += 1
    assert checked == 116


def test_trace_spectrum_balanced(field_trace):
    for p, s in ((3, 2), (5, 2), (3, 3)):
        ctx = build_field(p, s)
        trace = field_trace(ctx)
        counts = {t: 0 for t in range(p)}
        for key in range(ctx.q):
            counts[trace(ctx.from_packed(key))] += 1
        assert all(counts[t] == p ** (s - 1) for t in range(p))


def test_subfield_norm():
    # the norm onto F_{p^k} is the power (q-1)/(p^k-1)
    ctx = build_field(3, 2)
    x = FieldElem(ctx, (0, 1))
    assert x**4 == ctx.one()  # x * x^3 = x^4 = 1
    assert ctx.one() ** 4 == ctx.one()
    ctx54 = build_field(5, 4)
    n = ctx54.gamma ** ((5**4 - 1) // (5**2 - 1))
    # the norm of a generator generates the subfield's multiplicative group
    q_sub = 25
    assert n ** (q_sub - 1) == ctx54.one()
    assert all(n ** ((q_sub - 1) // ell) != ctx54.one() for ell in (2, 3))
    # lands in the subfield: fixed by the p^{s_sub} power map
    assert n ** (5**2) == n


SUBFIELD_FIELDS = ((13, 4), (5, 6), (3, 8), (3, 64))


@pytest.mark.parametrize("p, s", SUBFIELD_FIELDS)
def test_subfield_is_the_field_of_the_norm(p, s):
    # x -> g0 = gamma^{(q-1)/(p^k-1)} embeds ctx.subfield(k) into ctx as a field,
    # and sends its generator gamma0 to g0
    ctx = build_field(p, s)
    rng = random.Random(p * s)
    for k in sorted({1, 2, s // 2, s}):
        sub = ctx.subfield(k)
        assert (sub.p, sub.s, sub.q) == (p, k, p**k)
        assert is_irreducible(sub.modulus, p)
        assert sub.q_minus_1_factorization == tuple(factorize(sub.q - 1))
        assert _order_defect(sub.gamma) is None
        g0 = ctx.gamma ** ((ctx.q - 1) // (sub.q - 1))
        powers = [ctx.one()]
        for _ in range(k - 1):
            powers.append(powers[-1] * g0)

        def embed(y):
            acc = ctx.from_int(0)
            for c, g in zip(y.coords, powers):
                acc = acc + FieldElem(ctx, (c * u for u in g.coords))
            return acc

        for _ in range(6):
            a, b = (FieldElem(sub, [rng.randrange(p) for _ in range(k)]) for _ in range(2))
            assert embed(a * b) == embed(a) * embed(b), (k, a, b)
        for a in (0, 1, 2, p, rng.randrange(sub.q - 1)):
            assert embed(sub.gamma**a) == g0**a, (k, a)


@pytest.mark.parametrize("p, s", SUBFIELD_FIELDS[:3])
def test_whole_field_as_subfield_has_the_same_spectrum(p, s):
    # the minimal polynomial of gamma is another modulus for the same field and gamma
    ctx = build_field(p, s)
    whole = ctx.subfield(s)
    assert whole.q == ctx.q
    e = 1 << min(4, ord2(ctx.q - 1))
    assert trace_spectrum(whole, e) == trace_spectrum(ctx, e)


@pytest.mark.parametrize("p, s", SUBFIELD_FIELDS)
def test_subfield_rejects_bad_degrees(p, s):
    ctx = build_field(p, s)
    for k in (0, -1, 3 if s % 3 else 4, s + 1, 2 * s):
        with pytest.raises(FieldError, match="does not divide"):
            ctx.subfield(k)


@pytest.mark.parametrize("p, s", SUBFIELD_FIELDS[:3])
def test_subfield_of_a_prime_field_gamma_raises(p, s):
    # gamma = 2 lies in F_p, so g0 does too and f0 = (X - g0)^2 is reducible
    ctx = build_field(p, s)
    bad = FieldCtx(ctx.p, ctx.modulus, ctx.from_int(2).coords, ctx.q_minus_1_factorization)
    with pytest.raises(FieldError, match="reducible"):
        bad.subfield(2)


def order_defect_reference(g):
    """Reference order test: the first prime l | q-1 with g^{(q-1)/l} = 1, one power per l."""
    ctx = g.ctx
    for ell, _ in ctx.q_minus_1_factorization:
        if g ** ((ctx.q - 1) // ell) == ctx.one():
            return ell
    return None


def first_generator_from_key_one(ctx):
    """Reference search: every packed key from 1 up, F_p^* included."""
    for key in range(1, ctx.q):
        g = ctx.from_packed(key)
        if order_defect_reference(g) is None:
            return g


# every nonzero element of these fields goes through both order tests
ORDER_FIELDS = ((3, 2), (3, 3), (3, 4), (5, 3), (7, 3), (11, 2), (13, 2), (3, 6), (5, 4), (29, 1), (1019, 1))


@pytest.mark.parametrize("p, s", ORDER_FIELDS)
def test_order_defect_matches_one_power_per_prime(p, s):
    ctx = build_field(p, s)
    primes = [ell for ell, _ in ctx.q_minus_1_factorization]
    generators = 0
    for key in range(1, ctx.q):
        g = ctx.from_packed(key)
        ell = _order_defect(g)
        assert (ell is None) == (order_defect_reference(g) is None), g
        if ell is None:
            generators += 1
        else:
            assert ell in primes and g ** ((ctx.q - 1) // ell) == ctx.one(), (g, ell)
    assert generators == math.prod(ell ** (v - 1) * (ell - 1) for ell, v in ctx.q_minus_1_factorization)  # phi(q-1)


@pytest.mark.parametrize("p, s", ORDER_FIELDS + ((11, 16), (13, 32), (3, 64)))
def test_norm_is_the_power_onto_the_prime_field(p, s):
    ctx = build_field(p, s)
    rng = random.Random(p * s)
    if ctx.q <= 1100:
        elems = [ctx.from_packed(key) for key in range(ctx.q)]
    else:  # zero, F_p and random elements
        elems = [ctx.from_int(0), ctx.one(), ctx.from_int(-1), ctx.from_int(rng.randrange(2, p)), ctx.gamma]
        elems += [FieldElem(ctx, [rng.randrange(p) for _ in range(s)]) for _ in range(12)]
    for g in elems:
        # _order_defect's norm: the resultant of the modulus and g
        assert _resultant(ctx.modulus, g.coords, p) == _prime_field_value(g ** ((ctx.q - 1) // (p - 1))), g


@pytest.mark.parametrize("p, s", ((3, 1), (3, 4), (13, 2), (3, 64)))
def test_zero_has_no_order(p, s):
    ctx = build_field(p, s)
    with pytest.raises(FieldError, match="zero"):
        _order_defect(ctx.from_int(0))


def test_binomial_criterion_matches_ben_or():
    # Lidl & Niederreiter Thm 3.75 against Ben-Or's test on every x^s + c with p <= 43 and s <= 12
    checked = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
        for s in range(1, 13):
            want = [c for c in range(1, p) if is_irreducible((c,) + (0,) * (s - 1) + (1,), p)]
            assert list(_irreducible_binomials(s, p)) == want, (p, s)
            checked += p - 1
    assert checked == 3192


@pytest.mark.parametrize("p, s", ((3, 1), (5, 6), (7, 12), (3, 30), (13, 32), (3, 64), (11, 64), (13, 64)))
def test_q_minus_1_from_cyclotomic_values(p, s):
    assert _factor_q_minus_1(p, s) == factorize(p**s - 1)


@pytest.mark.parametrize(
    "p, s",
    ((3, 1), (1019, 1), (3, 2), (1019, 2), (5, 3), (13, 3), (3, 4), (29, 4), (1019, 4), (3, 8), (5, 8)),
)
def test_find_generator_skips_the_prime_field(p, s):
    # no key below p generates F_q^* when s > 1, so skipping them leaves gamma as it was
    ctx = build_field(p, s)
    assert find_generator(ctx) == first_generator_from_key_one(ctx) == ctx.gamma


def test_with_generator(with_generator):
    ctx = build_field(3, 4)
    g2 = ctx.gamma**7  # 7 coprime to 80
    ctx2 = with_generator(ctx, g2)
    assert ctx2.gamma == g2
    with pytest.raises(FieldError):
        with_generator(ctx, ctx.gamma**2)  # order 40, not a generator
    with pytest.raises(FieldError, match=r"\(q-1\)/5"):
        with_generator(ctx, ctx.gamma**5)  # order 16
    assert find_generator(ctx) == ctx.gamma and isinstance(ctx.gamma, FieldElem)
    with pytest.raises(FieldError):
        with_generator(ctx, ctx.from_int(0))
    with pytest.raises(FieldError):
        with_generator(ctx, build_field(5, 2).gamma)  # an element of another field


def test_alternative_modulus_builds():
    # any valid modulus is accepted; downstream equality is tested elsewhere
    default = build_field(3, 4)
    f = None
    for key in range(3**4):
        coeffs = []
        k = key
        for _ in range(4):
            coeffs.append(k % 3)
            k //= 3
        cand = tuple(coeffs) + (1,)
        if cand != default.modulus and is_irreducible(cand, 3):
            f = cand
            break
    assert f is not None
    alt = build_field(3, 4, modulus=f)
    assert alt.modulus == f
    assert alt.gamma ** (alt.q - 1) == alt.one()
