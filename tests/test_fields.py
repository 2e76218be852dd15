import itertools
import math
import random

import numpy as np
import pytest

from periodpoly.fields import (
    FieldCtx,
    FieldElem,
    FieldError,
    _factor_q_minus_1,
    _irreducible_binomials,
    _norm,
    _order_defect,
    _poly_mulmod,
    _poly_powmod,
    _resultant,
    build_field,
    find_generator,
    find_irreducible_modulus,
    is_irreducible,
)
from periodpoly.intmath import factorize, ord2
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


def dense_irreducible(p, s, seed):
    """A monic irreducible of degree s over F_p with every coefficient nonzero."""
    rng = random.Random(seed)
    while True:
        f = tuple(rng.randrange(1, p) for _ in range(s)) + (1,)
        if is_irreducible(f, p):
            return f


MERSENNE_31 = 2**31 - 1

# (p, modulus): s = 1 and s = 2, binomials, trinomials and dense moduli, small and large p
KERNEL_MODULI = [
    (3, (1, 1)),
    (13, (11, 1)),
    (5, (2, 0, 1)),
    (3, (2, 1, 1)),
    (5, find_irreducible_modulus(5, 16)),  # binomial
    (13, find_irreducible_modulus(13, 32)),  # binomial
    (3, find_irreducible_modulus(3, 14)),  # trinomial x^14 + x + 2
    (11, find_irreducible_modulus(11, 64)),  # trinomial x^64 + x^3 + 8
    (7, dense_irreducible(7, 9, seed=1)),
    (3, dense_irreducible(3, 20, seed=2)),
    (MERSENNE_31, (7, 1)),
    (MERSENNE_31, dense_irreducible(MERSENNE_31, 2, seed=3)),
    (MERSENNE_31, dense_irreducible(MERSENNE_31, 5, seed=4)),
]


@pytest.mark.parametrize("p, modulus", KERNEL_MODULI, ids=[f"{p}-{len(f) - 1}" for p, f in KERNEL_MODULI])
def test_kronecker_kernel_matches_schoolbook(p, modulus):
    s = len(modulus) - 1
    rng = random.Random(p * s)
    top = [p - 1] * s  # top * top has the coefficient s*(p-1)^2 at degree s-1, the largest a slot holds
    pairs = [(top, list(top)), (top, [1] + [0] * (s - 1)), ([0] * s, top)]
    for _ in range(60):
        pairs.append(([rng.randrange(p) for _ in range(s)], [rng.randrange(p) for _ in range(s)]))
        # operands shorter than s, as Ben-Or's test and mul_matrix pass x = [0, 1, ...]
        pairs.append(tuple([rng.randrange(p) for _ in range(rng.randint(1, s))] for _ in range(2)))
        # coefficients outside [0, p), negative ones too, act as their residues
        pairs.append(tuple([rng.randrange(-3 * p, 3 * p) for _ in range(rng.randint(1, s))] for _ in range(2)))
    for a, b in pairs:
        want = schoolbook_mulmod(a, b, modulus, p)
        assert _poly_mulmod(a, b, modulus, p) == want, (a, b)
        assert _poly_mulmod(a, a, modulus, p) == schoolbook_mulmod(a, a, modulus, p), a  # the squaring path


@pytest.mark.parametrize("p, modulus", KERNEL_MODULI, ids=[f"{p}-{len(f) - 1}" for p, f in KERNEL_MODULI])
def test_poly_powmod_matches_repeated_schoolbook(p, modulus):
    s = len(modulus) - 1
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


def test_build_prime_field():
    ctx = build_field(3, 1)
    assert ctx.params.modulus == (0, 1)
    assert ctx.gamma.coords == (2,)  # 2 generates F_3^*
    ctx5 = build_field(5, 1)
    assert ctx5.gamma.coords == (2,)  # 2 generates F_5^*


def test_build_f9():
    ctx = build_field(3, 2)
    assert ctx.params.modulus == (1, 0, 1)  # x^2 + 1, -1 a non-residue mod 3
    assert ctx.gamma.coords == (1, 1)  # x + 1 has order 8
    one = ctx.one()
    orders = [k for k in range(1, 9) if ctx.gamma**k == one]
    assert orders == [8]


def test_build_f5_4_irreducibility_oracle():
    ctx = build_field(5, 4)
    assert is_irreducible(ctx.params.modulus, 5)
    assert len(ctx.params.modulus) == 5 and ctx.params.modulus[-1] == 1


def test_build_rejects_bad_input():
    with pytest.raises(FieldError):
        build_field(9, 2)
    with pytest.raises(FieldError):
        build_field(2, 3)
    with pytest.raises(FieldError):
        build_field(5, 0)
    with pytest.raises(FieldError):
        build_field(3, 2, modulus=(2, 0, 1))  # x^2 + 2 = x^2 - 1 reducible


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
def test_pinned_modulus_and_generator(p, s):
    # the digests carry gamma's fingerprint, so construction must not drift
    ctx = build_field(p, s)
    assert (sparse(ctx.params.modulus), sparse(ctx.gamma.coords)) == PINNED_FIELDS[p, s]
    assert is_irreducible(ctx.params.modulus, p)
    assert order_defect_reference(ctx.gamma) is None


def test_modulus_search_deterministic():
    assert find_irreducible_modulus(3, 2) == (1, 0, 1)
    assert find_irreducible_modulus(3, 4) == find_irreducible_modulus(3, 4)


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
        a.trace(b.gamma)


def test_negative_power_rejected():
    ctx = build_field(3, 2)
    for x in (ctx.zero(), ctx.gamma):
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


def test_trace_against_frobenius_sum(field_trace):
    # the trace row vs the defining sum x + x^p + ... + x^{p^{s-1}}
    for p, s in ((3, 3), (5, 2), (7, 2), (3, 4)):
        ctx = build_field(p, s)
        trace = field_trace(ctx)
        rng = random.Random(s + p)
        for _ in range(12):
            x = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
            acc = x
            img = x
            for _ in range(s - 1):
                img = img**p
                acc = acc + img
            assert acc.in_prime_field()
            assert trace(x) == acc.coords[0] == ctx.trace(x)


def frobenius_trace_row(ctx):
    """Reference trace row: row 0 of sum_{i<s} F^i, F the matrix of the p-power Frobenius."""
    s, p, modulus = ctx.s, ctx.p, ctx.params.modulus
    # Matrix of the p-power Frobenius: columns are coords of (x^i)^p
    frob = np.zeros((s, s), dtype=np.int64)
    xpow = _poly_powmod([0, 1] + [0] * (s - 2) if s > 1 else [1], p, modulus, p)
    col = [1] + [0] * (s - 1)
    for j in range(s):
        frob[:, j] = col
        col = _poly_mulmod(col, xpow, modulus, p)
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
        assert is_irreducible(sub.params.modulus, p)
        assert sub.q_minus_1_factorization == tuple(factorize(sub.q - 1))
        assert _order_defect(sub.gamma) is None
        g0 = ctx.gamma ** ((ctx.q - 1) // (sub.q - 1))
        powers = [ctx.one()]
        for _ in range(k - 1):
            powers.append(powers[-1] * g0)

        def embed(y):
            acc = ctx.zero()
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
    bad = FieldCtx(ctx.params, ctx.from_int(2).coords, ctx.q_minus_1_factorization)
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
        elems = [ctx.zero(), ctx.one(), ctx.from_int(-1), ctx.from_int(rng.randrange(2, p)), ctx.gamma]
        elems += [FieldElem(ctx, [rng.randrange(p) for _ in range(s)]) for _ in range(12)]
    for g in elems:
        assert _norm(g) == (g ** ((ctx.q - 1) // (p - 1))).prime_field_value(), g


@pytest.mark.parametrize("p, s", ((3, 1), (3, 4), (13, 2), (3, 64)))
def test_zero_has_no_order(p, s):
    ctx = build_field(p, s)
    with pytest.raises(FieldError, match="zero"):
        _order_defect(ctx.zero())


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
        with_generator(ctx, ctx.zero())
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
        if cand != default.params.modulus and is_irreducible(cand, 3):
            f = cand
            break
    assert f is not None
    alt = build_field(3, 4, modulus=f)
    assert alt.params.modulus == f
    assert alt.gamma ** (alt.q - 1) == alt.one()


def test_params_json():
    ctx = build_field(3, 2)
    assert ctx.params.to_json_dict() == {"p": 3, "s": 2, "modulus": [1, 0, 1]}
