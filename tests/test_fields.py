import itertools
import random

import pytest

from periodpoly.fields import (
    FieldElem,
    FieldError,
    _poly_gcd_is_one,
    _poly_powmod,
    build_field,
    find_generator,
    find_irreducible_modulus,
    is_irreducible,
)
from periodpoly.intmath import factorize


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
        _poly_gcd_is_one([(u - v) % p for u, v in zip(frob_iter(s // ell), x)], list(f), p) for ell, _ in factorize(s)
    )


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
}


@pytest.mark.parametrize("p, s", sorted(PINNED_FIELDS))
def test_pinned_modulus_and_generator(p, s):
    # the digests carry gamma's fingerprint, so construction must not drift
    ctx = build_field(p, s)
    assert (sparse(ctx.params.modulus), sparse(ctx.gamma.coords)) == PINNED_FIELDS[p, s]


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


def test_trace_basics():
    for p, s in ((3, 2), (3, 4), (5, 2), (5, 4), (11, 2)):
        ctx = build_field(p, s)
        assert ctx.trace(ctx.one()) == s % p
        rng = random.Random(p * s)
        for _ in range(10):
            x = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
            y = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
            # Frobenius invariance and linearity
            assert ctx.trace(x**p) == ctx.trace(x)
            assert (ctx.trace(x) + ctx.trace(y)) % p == ctx.trace(x + y)


def test_trace_against_frobenius_sum():
    # the trace row vs the defining sum x + x^p + ... + x^{p^{s-1}}
    for p, s in ((3, 3), (5, 2), (7, 2), (3, 4)):
        ctx = build_field(p, s)
        rng = random.Random(s + p)
        for _ in range(12):
            x = FieldElem(ctx, [rng.randrange(p) for _ in range(s)])
            acc = x
            img = x
            for _ in range(s - 1):
                img = img**p
                acc = acc + img
            assert acc.in_prime_field()
            assert ctx.trace(x) == acc.coords[0]


def test_trace_spectrum_balanced():
    for p, s in ((3, 2), (5, 2), (3, 3)):
        ctx = build_field(p, s)
        counts = {t: 0 for t in range(p)}
        for key in range(ctx.q):
            counts[ctx.trace(ctx.from_packed(key))] += 1
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


def test_with_generator():
    ctx = build_field(3, 4)
    g2 = ctx.gamma**7  # 7 coprime to 80
    ctx2 = ctx.with_generator(g2)
    assert ctx2.gamma == g2
    with pytest.raises(FieldError):
        ctx.with_generator(ctx.gamma**2)  # order 40, not a generator
    with pytest.raises(FieldError, match=r"\(q-1\)/5"):
        ctx.with_generator(ctx.gamma**5)  # order 16
    assert find_generator(ctx) == ctx.gamma and isinstance(ctx.gamma, FieldElem)
    with pytest.raises(FieldError):
        ctx.with_generator(ctx.zero())


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
