import cmath
import math
import random

import numpy as np
import pytest

from periodpoly import cyclotomic
from periodpoly.closed_form import closed_form_factorization
from periodpoly.cyclotomic import (
    CycElem,
    IntPoly,
    _kron_mul,
    _pack,
    _supported_conductor,
    expand_factor_list,
    expand_mod,
    frobenius_power_sum,
    linear,
    root_of_unity_mod,
)
from periodpoly.fields import FieldElem, build_field
from periodpoly.intmath import is_prime
from periodpoly.periods import reduced_periods, trace_spectrum

CONDUCTORS = (1, 2, 4, 8, 3, 5, 6, 24, 29, 96, 208, 1013)


def cyclotomic_polynomial(n: int) -> IntPoly:
    """Reference Phi_n for n of the form p, 2^a, or 2^a*p, as a coefficient table."""
    a, p = _supported_conductor(n)
    if p == 1:
        if a == 0:
            return IntPoly((-1, 1))  # x - 1
        return IntPoly((1,) + (0,) * (2 ** (a - 1) - 1) + (1,))  # x^{2^{a-1}} + 1
    if a == 0:
        return IntPoly((1,) * p)  # 1 + x + ... + x^{p-1}
    # Phi_{2p}(x) = Phi_p(-x); Phi_{2^a p}(x) = Phi_{2p}(x^{2^{a-1}}) for a >= 1
    step = 2 ** (a - 1)
    coeffs = [0] * ((p - 1) * step + 1)
    for k in range(p):
        coeffs[k * step] = (-1) ** k
    return IntPoly(coeffs)


def dense_divmod_exact(num: list, den: tuple) -> tuple:
    """Reference divmod in Z[x] by a monic divisor: every step walks every term of it, zeros included."""
    num, dden = list(num), len(den) - 1
    quot = [0] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = quot[i - dden] = num[i]
        if c:
            for j in range(dden + 1):
                num[i - dden + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def plain_product(f: list, g: list) -> list:
    """Reference product of two integer polynomials, coefficient by coefficient."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def ring_image(root: CycElem, omega: int, modulus: int) -> int:
    """root under zeta_n -> omega, the ring map Z[zeta_n] -> Z/modulus of root_of_unity_mod."""
    return sum(c * pow(omega, t, modulus) for t, c in enumerate(root.vec)) % modulus


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(3).coeffs == (1, 1, 1)
    assert cyclotomic_polynomial(8).coeffs == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(6).coeffs == (1, -1, 1)
    assert cyclotomic_polynomial(2).coeffs == (1, 1)
    assert cyclotomic_polynomial(4).coeffs == (1, 0, 1)
    assert cyclotomic_polynomial(12).coeffs == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(24).coeffs == (1, 0, 0, 0, -1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(5).coeffs == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(10).coeffs == (1, -1, 1, -1, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(15)  # two odd primes
    with pytest.raises(ValueError):
        cyclotomic_polynomial(9)  # odd prime square


def test_reduction_examples():
    assert CycElem(3, (1, 1, 1)).canonical() == ()  # 1 + z + z^2 = 0
    assert (CycElem.root(4, 1) ** 2).canonical() == (-1,)
    isqrt2 = CycElem.root(8, 1) + CycElem.root(8, 3)
    assert (isqrt2 * isqrt2).canonical() == (-2,)
    assert CycElem(3, (8, 1, 1)) == CycElem.integer(1, 7)  # 7 + (1 + z + z^2), across conductors
    assert CycElem.root(3, 1).canonical() == (0, 1)  # not an integer


def test_conjugate(conjugate):
    i = CycElem.root(4, 1)
    assert conjugate(i) == -i
    assert conjugate(CycElem.integer(4, 9)) == CycElem.integer(4, 9)
    isqrt2 = CycElem.root(8, 1) + CycElem.root(8, 3)
    assert conjugate(isqrt2) == -isqrt2
    rng = random.Random(3)
    for _ in range(20):
        n = rng.choice((3, 4, 8, 12, 5, 20))
        a = CycElem(n, [rng.randrange(-5, 6) for _ in range(n)])
        assert conjugate(conjugate(a)) == a
        b = CycElem(n, [rng.randrange(-5, 6) for _ in range(n)])
        assert conjugate(a * b) == conjugate(a) * conjugate(b)


def test_frobenius_power_sum_table():
    # the closed-form case table for the 2-power root sums
    assert frobenius_power_sum(3, 1, 4).canonical() == (-4,)
    assert frobenius_power_sum(5, 2, 3) == 2 * CycElem.root(4, 1)
    isqrt2 = CycElem.root(8, 1) + CycElem.root(8, 3)
    assert frobenius_power_sum(3, 3, 3) == isqrt2
    for p in (3, 11, 19, 5, 13, 29):
        for n in (1, 2, 3):
            for r in range(3, 7):
                got = frobenius_power_sum(p, n, r)
                if n == 1:
                    assert got == CycElem.integer(1, -(1 << (r - 2)))
                elif n == 2:
                    expect = (1 << (r - 2)) * CycElem.root(4, 1) if p % 8 == 5 else CycElem.zero(4)
                    assert got == expect
                else:
                    expect = (1 << (r - 3)) * isqrt2 if p % 8 == 3 else CycElem.zero(8)
                    assert got == expect
    with pytest.raises(ValueError):
        frobenius_power_sum(7, 1, 4)
    with pytest.raises(ValueError):
        frobenius_power_sum(3, 2, 2)


def test_ring_laws_random():
    rng = random.Random(10)
    for _ in range(60):
        n = rng.choice((3, 4, 8, 6, 12, 24, 5, 40))
        a, b, c = (CycElem(n, [rng.randrange(-9, 10) for _ in range(n)]) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a


def test_canonical_is_idempotent_and_multiplicative():
    rng = random.Random(4)
    for _ in range(30):
        n = rng.choice((3, 8, 12, 20))
        a = CycElem(n, [rng.randrange(-9, 10) for _ in range(n)])
        b = CycElem(n, [rng.randrange(-9, 10) for _ in range(n)])
        ca = CycElem(n, a.canonical())
        assert ca.canonical() == a.canonical()
        assert (a * b) == CycElem(n, a.canonical()) * CycElem(n, b.canonical())


@pytest.mark.parametrize("n", (1, 2, 16, 64, 3, 29, 6, 58, 8 * 13, 1019, 16 * 1019, 8152))
def test_canonical_matches_dense_divmod(n):
    # the canonical form is the remainder mod Phi_n, however it is reached: the fold of
    # x^{n/2} = -1 for even n, then the fold of the top block for an odd prime p | n.
    # Every ring shape is here: n = 1, 2^a, p, 2p and 2^a p
    rng = random.Random(500 + n)
    phi = cyclotomic_polynomial(n).coeffs
    dden = len(phi) - 1
    if n < 2000:
        vecs = [[rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)] for bits in (4, 4, 70, 300)]
    else:  # the dense walk over a full vector takes seconds here; fill windows at both ends and around n/2
        window = [*range(40), *range(dden - 40, n // 2 + 40), *range(n - 40, n)]
        vecs = []
        for bits in (4, 70):
            v = [0] * n
            for t in window:
                v[t] = rng.randrange(-(1 << bits), 1 << bits)
            vecs.append(v)
    for v in vecs:
        want = dense_divmod_exact(v, phi)
        assert CycElem(n, v).canonical() == tuple(want[1])


def test_prime_root_sum_vanishes():
    for p in (3, 5, 13):
        total = CycElem.zero(p)
        for j in range(p):
            total = total + CycElem.root(p, j)
        assert total == CycElem.zero(1)


def complex_value(a: CycElem) -> complex:
    """Floating-point embedding of a at exp(2*pi*i/n)."""
    z = cmath.exp(2j * cmath.pi / a.n)
    return sum(c * z**j for j, c in enumerate(a.vec) if c)


def test_complex_embedding_diagnostic():
    rng = random.Random(9)
    for _ in range(25):
        n = rng.choice((3, 4, 8, 12, 5))
        a = CycElem(n, [rng.randrange(-9, 10) for _ in range(n)])
        direct = complex_value(a)
        canon = complex_value(CycElem(n, a.canonical() + (0,) * (n - len(a.canonical()))))
        if abs(direct) > 1e-6:
            assert abs(direct - canon) / abs(direct) < 1e-9
        else:
            assert abs(direct - canon) < 1e-9


def test_conductor_embedding():
    z3 = CycElem.root(3, 1)
    z6 = CycElem.root(6, 2)
    assert z3 == z6  # zeta_6^2 = zeta_3
    assert z3 + CycElem.root(4, 1) == CycElem.root(12, 4) + CycElem.root(12, 3)


def test_serialization_roundtrip():
    e = CycElem(12, (3, -1, 0, 7, 0, 0, 0, 0, 2, 0, 0, 0))
    d = e.to_json_dict()
    assert d["n"] == 12
    assert all(isinstance(c, str) for c in d["canonical"])
    assert CycElem(d["n"], [int(c) for c in d["canonical"]]) == e


def test_intpoly_basics():
    assert (linear(1) * linear(1)).coeffs == (1, 2, 1)
    assert expand_factor_list([(linear(1), 2)]).coeffs == (1, 2, 1)
    assert expand_factor_list([]).coeffs == (1,)
    a = IntPoly((2, 0, 1))
    b = IntPoly((1, 1))
    assert (a * b).degree == a.degree + b.degree
    assert a * b == b * a == IntPoly((2, 2, 1, 1))
    assert (a * IntPoly(())).coeffs == (IntPoly(()) * a).coeffs == ()
    assert IntPoly((0, 0, 0)).coeffs == ()
    assert linear(-5).to_json_list() == ["-5", "1"]
    with pytest.raises(TypeError):  # Z[X] has no powers: a factor list is multiplied out factor by factor
        linear(1) ** 2


def test_powers_match_repeated_products():
    rng = random.Random(12)
    x = CycElem(24, [rng.randrange(-3, 4) for _ in range(24)])
    f = IntPoly((2, -1, 3))
    want_x, want_f = CycElem.integer(24, 1), IntPoly((1,))
    for e in range(9):
        assert x**e == want_x and (x**e).n == 24
        assert expand_factor_list([(f, e)]) == want_f
        want_x, want_f = want_x * x, want_f * f


def test_negative_powers_raise():
    with pytest.raises(ValueError, match="not defined in the ring"):
        CycElem.root(8, 1) ** -1


def test_negative_multiplicity_raises():
    # a factor to a negative power is not in Z[X]; a generator of factors is checked too
    for factors in ([(linear(1), -1)], [(linear(2), 3), (linear(1), -2)], ((linear(1), m) for m in (1, -1))):
        with pytest.raises(ValueError, match="negative multiplicity"):
            expand_factor_list(factors)
    assert expand_factor_list([(linear(1), 0), (linear(2), 1)]) == linear(2)


def _factor_lists():
    """Factor lists for the expansion: random ones with multiplicities up to 16, closed forms
    (SMALL_M3 quadratics, T2c quartics) and oracle factors (Galois orbits of the periods)."""
    rng = random.Random(32)
    lists = {"empty": []}
    for k in range(4):
        factors = [(linear(rng.randrange(-(1 << 100), 1 << 100)), rng.randint(1, 16)) for _ in range(3)]
        factors += [(IntPoly([rng.randrange(-999, 1000) for _ in range(d)] + [1]), rng.randint(1, 16)) for d in (2, 4, 7)]
        factors += [(IntPoly((-1,)), 3), (IntPoly((0, 1)), 16)] if k == 0 else []
        lists[f"random{k}"] = factors
    for p, s, m in ((3, 2, 3), (5, 4, 3), (11, 2, 3), (13, 2, 3), (13, 8, 5), (5, 16, 6)):
        fac = closed_form_factorization(build_field(p, s), m)
        lists[f"{fac.case.case}{(p, s, m)}"] = list(fac.factors)
    for p, s, e in ((7, 4, 480), (29, 4, 16)):
        lists[f"oracle{(p, s, e)}"] = list(reduced_periods(trace_spectrum(build_field(p, s), e)).factors)
    return lists


def test_expand_factor_list_matches_square_and_multiply(power_expansion):
    lists = _factor_lists()
    assert any(mult == 16 for factors in lists.values() for _, mult in factors)
    assert any(poly.degree == 4 for poly, _ in lists["T2c(13, 8, 5)"])
    for name, factors in lists.items():
        assert expand_factor_list(factors) == power_expansion(factors), name


@pytest.mark.parametrize("p, s, m", [(3, 64, 6), (13, 8, 5)])
def test_expansion_has_a_short_side(p, s, m, monkeypatch):
    fac = closed_form_factorization(build_field(p, s), m)
    sizes = []
    mul = IntPoly.__mul__
    monkeypatch.setattr(IntPoly, "__mul__", lambda f, g: sizes.append((len(f.coeffs), len(g.coeffs))) or mul(f, g))
    poly = fac.expand()
    assert poly.degree == 1 << m
    assert len(sizes) == sum(mult for _, mult in fac.factors)  # one product per factor occurrence
    assert all(min(pair) <= 5 for pair in sizes), sizes


HEIGHTS = (1, 2**7 - 1, 2**31 - 1, 2**63 + 1, 2**300 + 7)


def kernel_operands(n: int, rng: random.Random) -> list:
    """Vectors at conductor n: zero, one nonzero slot, all +max and all -max at several
    heights (the slot-bound edge), and random entries past 2^63 and 2^300."""
    single = [0] * n
    single[rng.randrange(n)] = -rng.randrange(1, 1 << 40)
    out = [[0] * n, single]
    for height in HEIGHTS:
        out += [[height] * n, [-height] * n]
    for bits in (64, 301):
        out.append([rng.choice((-1, 1)) * rng.getrandbits(bits) for _ in range(n)])
    return out


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_matches_schoolbook(n, schoolbook_mul):
    rng = random.Random(n)
    ops = [CycElem(n, v) for v in kernel_operands(n, rng)]
    pairs = [(i, j) for i in range(len(ops)) for j in (i ^ 1, rng.randrange(len(ops)), -1)]
    if n > 300:  # dense schoolbook products are slow here; test_kernel_at_the_slot_bound has the edges
        pairs = [(0, -1), (1, -1), (-2, -1)]
    for i, j in pairs:
        assert (ops[i] * ops[j]).vec == schoolbook_mul(ops[i], ops[j]).vec, (n, i, j)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_at_the_slot_bound(n, schoolbook_mul):
    # constant vectors: every slot of the product is n * a * b, the largest magnitude the bound allows
    for height in HEIGHTS:
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            a, b = CycElem(n, [sa * height] * n), CycElem(n, [sb * height] * n)
            want = (n * sa * sb * height * height,) * n
            assert (a * b).vec == want
            if sa == sb:
                assert (a * a).vec == want
            if n < 300 and sa == 1:
                assert want == schoolbook_mul(a, b).vec


@pytest.fixture
def packed(monkeypatch):
    """The slot widths of the kernel's Kronecker packings, one per packed operand."""
    widths = []
    monkeypatch.setattr(cyclotomic, "_pack", lambda vec, wb: widths.append(wb) or _pack(vec, wb))
    return widths


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_at_the_int64_edge(n, schoolbook_mul, packed):
    # h is the largest height whose slot bound n*h^2 fits int64, so the product runs in one
    # np.convolve; at h + 1 the bound passes 2^63 and the kernel packs (Kronecker). Constant
    # vectors reach the bound in every slot, with both signs
    h = math.isqrt((2**63 - 1) // n)
    assert n * h * h < 2**63 <= n * (h + 1) ** 2
    for height, kronecker in ((h, False), (h + 1, True)):
        schoolbook = {}  # by sa * sb: the n = 1013 double loop takes a quarter second
        for sa, sb in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
            a, b = CycElem(n, [sa * height] * n), CycElem(n, [sb * height] * n)
            if sa * sb not in schoolbook:
                schoolbook[sa * sb] = schoolbook_mul(a, b).vec
            want = schoolbook[sa * sb]
            assert want == (n * sa * sb * height * height,) * n
            packed.clear()
            got = _kron_mul(a.vec, b.vec, n)
            assert got == list(want) and all(type(c) is int for c in got)
            assert bool(packed) is kronecker
            if sa == sb:
                assert _kron_mul(a.vec, a.vec, n) == list(want)


def test_kernel_packs_long_vectors_within_the_bound(packed):
    # np.convolve is quadratic in n: past _CONVOLVE_MAX_N the kernel packs at any height.
    # 1536 = 2^9 * 3 and 1538 = 2 * 769 are the conductors on either side of the switch
    assert 1536 <= cyclotomic._CONVOLVE_MAX_N < 1538
    rng = random.Random(1536)
    for n, kronecker in ((1536, False), (1538, True)):
        for ha, hb in ((1, 1), (3, -2), (1 << 20, -(1 << 20))):
            packed.clear()
            got = _kron_mul([ha] * n, [hb] * n, n)
            assert got == [n * ha * hb] * n and all(type(c) is int for c in got)
            assert bool(packed) is kronecker
        f = [rng.randrange(-9, 10) for _ in range(n // 2)]
        g = [rng.randrange(-9, 10) for _ in range(n - n // 2)]
        assert _kron_mul(f + [0] * (n - len(f)), g + [0] * (n - len(g)), n) == plain_product(f, g) + [0]


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_square_same_object_and_copy(n, schoolbook_mul):
    rng = random.Random(100 + n)
    for v in kernel_operands(n, rng)[1 if n < 300 else -1 :]:
        a, copy = CycElem(n, v), CycElem(n, list(v))
        want = schoolbook_mul(a, copy).vec
        assert (a * a).vec == want
        assert (a * copy).vec == want
        assert _kron_mul(a.vec, a.vec, n) == list(want)


@pytest.mark.parametrize("n", (1, 3, 8, 24, 29))
def test_kernel_polynomials_of_unequal_length(n):
    # a node of expand_mod: polynomials with lf and lg coefficients, lf + lg - 1 = n, each
    # zero-padded to length n, so the cyclic product has no wrap-around and is the plain one
    rng = random.Random(200 + n)

    def padded(v):
        return v + [0] * (n - len(v))

    for lf in sorted({1, (n + 1) // 2, n}):
        lg = n + 1 - lf
        for height in (1, 2**63 + 1, 2**300 + 7):
            f, g = [height] * lf, [-height] * lg  # the middle slots of the product reach the bound
            assert _kron_mul(padded(f), padded(g), n) == plain_product(f, g)
            if 2 * lf - 1 <= n:
                square = padded(f)
                assert _kron_mul(square, square, n) == padded(plain_product(f, f))
        f = [rng.randrange(-(1 << 70), 1 << 70) for _ in range(lf)]
        g = [rng.randrange(-9, 10) for _ in range(lg)]
        assert _kron_mul(padded(f), padded(g), n) == plain_product(f, g)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_root_of_unity_mod(n):
    for bound in (1, 2**128, 10**400):
        modulus, omega = root_of_unity_mod(n, bound)
        # N = ell^j for the least prime ell = 1 (mod 2n), and the least j with N > bound
        ell = next(k for k in range(2 * n + 1, modulus + 1, 2 * n) if is_prime(k))
        power = ell
        while power <= bound:
            power *= ell
        assert modulus == power
        phi = cyclotomic_polynomial(n).coeffs
        assert sum(c * pow(omega, i, modulus) for i, c in enumerate(phi)) % modulus == 0
        assert pow(omega, n, modulus) == 1


@pytest.mark.parametrize("n", CONDUCTORS[:-3])
@pytest.mark.parametrize("count", (1, 2, 3, 4, 7, 8, 16))
def test_product_tree_matches_sequential_expansion(n, count, sequential_poly_from_roots):
    # zeta_n -> omega is a ring map, so the tree mod N over the roots' images gives the
    # images of the coefficients of the sequential expansion over Z[zeta_n]
    rng = random.Random(300 + 17 * n + count)
    height = rng.choice((5, 2**64, 2**301))
    roots = [CycElem(n, [rng.randrange(-height, height + 1) for _ in range(n)]) for _ in range(count)]
    modulus, omega = root_of_unity_mod(n, 2**128)
    got = expand_mod([ring_image(r, omega, modulus) for r in roots], modulus)
    assert got == [ring_image(c, omega, modulus) for c in sequential_poly_from_roots(roots)]


@pytest.mark.parametrize("n, count", ((96, 5), (96, 8), (208, 3), (208, 4), (1013, 2), (1013, 3)))
def test_product_tree_at_large_conductor(n, count, sequential_poly_from_roots):
    rng = random.Random(400 + n + count)
    roots = [CycElem(n, [rng.randrange(-3, 4) for _ in range(n)]) for _ in range(count)]
    modulus, omega = root_of_unity_mod(n, 2**128)
    got = expand_mod([ring_image(r, omega, modulus) for r in roots], modulus)
    assert got == [ring_image(c, omega, modulus) for c in sequential_poly_from_roots(roots)]


@pytest.mark.parametrize("n", (1, 3, 8, 24, 29, 96, 1013))
def test_product_tree_removes_a_constant_offset(n, sequential_poly_from_roots):
    # the roots 1 + e * counts carry an offset near q / (e p) in every entry, which is zero in
    # Z[zeta_n] for n > 1: the all-ones vector maps to 0 mod N, so the tree gets the same
    # images with or without it. At n = 1 the offset is a value and stays.
    rng = random.Random(600 + n)
    roots = [CycElem(n, [rng.randrange(-9, 10) for _ in range(n)]) for _ in range(5)]
    offsets = (10**6, 2**64, 3**80, 7, -(10**30))
    shifted = [CycElem(n, [c + k for c in r.vec]) for r, k in zip(roots, offsets)]
    modulus, omega = root_of_unity_mod(n, 2**128)
    images = [ring_image(r, omega, modulus) for r in shifted]
    assert (images == [ring_image(r, omega, modulus) for r in roots]) == (n > 1)
    if n < 300:
        want = [ring_image(c, omega, modulus) for c in sequential_poly_from_roots(shifted)]
        assert expand_mod(images, modulus) == want
    assert expand_mod([], modulus) == [1]  # the empty product


def test_integral_scalars_and_non_integral_operands():
    # an integer only multiplies; sums take CycElems
    a = CycElem(8, [3, 1, 0, -2])
    assert a * np.int64(2) == a * 2 and (a * np.int64(2)).n == 8
    with pytest.raises(TypeError):
        a * 2.0
    with pytest.raises(TypeError):
        a + 2
    with pytest.raises(TypeError):
        a + 2.0
    with pytest.raises(TypeError):
        a - 2.0
    with pytest.raises(TypeError):
        2.5 * a
    assert (a == 2.0) is False


def rebuilt(x: CycElem) -> CycElem:
    """x through the public constructor, with every check."""
    return CycElem(x.n, list(x.vec))


def assert_exact(x: CycElem, n: int) -> None:
    """x holds n Python ints at conductor n, and equals itself rebuilt, in vec and canonical form."""
    assert x.n == n and len(x.vec) == n and all(type(c) is int for c in x.vec)
    y = rebuilt(x)
    assert x.vec == y.vec and x.canonical() == y.canonical()


def test_ring_results_equal_the_public_construction(schoolbook_mul):
    # every result a ring operation builds itself equals the same vector through the public
    # constructor, on signed entries of up to 8 and of up to 90 bits (past 2^63, so the
    # product takes the big-int kernel), at conductors 8 and 13 and across them at 104
    rng = random.Random(36)
    for bits in (3, 90):
        for _ in range(8):
            a, b = (CycElem(n, [rng.randrange(-(1 << bits), 1 << bits) for _ in range(n)]) for n in (8, 13))
            c = CycElem(104, [rng.randrange(-(1 << bits), 1 << bits) for _ in range(104)])
            k = rng.randrange(-(1 << bits), 1 << bits)
            for x, n in ((a, 8), (b, 13), (c, 104)):
                kn = CycElem.integer(n, k)
                for result in (x + kn, kn + x, x - kn, -x, x * k, k * x, x * np.int64(3), x * 0):
                    assert_exact(result, n)
                assert_exact(x + x, n)
                assert_exact(x * x, n)
                assert (x * x).vec == schoolbook_mul(x, x).vec
            for big in (a.embed(104), b.embed(104), a.embed(8)):
                assert_exact(big, big.n)
            assert a.embed(104).vec == tuple(a.vec[j // 13] if j % 13 == 0 else 0 for j in range(104))
            for result in (a + b, a - b, a * b, b * c, a + c, c - a):
                assert_exact(result, 104)
            assert (a * b).vec == schoolbook_mul(a.embed(104), b.embed(104)).vec
            assert a + b == b + a and a * b == b * a


def test_public_constructor_checks():
    with pytest.raises(ValueError, match="longer than conductor"):
        CycElem(4, (1, 2, 3, 4, 5))
    with pytest.raises(ValueError, match="unsupported conductor 15"):
        CycElem(15, (1,))
    with pytest.raises(ValueError, match="unsupported conductor 15"):
        CycElem.root(3).embed(15)
    assert CycElem(4, (np.int64(3), True)).vec == (3, 1, 0, 0)


def test_intpoly_results_have_no_trailing_zero():
    rng = random.Random(37)
    zero = IntPoly(())
    for _ in range(40):
        f = IntPoly([rng.randrange(-9, 10) for _ in range(rng.randrange(5))] + [rng.randrange(1, 10)])
        g = IntPoly([rng.randrange(-(1 << 70), 1 << 70) for _ in range(rng.randrange(4))] + [1])
        # leading terms that cancel, down to the zero polynomial
        cancel = IntPoly(list(g.coeffs[:-1]) + [rng.randrange(-5, 6)])
        results = [f * g, g * f, f * zero, zero * f, zero * zero, -f, f * 0, 0 * g, f * np.int64(-2)]
        results += [g - cancel, cancel - g, f - f, f + (-f), g + g]
        for r in results:
            assert not r.coeffs or r.coeffs[-1] != 0
            assert all(type(c) is int for c in r.coeffs)
            assert r == IntPoly(r.coeffs)
        assert (f * g).degree == f.degree + g.degree
        assert (f * zero).coeffs == (zero * f).coeffs == (f - f).coeffs == (f * 0).coeffs == ()


def test_exact_types_take_integers_only():
    with pytest.raises(TypeError):
        CycElem(4, [1.5, 2.9])
    with pytest.raises(TypeError):
        IntPoly((1.5, 2.7))
    with pytest.raises(TypeError):
        build_field(5, 2, modulus=[2.5, 0, 1])
    with pytest.raises(TypeError):
        FieldElem(build_field(5, 2), [1.5, 0])
    assert IntPoly((1, 2)) * np.int64(3) == IntPoly((3, 6)) == 3 * IntPoly((1, 2))
    assert IntPoly((1, 2)) * True == IntPoly((1, 2))
    with pytest.raises(TypeError):
        IntPoly((1, 2)) * 2.0
    with pytest.raises(TypeError):
        2.0 * IntPoly((1, 2))
    assert CycElem(4, [np.int64(1), 2]) == CycElem(4, [1, 2])
    assert build_field(5, 2, modulus=[np.int64(2), 0, 1]).modulus == (2, 0, 1)


def test_conductor_tables_are_memoised():
    _supported_conductor(208)
    hits = _supported_conductor.cache_info().hits
    CycElem.root(208, 3)
    assert _supported_conductor.cache_info().hits == hits + 1
