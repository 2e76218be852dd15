import cmath
import math
import random

import numpy as np
import pytest

from periodpoly.cyclotomic import (
    CycElem,
    IntPoly,
    NotAnInteger,
    _kron_mul,
    _supported_conductor,
    cyclotomic_polynomial,
    expand_factor_list,
    frobenius_power_sum,
    linear,
    poly_from_roots,
)

CONDUCTORS = (1, 2, 4, 8, 3, 5, 6, 24, 29, 96, 208, 1013)


def schoolbook_mul(a: CycElem, b: CycElem) -> CycElem:
    """Reference product in Z[zeta_n]: the cyclic convolution mod x^n - 1, as a double loop."""
    n = a.n
    out = [0] * n
    for i, x in enumerate(a.vec):
        if x:
            for j, y in enumerate(b.vec):
                if y:
                    k = i + j
                    out[k - n if k >= n else k] += x * y
    return CycElem(n, out)


def schoolbook_poly_mul(f: list, g: list, n: int) -> list:
    """Reference product of polynomials in X over Z[x]/(x^n - 1), coefficient by coefficient."""
    out = [CycElem.zero(n) for _ in range(len(f) + len(g) - 1)]
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + schoolbook_mul(CycElem(n, a), CycElem(n, b))
    return [list(c.vec) for c in out]


def sequential_poly_from_roots(roots: list) -> list:
    """Reference expansion of prod (X - root): one linear factor at a time, schoolbook products."""
    n = math.lcm(*(r.n for r in roots))
    coeffs = [CycElem.integer(n, 1)]
    for root in roots:
        root = root.embed(n)
        nxt = [CycElem.zero(n) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - schoolbook_mul(c, root)
        coeffs = nxt
    return coeffs


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
    assert (CycElem(3, (1, 1, 1))).is_zero()  # 1 + z + z^2 = 0
    assert (CycElem.root(4, 1) ** 2).as_integer() == -1
    isqrt2 = CycElem.root(8, 1) + CycElem.root(8, 3)
    assert (isqrt2 * isqrt2).as_integer() == -2


def test_as_integer():
    assert CycElem.integer(6, 5).as_integer() == 5
    with pytest.raises(NotAnInteger):
        CycElem.root(3, 1).as_integer()
    e = CycElem(3, (8, 1, 1))  # 7 + (1 + z + z^2)
    assert e.as_integer() == 7
    assert CycElem.zero(8).as_integer() == 0


def test_conjugate(conjugate):
    i = CycElem.root(4, 1)
    assert conjugate(i) == -i
    assert conjugate(CycElem.integer(4, 9)) == 9
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
    assert frobenius_power_sum(3, 1, 4).as_integer() == -4
    assert frobenius_power_sum(5, 2, 3) == 2 * CycElem.root(4, 1)
    isqrt2 = CycElem.root(8, 1) + CycElem.root(8, 3)
    assert frobenius_power_sum(3, 3, 3) == isqrt2
    for p in (3, 11, 19, 5, 13, 29):
        for n in (1, 2, 3):
            for r in range(3, 7):
                got = frobenius_power_sum(p, n, r)
                if n == 1:
                    assert got == -(1 << (r - 2))
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


def test_prime_root_sum_vanishes():
    for p in (3, 5, 13):
        total = CycElem.zero(p)
        for j in range(p):
            total = total + CycElem.root(p, j)
        assert total.is_zero()


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
    assert (linear(1) ** 2).coeffs == (1, 2, 1)
    assert expand_factor_list([]).coeffs == (1,)
    a = IntPoly((2, 0, 1))
    b = IntPoly((1, 1))
    assert (a * b).degree == a.degree + b.degree
    assert IntPoly((0, 0, 0)).coeffs == ()
    assert linear(-5).to_json_list() == ["-5", "1"]


def test_powers_match_repeated_products():
    rng = random.Random(12)
    x = CycElem(24, [rng.randrange(-3, 4) for _ in range(24)])
    f = IntPoly((2, -1, 3))
    want_x, want_f = CycElem.integer(24, 1), IntPoly((1,))
    for e in range(9):
        assert x**e == want_x and (x**e).n == 24
        assert f**e == want_f
        want_x, want_f = want_x * x, want_f * f


def test_negative_powers_raise():
    with pytest.raises(ValueError, match="not defined in the ring"):
        CycElem.root(8, 1) ** -1
    # a right-shift loop never ends here: e >>= 1 keeps e = -1 while the operand grows
    with pytest.raises(ValueError):
        IntPoly((1, 1)) ** -1


def test_poly_from_roots_matches_direct():
    roots = [CycElem.integer(3, 2), CycElem.root(3, 1), CycElem.root(3, 2)]
    coeffs = poly_from_roots(roots)
    # prod (X - r) evaluated at each root is zero
    for r in roots:
        acc = CycElem.zero(3)
        power = CycElem.integer(3, 1)
        for c in coeffs:
            acc = acc + c * power
            power = power * r
        assert acc.is_zero()
    assert coeffs[-1] == 1


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
def test_kernel_matches_schoolbook(n):
    rng = random.Random(n)
    ops = [CycElem(n, v) for v in kernel_operands(n, rng)]
    pairs = [(i, j) for i in range(len(ops)) for j in (i ^ 1, rng.randrange(len(ops)), -1)]
    if n > 300:  # dense schoolbook products are slow here; test_kernel_at_the_slot_bound has the edges
        pairs = [(0, -1), (1, -1), (-2, -1)]
    for i, j in pairs:
        assert (ops[i] * ops[j]).vec == schoolbook_mul(ops[i], ops[j]).vec, (n, i, j)


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_at_the_slot_bound(n):
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


@pytest.mark.parametrize("n", CONDUCTORS)
def test_kernel_square_same_object_and_copy(n):
    rng = random.Random(100 + n)
    for v in kernel_operands(n, rng)[1 if n < 300 else -1 :]:
        a, copy = CycElem(n, v), CycElem(n, list(v))
        want = schoolbook_mul(a, copy).vec
        assert (a * a).vec == want
        assert (a * copy).vec == want
        assert _kron_mul([a.vec], [a.vec], n) == [list(want)]


@pytest.mark.parametrize("n", (1, 3, 8, 24, 29))
def test_kernel_polynomials_of_unequal_length(n):
    rng = random.Random(200 + n)
    for lf, lg in ((1, 4), (3, 5), (4, 4), (6, 2)):
        for height in (1, 2**63 + 1, 2**300 + 7):
            edge_f = [[height] * n for _ in range(lf)]  # every middle slot of the product reaches the bound
            edge_g = [[-height] * n for _ in range(lg)]
            assert _kron_mul(edge_f, edge_g, n) == schoolbook_poly_mul(edge_f, edge_g, n)
            assert _kron_mul(edge_f, edge_f, n) == schoolbook_poly_mul(edge_f, edge_f, n)
        f = [[rng.randrange(-(1 << 70), 1 << 70) for _ in range(n)] for _ in range(lf)]
        g = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(lg)]
        assert _kron_mul(f, g, n) == schoolbook_poly_mul(f, g, n)


@pytest.mark.parametrize("n", CONDUCTORS[:-3])
@pytest.mark.parametrize("count", (1, 2, 3, 4, 7, 8, 16))
def test_product_tree_matches_sequential_expansion(n, count):
    rng = random.Random(300 + 17 * n + count)
    height = rng.choice((5, 2**64, 2**301))
    roots = [CycElem(n, [rng.randrange(-height, height + 1) for _ in range(n)]) for _ in range(count)]
    got = poly_from_roots(roots)
    want = sequential_poly_from_roots(roots)
    assert [c.vec for c in got] == [c.vec for c in want]
    assert all(c.n == n for c in got)


@pytest.mark.parametrize("n, count", ((96, 5), (96, 8), (208, 3), (208, 4), (1013, 2), (1013, 3)))
def test_product_tree_at_large_conductor(n, count):
    rng = random.Random(400 + n + count)
    roots = [CycElem(n, [rng.randrange(-3, 4) for _ in range(n)]) for _ in range(count)]
    assert [c.vec for c in poly_from_roots(roots)] == [c.vec for c in sequential_poly_from_roots(roots)]


def test_poly_from_roots_embeds_mixed_conductors():
    roots = [CycElem(4, [1]), CycElem(8, [0, 1])]
    coeffs = poly_from_roots(roots)
    assert [c.n for c in coeffs] == [8, 8, 8]
    assert [c.vec for c in coeffs] == [c.vec for c in sequential_poly_from_roots(roots)]
    # (X - 1)(X - zeta_8) = X^2 - (1 + zeta_8) X + zeta_8
    assert coeffs == [CycElem.root(8, 1), -(1 + CycElem.root(8, 1)), 1]
    mixed = poly_from_roots([CycElem.root(3, 1), CycElem.root(4, 1), CycElem.integer(2, 5)])
    assert {c.n for c in mixed} == {12}


def test_integral_scalars_and_non_integral_operands():
    a = CycElem(8, [3, 1, 0, -2])
    assert a * np.int64(2) == a * 2 and (a * np.int64(2)).n == 8
    assert a + np.int64(2) == a + 2
    assert a - np.int64(2) == a - 2
    assert CycElem.integer(8, 5) == np.int64(5)
    with pytest.raises(TypeError):
        a * 2.0
    with pytest.raises(TypeError):
        a + 2.0
    with pytest.raises(TypeError):
        a - 2.0
    with pytest.raises(TypeError):
        2.5 * a
    assert (a == 2.0) is False


def test_conductor_tables_are_memoised():
    assert cyclotomic_polynomial(1013) is cyclotomic_polynomial(1013)
    _supported_conductor(208)
    hits = _supported_conductor.cache_info().hits
    CycElem.root(208, 3)
    assert _supported_conductor.cache_info().hits == hits + 1
