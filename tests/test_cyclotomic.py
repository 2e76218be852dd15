import cmath
import random

import pytest

from periodpoly.cyclotomic import (
    CycElem,
    IntPoly,
    NotAnInteger,
    cyclotomic_polynomial,
    expand_factor_list,
    frobenius_power_sum,
    linear,
    poly_from_roots,
)


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
