import random

import numpy as np
import pytest

from periodpoly.intmath import factorize, is_prime, legendre, ord2, power, sqrt_mod_prime

BIG_E = 0xC5A3_19F0_7E2D_4B86_A1C3_5F0D  # a 96-bit exponent


def repeated(x, e, mul, one):
    """x^e as e sequential products starting from one, the reference for power."""
    out = one
    for _ in range(e):
        out = mul(out, x)
    return out


def sqrt_minus_2_mul(u, v):
    """Product in Z[sqrt(-2)], elements as pairs (a, b) = a + b*sqrt(-2)."""
    return u[0] * v[0] - 2 * u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def mat_mul_mod(p):
    return lambda a, b: a @ b % p


def test_power_matches_repeated_products():
    n, p = 1_000_003, 7
    mod_n = lambda a, b: a * b % n  # noqa: E731
    mat = np.array([[2, 5], [3, 1]], dtype=np.int64)  # det = -13 = 1 mod 7, invertible
    eye = np.eye(2, dtype=np.int64)
    for e in range(131):
        assert power(123_457, e, mod_n, 1) == repeated(123_457, e, mod_n, 1) == pow(123_457, e, n)
        assert (power(mat, e, mat_mul_mod(p), eye) == repeated(mat, e, mat_mul_mod(p), eye)).all()
        assert power((3, 1), e, sqrt_minus_2_mul, (1, 0)) == repeated((3, 1), e, sqrt_minus_2_mul, (1, 0))
    # BIG_E is far too many products to repeat; reduce it by the exponent of each finite group instead
    assert power(123_457, BIG_E, mod_n, 1) == pow(123_457, BIG_E, n)
    gl2_order = (p * p - 1) * (p * p - p)
    want = repeated(mat, BIG_E % gl2_order, mat_mul_mod(p), eye)
    assert (power(mat, BIG_E, mat_mul_mod(p), eye) == want).all()
    # Z[sqrt(-2)] mod 5 is F_25, since -2 is a non-residue mod 5: its unit group has order 24
    mod5 = lambda u, v: tuple(c % 5 for c in sqrt_minus_2_mul(u, v))  # noqa: E731
    assert power((3, 1), BIG_E, mod5, (1, 0)) == repeated((3, 1), BIG_E % 24, mod5, (1, 0))


def test_power_cost():
    # x^e takes bitlen(e) - 1 squarings, each of one object with itself, and popcount(e) - 1 products
    n = 1_000_003
    one = [1]

    def mul(a, b):  # values boxed in lists, so `is` tells a squaring from a product
        assert a is not one and b is not one
        calls.append(a is b)
        return [a[0] * b[0] % n]

    for e in list(range(1, 131)) + [BIG_E]:
        calls = []
        assert power([3], e, mul, one) == [pow(3, e, n)]
        assert calls.count(True) == e.bit_length() - 1, e
        assert calls.count(False) == bin(e).count("1") - 1, e


def test_power_edge_exponents():
    one = object()
    assert power("x", 0, None, one) is one  # no product is taken
    assert power("x", 1, None, one) == "x"
    with pytest.raises(ValueError):
        power(3, -1, lambda a, b: a * b, 1)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43}
    for n in range(2, 45):
        assert is_prime(n) == (n in primes)
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_larger():
    assert is_prime(10**9 + 7)
    assert is_prime(11489)
    assert not is_prime(3 * 10**9 + 3)
    assert not is_prime(561)  # Carmichael
    assert not is_prime(25326001)  # strong pseudoprime to bases 2,3,5


def test_factorize_roundtrip():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(2, 10**9)
        fac = factorize(n)
        prod = 1
        for q, e in fac:
            assert is_prime(q)
            prod *= q**e
        assert prod == n
    assert factorize(1) == ()
    assert factorize(5**16 - 1) == ((2, 6), (3, 1), (13, 1), (17, 1), (313, 1), (11489, 1))


def test_legendre_matches_square_sets():
    for p in (3, 5, 7, 11, 13, 19, 29):
        squares = {x * x % p for x in range(1, p)}
        for a in range(p):
            expect = 0 if a == 0 else (1 if a in squares else -1)
            assert legendre(a, p) == expect


def test_sqrt_mod_prime():
    rng = random.Random(11)
    count = 0
    for p in (3, 5, 7, 11, 13, 17, 19, 29, 41, 10007, 65537):
        for _ in range(8):
            x = rng.randrange(p)
            a = x * x % p
            r = sqrt_mod_prime(a, p)
            assert r * r % p == a
            count += 1
    assert count >= 50
    with pytest.raises(ValueError):
        sqrt_mod_prime(2, 5)  # 2 is a non-residue mod 5


def test_sqrt_mod_prime_3mod4_root():
    # for p = 3 (mod 4) Tonelli-Shanks has one round and returns a^{(p+1)/4}
    count = 0
    for p in range(3, 3000, 4):
        if not is_prime(p):
            continue
        for x in range(1, (p + 1) // 2):
            a = x * x % p
            assert sqrt_mod_prime(a, p) == pow(a, (p + 1) // 4, p)
            count += 1
    assert count == 149_100


def test_sqrt_deterministic():
    assert sqrt_mod_prime(2, 7) == sqrt_mod_prime(2, 7)
    vals = {sqrt_mod_prime(4, 13) for _ in range(5)}
    assert len(vals) == 1


def test_ord2():
    assert ord2(1) == 0
    assert ord2(2) == 1
    assert ord2(48) == 4
    with pytest.raises(ValueError):
        ord2(0)
