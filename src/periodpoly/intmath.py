"""Deterministic integer routines: powers, primality, factoring, modular square roots.

Everything here is exact and reproducible: Miller-Rabin uses a fixed witness
set that is provably correct below 3.3e24 (far beyond desk scale), Pollard rho
uses a fixed parameter schedule, and Tonelli-Shanks picks the smallest
quadratic non-residue.

`power` is the package's one square-and-multiply kernel: every power in
F_q, Z[zeta_n], Z[X], Z[sqrt(-d)] and of the sweep's step matrix goes through it.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

T = TypeVar("T")

# Deterministic for n < 3,317,044,064,679,887,385,961,981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_BOUND = 100_000  # factorize divides out every prime below this before Pollard rho


def power(x: T, e: int, mul: Callable[[T, T], T], one: T) -> T:
    """x^e for e >= 0 under the associative product mul, whose identity is one.

    Left-to-right binary method (Knuth, TAOCP Vol. 2, 4.6.3): one squaring per
    bit below the top one, each as mul(y, y) with the same object twice, and one
    product by x per set bit below the top one. So x^e costs bitlen(e) - 1
    squarings and popcount(e) - 1 products; one is never multiplied, and is
    returned as is for e = 0.
    """
    if e < 0:
        raise ValueError(f"negative exponent {e}")
    if e == 0:
        return one
    y = x
    for bit in bin(e)[3:]:
        y = mul(y, y)
        if bit == "1":
            y = mul(y, x)
    return y


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """One nontrivial factor of composite n (deterministic parameter sweep)."""
    if n % 2 == 0:
        return 2
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")  # unreachable at desk scale


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Full factorization of n >= 1 as a sorted tuple of (prime, exponent)."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    out: dict[int, int] = {}
    for d in range(2, _TRIAL_BOUND):
        if d * d > n:
            break
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.append(d)
        stack.append(m // d)
    return tuple(sorted(out.items()))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, 1} for odd prime p."""
    a %= p
    if a == 0:
        return 0
    t = pow(a, (p - 1) // 2, p)
    return 1 if t == 1 else -1


def sqrt_mod_prime(a: int, p: int) -> int:
    """Some x with x^2 = a (mod p); raises if a is a non-residue.

    Tonelli-Shanks with the smallest non-residue as the auxiliary generator,
    so the answer is a deterministic function of (a, p).
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a quadratic residue mod {p}")
    q = p - 1
    s = 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m = s
    c = pow(z, q, p)
    t = pow(a, q, p)
    r = pow(a, (q + 1) // 2, p)
    while t != 1:
        i = 0
        t2 = t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m = i
        c = b * b % p
        t = t * c % p
        r = r * b % p
    return r


def ord2(n: int) -> int:
    """2-adic valuation of n > 0."""
    if n <= 0:
        raise ValueError("ord2 expects n > 0")
    return (n & -n).bit_length() - 1
