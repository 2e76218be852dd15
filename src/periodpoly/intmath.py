"""Deterministic integer routines: powers, primality, factoring, Legendre symbols.

Everything here is exact and reproducible: Miller-Rabin uses a fixed witness
set that is provably correct below 3.3e24 (far beyond desk scale), and Pollard
rho uses a fixed parameter schedule.

`power` is the package's one square-and-multiply kernel: every power in
Z[zeta_n], Z[sqrt(-d)] and of the sweep's step matrix goes through it. In
F_q it takes the short chains only: Ben-Or's y^p and the Frobenius matrix's x^p
where no power table serves, and the digit gaps of FieldElem.__pow__.
"""

from __future__ import annotations

import math
from typing import Callable, TypeVar

T = TypeVar("T")

# Deterministic for n < 3,317,044,064,679,887,385,961,981
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_BOUND = 2_000  # factorize divides out every prime below this before Pollard rho


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
    """One nontrivial factor of odd composite n (deterministic parameter sweep over c).

    Brent's cycle search (R. P. Brent, BIT 20, 1980) on x -> x^2 + c from 2: y runs r = 1,
    2, 4, ... steps past the saved x, with one gcd per 128 products of x - y. A gcd of n
    retraces its batch one step at a time; if that gives n too, the next c.
    """
    for c in range(1, 100):
        y, r, acc, d = 2, 1, 1, 1
        while d == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    acc = acc * (x - y) % n
                d = math.gcd(acc, n)
                if d != 1:
                    break
            r *= 2
        if d == n:  # retrace the batch
            d = 1
            while d == 1:
                saved = (saved * saved + c) % n
                d = math.gcd(x - saved, n)
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


def ord2(n: int) -> int:
    """2-adic valuation of n > 0."""
    if n <= 0:
        raise ValueError("ord2 expects n > 0")
    return (n & -n).bit_length() - 1
