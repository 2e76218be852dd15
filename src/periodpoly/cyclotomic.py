"""Exact arithmetic in Z[zeta_n] and in Z[X].

Conductors are restricted to the shapes n = p, 2^a, or 2^a*p (p an odd prime):
the only rings the rest of the package ever touches. A CycElem is stored as a
group-ring vector modulo x^n - 1 (multiplication is a cyclic convolution),
with a lazily computed canonical form: the remainder modulo the cyclotomic
polynomial Phi_n. Equality, integrality and serialization always go through
the canonical form; no floating point is involved in any decision.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Sequence

from .intmath import is_prime, power


class NotAnInteger(ValueError):
    """Raised when a cyclotomic integer is asked for its rational value but has none."""


def _supported_conductor(n: int) -> tuple[int, int]:
    """Validate n = 2^a * p^eps (p odd prime, eps <= 1); return (a, p or 1)."""
    if n < 1:
        raise ValueError("conductor must be positive")
    a = 0
    m = n
    while m % 2 == 0:
        m //= 2
        a += 1
    if m == 1:
        return a, 1
    if not is_prime(m):
        raise ValueError(f"unsupported conductor {n}: odd part {m} is not prime")
    return a, m


def _poly_divmod_exact(num: list[int], den: Sequence[int]) -> tuple[list[int], list[int]]:
    """divmod in Z[x] for a monic divisor; exact integer arithmetic."""
    num = list(num)
    dden = len(den) - 1
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    if len(num) - 1 < dden:
        return [], num
    quot = [0] * (len(num) - dden)
    for i in range(len(num) - 1, dden - 1, -1):
        c = num[i]
        if c:
            quot[i - dden] = c
            for j in range(dden + 1):
                num[i - dden + j] -= c * den[j]
    while num and num[-1] == 0:
        num.pop()
    return quot, num


def cyclotomic_polynomial(n: int) -> "IntPoly":
    """Phi_n for n of the form p, 2^a, or 2^a*p."""
    a, p = _supported_conductor(n)
    if p == 1:
        if a == 0:
            return IntPoly((-1, 1))  # x - 1
        return IntPoly((1,) + (0,) * (2 ** (a - 1) - 1) + (1,))  # x^{2^{a-1}} + 1
    if a == 0:
        return IntPoly((1,) * p)  # 1 + x + ... + x^{p-1}
    # Phi_{2p}(x) = Phi_p(-x); Phi_{2^a p}(x) = Phi_{2p}(x^{2^{a-1}}) for a >= 1
    base = [(-1) ** k for k in range(p)]
    if a == 1:
        return IntPoly(tuple(base))
    step = 2 ** (a - 1)
    coeffs = [0] * ((p - 1) * step + 1)
    for k, c in enumerate(base):
        coeffs[k * step] = c
    return IntPoly(tuple(coeffs))


class CycElem:
    """An element of Z[zeta_n], exact."""

    __slots__ = ("n", "vec", "_canon")

    def __init__(self, n: int, vec: Iterable[int]):
        _supported_conductor(n)
        v = tuple(int(c) for c in vec)
        if len(v) > n:
            raise ValueError("vector longer than conductor")
        self.n = n
        self.vec = v + (0,) * (n - len(v))
        self._canon: tuple[int, ...] | None = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def zero(cls, n: int) -> "CycElem":
        return cls(n, ())

    @classmethod
    def integer(cls, n: int, c: int) -> "CycElem":
        return cls(n, (c,))

    @classmethod
    def root(cls, n: int, k: int = 1) -> "CycElem":
        """zeta_n^k."""
        v = [0] * n
        v[k % n] = 1
        return cls(n, v)

    # -- canonical form ----------------------------------------------------
    def canonical(self) -> tuple[int, ...]:
        """Coefficients of the residue modulo Phi_n (degree < phi(n))."""
        if self._canon is None:
            phi = cyclotomic_polynomial(self.n).coeffs
            _, rem = _poly_divmod_exact(list(self.vec), phi)
            self._canon = tuple(rem)
        return self._canon

    def is_zero(self) -> bool:
        return not self.canonical()

    def is_integer(self) -> bool:
        return len(self.canonical()) <= 1

    def as_integer(self) -> int:
        """The rational-integer value; raises NotAnInteger otherwise."""
        c = self.canonical()
        if len(c) > 1:
            raise NotAnInteger(f"canonical degree {len(c) - 1} in Z[zeta_{self.n}]")
        return c[0] if c else 0

    # -- conductor embedding -----------------------------------------------
    def embed(self, big_n: int) -> "CycElem":
        """Image under zeta_n -> zeta_N^{N/n} for n | N."""
        if big_n == self.n:
            return self
        if big_n % self.n:
            raise ValueError(f"{self.n} does not divide {big_n}")
        step = big_n // self.n
        v = [0] * big_n
        for j, c in enumerate(self.vec):
            if c:
                v[j * step] += c
        return CycElem(big_n, v)

    def _common(self, other: "CycElem") -> tuple["CycElem", "CycElem"]:
        if self.n == other.n:
            return self, other
        lcm = math.lcm(self.n, other.n)
        return self.embed(lcm), other.embed(lcm)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "CycElem | int") -> "CycElem":
        if isinstance(other, int):
            v = list(self.vec)
            v[0] += other
            return CycElem(self.n, v)
        a, b = self._common(other)
        return CycElem(a.n, tuple(x + y for x, y in zip(a.vec, b.vec)))

    __radd__ = __add__

    def __sub__(self, other: "CycElem | int") -> "CycElem":
        return self + (-other)

    def __rsub__(self, other: int) -> "CycElem":
        return (-self) + other

    def __neg__(self) -> "CycElem":
        return CycElem(self.n, tuple(-x for x in self.vec))

    def __mul__(self, other: "CycElem | int") -> "CycElem":
        if isinstance(other, int):
            return CycElem(self.n, tuple(other * x for x in self.vec))
        a, b = self._common(other)
        n = a.n
        out = [0] * n
        for i, x in enumerate(a.vec):
            if x:
                for j, y in enumerate(b.vec):
                    if y:
                        k = i + j
                        out[k - n if k >= n else k] += x * y
        return CycElem(n, out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycElem":
        if e < 0:
            raise ValueError("negative powers are not defined in the ring")
        return power(self, e, operator.mul, CycElem.integer(self.n, 1))

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self.is_integer() and self.as_integer() == other
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = self._common(other)
        return a.canonical() == b.canonical()

    __hash__ = None  # equality crosses conductors; keep these unhashable

    def __repr__(self) -> str:
        return f"CycElem(n={self.n}, canonical={list(self.canonical())})"

    # -- serialization ----------------------------------------------------------
    def to_json_dict(self) -> dict:
        return {"n": self.n, "canonical": [str(c) for c in self.canonical()]}


def frobenius_power_sum(p: int, n: int, r: int) -> CycElem:
    """Sum of zeta_{2^n}^{p^v} for v = 0 .. 2^{r-2}-1, exact in Z[zeta_{2^n}].

    Defined for p = 3, 5 (mod 8), 1 <= n <= 3 and r >= max(n, 3).
    """
    if p % 8 not in (3, 5):
        raise ValueError("p must be 3 or 5 mod 8")
    if not 1 <= n <= 3:
        raise ValueError("n must be in 1..3")
    if r < max(n, 3):
        raise ValueError("r must be >= max(n, 3)")
    mod = 1 << n
    total = CycElem.zero(mod)
    e = 1
    for _ in range(1 << (r - 2)):
        total = total + CycElem.root(mod, e)
        e = e * p % mod
    return total


class IntPoly:
    """Univariate polynomial over Z, little-endian coefficients, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        c = [int(x) for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(out)

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        if isinstance(other, int):
            return IntPoly(tuple(other * c for c in self.coeffs))
        if not self.coeffs or not other.coeffs:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPoly(out)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        return power(self, e, operator.mul, IntPoly((1,)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def to_json_list(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def linear(c: int) -> IntPoly:
    """X + c."""
    return IntPoly((c, 1))


def expand_factor_list(factors: Iterable[tuple[IntPoly, int]]) -> IntPoly:
    """Product of poly^mult over the list; empty product is 1."""
    out = IntPoly((1,))
    for poly, mult in factors:
        out = out * poly**mult
    return out


def poly_from_roots(roots: Sequence[CycElem]) -> list[CycElem]:
    """Coefficients (little-endian, over Z[zeta_n]) of prod (X - root)."""
    if not roots:
        raise ValueError("need at least one root")
    n = roots[0].n
    coeffs = [CycElem.integer(n, 1)]
    for root in roots:
        nxt = [CycElem.zero(n) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * root
        coeffs = nxt
    return coeffs
