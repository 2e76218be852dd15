"""Exact arithmetic in Z[zeta_n] and in Z[X].

Conductors are restricted to the shapes n = p, 2^a, or 2^a*p (p an odd prime):
the only rings the rest of the package ever touches. A CycElem is stored as a
group-ring vector modulo x^n - 1 (multiplication is a cyclic convolution),
with a lazily computed canonical form: the remainder modulo the cyclotomic
polynomial Phi_n, reached by two folds and no division (CycElem.canonical).
Equality and serialization go through the canonical form; no floating point is
involved in any decision. Sums, differences and comparisons take two CycElems
(a rational integer c enters as CycElem.integer(n, c)); an integer only
multiplies.

The public constructors, CycElem(n, vec) and IntPoly(coeffs), validate outside
input: every value an integer (operator.index, so a float raises TypeError), a
vector no longer than a supported conductor, trailing zeros of a polynomial
stripped. Ring operations build their results directly (CycElem._from_vec,
IntPoly._from_coeffs), since what they compute is already exact: n Python ints
at a supported conductor, and a product of nonzero polynomials over Z, whose
leading coefficient is the nonzero product of theirs. Sums of polynomials still
strip the zeros that cancelling leading terms leave.

Every product in Z[zeta_n] goes through one kernel, `_kron_mul`, the cyclic
product of two length-n vectors. `CycElem.__mul__` calls it at the conductor;
`expand_mod` calls it once per node of a balanced product tree, on coefficient
vectors zero-padded to the length of their product. `root_of_unity_mod` gives
the ring map Z[zeta_n] -> Z/N. `expand_factor_list` multiplies a factor list
in Z[X] out one factor occurrence at a time, with no powers: each product
loops over its short side, the factor, with one scaled add of the product.

The bound. Slot k <= 2n - 2 of the linear product collects
c_k = sum_{s+t=k} a_s * b_t, at most n pairs, so |c_k| <= n * max|a| * max|b| = M,
with both heights taken as at least 1, so that M also bounds max|a| and max|b|.
Every partial sum of c_k, and every cyclic slot c_k + c_{k+n} (n pairs in all),
is bounded by M as well. So while M < 2^63 the kernel is one np.convolve in
int64, exact, with the slots k >= n folded onto k - n. Otherwise it is one
big-int product by Kronecker substitution (von zur Gathen and Gerhard, Modern
Computer Algebra, 8.4), which `expand_mod` and the large Davenport-Hasse powers
take. np.convolve is quadratic in n and CPython's big-int product is not, so
the kernel also packs past n = _CONVOLVE_MAX_N, within the bound or not: on a
2-vCPU Xeon the two cross between n = 1,536 and 2,560 at heights 1 to 30, and
near n = 4,000 for squares at height 10^6 (BENCH_identity_arith.json).

The packing. Vector a fills n slots of wb bytes, one signed entry each:
A = sum_t a_t * 2^{8*wb*t}, likewise B, so slot k of A*B holds c_k.
With wb = ceil((bitlen(M) + 2) / 8), 2^{8*wb - 1} > M: adding the bias
2^{8*wb - 1} to each slot gives digits in [0, 2^{8*wb}), with no borrow or carry
between slots. One `to_bytes` of A*B + (bias in every slot) and one
`int.from_bytes` per slot read every c_k; slot k >= n is folded onto k - n.
Operands are packed the same way, from biased digits, less the packed bias.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Sequence

import numpy as np

from .intmath import is_prime, power


@functools.cache
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


_CONVOLVE_MAX_N = 1536  # the longest vectors _kron_mul convolves in int64 (module docstring)


def _biases(wb: int, slots: int) -> int:
    """The int with the bias 2^{8*wb - 1} in each of `slots` wb-byte slots."""
    return int.from_bytes((1 << (8 * wb - 1)).to_bytes(wb, "little") * slots, "little")


def _pack(vec: Sequence[int], wb: int) -> int:
    """The int whose wb-byte slots hold the entries of vec."""
    bias = 1 << (8 * wb - 1)
    raw = b"".join([(c + bias).to_bytes(wb, "little") for c in vec])
    return int.from_bytes(raw, "little") - _biases(wb, len(vec))


def _kron_mul(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """a * b in Z[x]/(x^n - 1) for a, b vectors of n ints, as a list of Python ints.

    One int64 np.convolve while M = n * max|a| * max|b| < 2^63 and n <= _CONVOLVE_MAX_N,
    else one big-int product; the bound and the packing are in the module docstring.
    Pass the same object twice for a square.
    """
    height = max(1, max(a), -min(a))
    big = n * height * (height if b is a else max(1, max(b), -min(b)))
    if big < 1 << 63 and n <= _CONVOLVE_MAX_N:
        u = np.array(a, dtype=np.int64)
        c = np.convolve(u, u if b is a else np.array(b, dtype=np.int64))
        c[: n - 1] += c[n:]
        return c[:n].tolist()
    wb = (big.bit_length() + 9) // 8
    packed = _pack(a, wb)
    product = packed * (packed if b is a else _pack(b, wb))
    slots = 2 * n - 1
    bias = 1 << (8 * wb - 1)
    raw = (product + _biases(wb, slots)).to_bytes(wb * slots, "little")
    c = [int.from_bytes(raw[i : i + wb], "little") - bias for i in range(0, wb * slots, wb)]
    return list(map(operator.add, c[:n], c[n:] + [0]))


def _scalar(x: object) -> int | None:
    """x as an int if it is an integral scalar (int, bool, a numpy integer), else None."""
    try:
        return operator.index(x)
    except TypeError:
        return None


class CycElem:
    """An element of Z[zeta_n], exact."""

    __slots__ = ("n", "vec", "_canon")

    def __init__(self, n: int, vec: Iterable[int]):
        """Validate outside input: a supported conductor n and at most n integers, zero-padded to n."""
        _supported_conductor(n)
        v = tuple(map(operator.index, vec))
        if len(v) > n:
            raise ValueError("vector longer than conductor")
        self.n = n
        self.vec = v + (0,) * (n - len(v))
        self._canon: tuple[int, ...] | None = None

    # -- constructors ------------------------------------------------------
    @classmethod
    def _from_vec(cls, n: int, vec: tuple[int, ...]) -> "CycElem":
        """The element with vector vec, taken as it is: a ring result, n Python ints at a supported n."""
        out = object.__new__(cls)
        out.n, out.vec, out._canon = n, vec, None
        return out

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
        """Coefficients of the residue modulo Phi_n (degree < phi(n)), by two folds.

        For even n, Phi_n divides x^{n/2} + 1: the top half of the vector goes onto the
        bottom half with its sign flipped. That is all for n = 2^a. If an odd prime p
        divides n, the vector then has p blocks of width w, and with y = x^w,
        Phi_n = sum_{i<p} (+-y)^i (minus exactly for even n; Washington, Introduction
        to Cyclotomic Fields, ch. 2): y^{p-1} = -sum_{i<p-1} (+-y)^i folds the top block
        onto the others in one pass.
        """
        if self._canon is None:
            vec = list(self.vec)
            if self.n % 2 == 0:
                half = self.n // 2
                vec = list(map(operator.sub, vec[:half], vec[half:]))
            p = _supported_conductor(self.n)[1]
            if p > 1:
                w = len(vec) // p
                top = vec[-w:]
                alt = [-c for c in top] if self.n % 2 == 0 else top
                vec = list(map(operator.sub, vec[:-w], (top + alt) * ((p - 1) // 2)))
            while vec and vec[-1] == 0:
                vec.pop()
            self._canon = tuple(vec)
        return self._canon

    # -- conductor embedding -----------------------------------------------
    def embed(self, big_n: int) -> "CycElem":
        """Image under zeta_n -> zeta_N^{N/n} for n | N."""
        if big_n == self.n:
            return self
        if big_n % self.n:
            raise ValueError(f"{self.n} does not divide {big_n}")
        _supported_conductor(big_n)
        v = [0] * big_n
        v[:: big_n // self.n] = self.vec
        return CycElem._from_vec(big_n, tuple(v))

    def _common(self, other: "CycElem") -> tuple["CycElem", "CycElem"]:
        if self.n == other.n:
            return self, other
        lcm = math.lcm(self.n, other.n)
        return self.embed(lcm), other.embed(lcm)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "CycElem") -> "CycElem":
        if not isinstance(other, CycElem):
            return NotImplemented
        a, b = self._common(other)
        return CycElem._from_vec(a.n, tuple(map(operator.add, a.vec, b.vec)))

    def __sub__(self, other: "CycElem") -> "CycElem":
        return self + (-other)

    def __neg__(self) -> "CycElem":
        return CycElem._from_vec(self.n, tuple(map(operator.neg, self.vec)))

    def __mul__(self, other: "CycElem | int") -> "CycElem":
        if not isinstance(other, CycElem):
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return CycElem._from_vec(self.n, tuple(map(k.__mul__, self.vec)))
        a, b = self._common(other)
        return CycElem._from_vec(a.n, tuple(_kron_mul(a.vec, b.vec, a.n)))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycElem":
        if e < 0:
            raise ValueError("negative powers are not defined in the ring")
        return power(self, e, operator.mul, CycElem.integer(self.n, 1))

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
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
    counts = [0] * mod  # counts[k]: how many v have p^v = k (mod 2^n)
    e = 1
    for _ in range(1 << (r - 2)):
        counts[e] += 1
        e = e * p % mod
    return CycElem(mod, counts)


class IntPoly:
    """Univariate polynomial over Z, little-endian coefficients, no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        """Validate outside input: integers, trailing zeros stripped."""
        c = list(map(operator.index, coeffs))
        while c and c[-1] == 0:
            c.pop()
        self.coeffs = tuple(c)

    @classmethod
    def _from_coeffs(cls, coeffs: tuple[int, ...]) -> "IntPoly":
        """The polynomial with coefficients coeffs, taken as they are: a ring result, Python ints, no trailing zero."""
        out = object.__new__(cls)
        out.coeffs = coeffs
        return out

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
        return IntPoly._from_coeffs(tuple(map(operator.neg, self.coeffs)))

    def __mul__(self, other: "IntPoly | int") -> "IntPoly":
        """Schoolbook product, the shorter operand's nonzero terms outside: one scaled add each.

        Over Z the leading coefficient of a product of nonzero polynomials is the nonzero
        product of theirs, so only a zero operand or scalar can give a trailing zero.
        """
        if not isinstance(other, IntPoly):
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return IntPoly._from_coeffs(tuple(map(k.__mul__, self.coeffs)) if k else ())
        short, long = self.coeffs, other.coeffs
        if len(short) > len(long):
            short, long = long, short
        if not short:
            return IntPoly._from_coeffs(())
        out = [0] * (len(short) + len(long) - 1)
        for i, a in enumerate(short):
            if a:
                out[i : i + len(long)] = [x + a * y for x, y in zip(out[i:], long)]
        return IntPoly._from_coeffs(tuple(out))

    __rmul__ = __mul__

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"IntPoly({list(self.coeffs)})"

    def to_json_list(self) -> list[str]:
        return [str(c) for c in self.coeffs]


def linear(c: int) -> IntPoly:
    """X + c."""
    return IntPoly((c, 1))


def canonical_factors(factors: Iterable[tuple[IntPoly, int]]) -> tuple[tuple[IntPoly, int], ...]:
    """Merge coincident factors and order by (degree, coefficient list)."""
    merged: dict[tuple[int, ...], int] = {}
    for poly, mult in factors:
        merged[poly.coeffs] = merged.get(poly.coeffs, 0) + mult
    ordered = sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return tuple((IntPoly(coeffs), mult) for coeffs, mult in ordered)


def expand_factor_list(factors: Iterable[tuple[IntPoly, int]]) -> IntPoly:
    """Product of poly^mult over the list, one product per factor occurrence; empty product is 1.

    A negative multiplicity raises ValueError.
    """
    factors = list(factors)
    negative = [mult for _, mult in factors if mult < 0]
    if negative:
        raise ValueError(f"negative multiplicity {negative[0]}")
    return functools.reduce(operator.mul, (poly for poly, mult in factors for _ in range(mult)), IntPoly((1,)))


def root_of_unity_mod(n: int, bound: int) -> tuple[int, int]:
    """(N, omega) with omega of order n mod N, so zeta_n -> omega is a ring map Z[zeta_n] -> Z/N.

    N = ell^j > bound for the least prime ell = 1 (mod 2n); omega is the first x^{(ell-1)/n}
    mod ell, x = 2, 3, ..., of exact order n (omega^{n/d} != 1 for each prime d | n), lifted
    by Newton's iteration on x^n - 1. As ell does not divide n, x^n - 1 = prod_{d|n} Phi_d
    is squarefree mod ell, so Phi_n is the one factor with a root at omega, and every other
    Phi_d(omega) is a unit: omega^n = 1 (mod N) with that order gives Phi_n(omega) = 0 (mod N).
    """
    p = _supported_conductor(n)[1]
    primes = [d for d in (2, p) if d > 1 and n % d == 0]
    ell = next(ell for ell in itertools.count(2 * n + 1, 2 * n) if is_prime(ell))

    def of_order_n(w: int, mod: int) -> bool:
        # order test mod ell on purpose: stronger than mod N, and Newton keeps omega mod ell
        return pow(w, n, mod) == 1 and all(pow(w, n // d, ell) != 1 for d in primes)

    omega = next(w for w in (pow(x, (ell - 1) // n, ell) for x in itertools.count(2)) if of_order_n(w, ell))
    digits, modulus = 1, ell
    while modulus <= bound:
        digits, modulus = digits + 1, modulus * ell
    for k in range(digits.bit_length()):  # n*x^{n-1} is a unit mod ell, as ell > n
        mod = ell ** min(2 << k, digits)  # the ell-adic digits of omega that are right double
        below = pow(omega, n - 1, mod)
        omega = (omega - (below * omega - 1) * pow(n * below, -1, mod)) % mod
    if not of_order_n(omega, modulus):
        raise ArithmeticError(f"Newton's lift left omega without order {n} mod {ell}^{digits}")
    return modulus, omega


def expand_mod(roots: Sequence[int], modulus: int) -> list[int]:
    """Coefficients (little-endian, in [0, modulus)) of prod (X - r) mod modulus.

    A balanced product tree; each node zero-pads its factors to the length of their product.
    """

    def product(lo: int, hi: int) -> list[int]:
        if hi - lo < 2:
            return [-roots[lo] % modulus, 1] if hi > lo else [1]
        mid = (lo + hi) // 2
        f, g = product(lo, mid), product(mid, hi)
        n = len(f) + len(g) - 1
        return [c % modulus for c in _kron_mul(f + [0] * (n - len(f)), g + [0] * (n - len(g)), n)]

    return product(0, len(roots))
