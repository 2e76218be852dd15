"""Exact arithmetic in Z[zeta_n] and in Z[X].

Conductors are restricted to the shapes n = p, 2^a, or 2^a*p (p an odd prime):
the only rings the rest of the package ever touches. A CycElem is stored as a
group-ring vector modulo x^n - 1 (multiplication is a cyclic convolution),
with a lazily computed canonical form: the remainder modulo the cyclotomic
polynomial Phi_n. Equality, integrality and serialization always go through
the canonical form; no floating point is involved in any decision.

Every product in Z[zeta_n] goes through one kernel, `_kron_mul`, which
multiplies two polynomials in X with coefficients in Z[x]/(x^n - 1) by
Kronecker substitution: one big-int product per call (von zur Gathen and
Gerhard, Modern Computer Algebra, 8.4). `CycElem.__mul__` calls it on
polynomials of degree 0; `poly_from_roots` calls it once per node of a
balanced product tree.

The packing. Each X-coefficient of f (a vector a_0 .. a_{n-1}) fills a block
of 2n - 1 slots, n for its entries and n - 1 zero slots, so block i of f starts
at slot i*(2n - 1). Each slot is wb bytes wide and holds a signed entry:
F = sum over i, t of f_i[t] * 2^{8*wb*(i*(2n - 1) + t)}, likewise G. In F*G,
slot k*(2n - 1) + t with t <= 2n - 2 collects exactly

    c = sum over i + j = k of sum over a + b = t of f_i[a] * g_j[b],

since a + b <= 2n - 2 never reaches the next block. There are at most
min(len f, len g) pairs (i, j) and at most n pairs (a, b), so with
A = max|f_i[a]| and B = max|g_j[b]|

    |c| <= min(len f, len g) * n * A * B = M.

The kernel takes wb = ceil((bitlen(M') + 2) / 8) with M' = M computed with
max(A, 1) and max(B, 1), so that M' >= M, M' >= A and M' >= B. Then
2^{8*wb - 1} >= 2^{bitlen(M') + 1} > M', so every entry of the operands and
every slot c of the product lies strictly inside (-2^{8*wb - 1}, 2^{8*wb - 1}).
Adding the bias 2^{8*wb - 1} to every slot therefore gives digits in
[0, 2^{8*wb}): the base-2^{8*wb} digits of F*G + (bias in every slot) are
exactly c + bias, with no borrow or carry between slots. One `to_bytes` of
that sum and one `int.from_bytes` per slot read every c exactly. Operands are
packed the same way, biased digits from one `to_bytes` each, and the packed
bias is subtracted. The ring is Z[x]/(x^n - 1), so slot t >= n of each block
is folded onto t - n.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import Iterable, Sequence

from .intmath import is_prime, power


class NotAnInteger(ValueError):
    """Raised when a cyclotomic integer is asked for its rational value but has none."""


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


@functools.cache
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


def _height(poly: Sequence[Sequence[int]]) -> int:
    """max(1, the largest |entry| of poly's X-coefficients)."""
    return max(1, max(max(max(v), -min(v)) for v in poly))


def _biases(wb: int, slots: int) -> int:
    """The int with the bias 2^{8*wb - 1} in each of `slots` wb-byte slots."""
    return int.from_bytes((1 << (8 * wb - 1)).to_bytes(wb, "little") * slots, "little")


def _pack(poly: Sequence[Sequence[int]], n: int, wb: int) -> int:
    """The int whose wb-byte slots hold poly's X-coefficients, one block of 2n - 1 slots each."""
    bias = 1 << (8 * wb - 1)
    gap = bias.to_bytes(wb, "little") * (n - 1)
    raw = gap.join(b"".join([(c + bias).to_bytes(wb, "little") for c in vec]) for vec in poly)
    return int.from_bytes(raw, "little") - _biases(wb, len(raw) // wb)


def _kron_mul(f: Sequence[Sequence[int]], g: Sequence[Sequence[int]], n: int) -> list[list[int]]:
    """f * g for f, g polynomials in X over Z[x]/(x^n - 1), by one big-int product.

    f and g are non-empty lists of X-coefficients, each a vector of n ints; the
    result has len f + len g - 1 of them. Pass the same object twice for a
    square. The packing and its slot bound are in the module docstring.
    """
    height = _height(f)
    big = min(len(f), len(g)) * n * height * (height if g is f else _height(g))
    wb = (big.bit_length() + 9) // 8
    packed = _pack(f, n, wb)
    product = packed * (packed if g is f else _pack(g, n, wb))
    stride = 2 * n - 1
    slots = (len(f) + len(g) - 1) * stride
    bias = 1 << (8 * wb - 1)
    raw = (product + _biases(wb, slots)).to_bytes(wb * slots, "little")
    c = [int.from_bytes(raw[i : i + wb], "little") - bias for i in range(0, wb * slots, wb)]
    out = []
    for start in range(0, slots, stride):
        block = c[start : start + stride]
        vec = list(map(operator.add, block[: n - 1], block[n:]))
        vec.append(block[n - 1])
        out.append(vec)
    return out


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
        if not isinstance(other, CycElem):
            k = _scalar(other)
            if k is None:
                return NotImplemented
            v = list(self.vec)
            v[0] += k
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
        if not isinstance(other, CycElem):
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return CycElem(self.n, tuple(k * x for x in self.vec))
        a, b = self._common(other)
        f = [a.vec]
        (vec,) = _kron_mul(f, f if b is a else [b.vec], a.n)
        return CycElem(a.n, vec)

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "CycElem":
        if e < 0:
            raise ValueError("negative powers are not defined in the ring")
        return power(self, e, operator.mul, CycElem.integer(self.n, 1))

    # -- comparisons ---------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycElem):
            k = _scalar(other)
            if k is None:
                return NotImplemented
            return self.is_integer() and self.as_integer() == k
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
    """Coefficients (little-endian) of prod (X - root), over Z[zeta_N] for N the lcm of the roots' conductors.

    A balanced product tree of the linear factors: one `_kron_mul` per internal node.
    """
    if not roots:
        raise ValueError("need at least one root")
    n = math.lcm(*(root.n for root in roots))
    one = (1,) + (0,) * (n - 1)

    def product(lo: int, hi: int) -> list:
        if hi - lo == 1:
            return [[-c for c in roots[lo].embed(n).vec], one]
        mid = (lo + hi) // 2
        return _kron_mul(product(lo, mid), product(mid, hi), n)

    return [CycElem(n, vec) for vec in product(0, len(roots))]
