"""Finite field F_{p^s}: construction, element arithmetic and trace.

Elements are dense coordinate vectors in the polynomial basis of
F_p[x]/(modulus). Construction is fully deterministic: the modulus is the
first irreducible in a documented scan order (binomials x^s+c, then
trinomials x^s+b*x^t+c ordered by (t,b,c), then all monic polynomials by
ascending packed key), and the generator is the first element of full order
when elements are enumerated by ascending packed key sum(c_i * p^i).

A FieldCtx is immutable after construction; element operations are pure, so
everything here is safe for concurrent use.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .intmath import factorize, is_prime


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class FieldParams:
    p: int
    s: int
    modulus: tuple[int, ...]  # little-endian, monic, length s + 1

    def to_json_dict(self) -> dict:
        return {"p": self.p, "s": self.s, "modulus": list(self.modulus)}


def _poly_mulmod(a: Sequence[int], b: Sequence[int], modulus: Sequence[int], p: int) -> list[int]:
    """(a * b) mod modulus over F_p; inputs have length <= s, modulus monic of degree s."""
    s = len(modulus) - 1
    out = [0] * (2 * s - 1) if s > 1 else [0]
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, s - 1, -1):
        c = out[i]
        if c:
            out[i] = 0
            for j in range(s):
                out[i - s + j] = (out[i - s + j] - c * modulus[j]) % p
    return out[:s]


def _poly_powmod(a: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list[int]:
    s = len(modulus) - 1
    result = [1] + [0] * (s - 1)
    base = list(a)
    while e:
        if e & 1:
            result = _poly_mulmod(result, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return result


def _poly_gcd_is_one(a: list[int], b: list[int], p: int) -> bool:
    """gcd over F_p[x] is constant?"""

    def deg(u: list[int]) -> int:
        d = len(u) - 1
        while d >= 0 and u[d] == 0:
            d -= 1
        return d

    a, b = list(a), list(b)
    while deg(b) >= 0:
        da, db = deg(a), deg(b)
        inv = pow(b[db], p - 2, p)
        while da >= db:
            c = a[da] * inv % p
            for j in range(db + 1):
                a[da - db + j] = (a[da - db + j] - c * b[j]) % p
            da = deg(a)
        a, b = b, a
    return deg(a) <= 0


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Monic degree-s polynomial irreducible over F_p? (Ben-Or's test)

    f is reducible exactly when it has an irreducible factor of degree i <= s/2,
    that is when gcd(x^{p^i} - x, f) != 1 for some such i.
    """
    s = len(modulus) - 1
    if s < 1 or modulus[-1] != 1:
        raise FieldError("modulus must be monic of positive degree")
    x = [0, 1] + [0] * (s - 2)
    r = x
    for _ in range(s // 2):
        r = _poly_powmod(r, p, modulus, p)  # x^{p^i} mod f
        if not _poly_gcd_is_one([(u - v) % p for u, v in zip(r, x)], list(modulus), p):
            return False
    return True


def find_irreducible_modulus(p: int, s: int) -> tuple[int, ...]:
    """First irreducible monic degree-s polynomial in the documented scan order."""
    if s == 1:
        return (0, 1)
    for c in range(1, p):
        f = (c,) + (0,) * (s - 1) + (1,)
        if is_irreducible(f, p):
            return f
    for t in range(1, s):
        for b in range(1, p):
            for c in range(1, p):
                coeffs = [0] * (s + 1)
                coeffs[0], coeffs[t], coeffs[s] = c, b, 1
                f = tuple(coeffs)
                if is_irreducible(f, p):
                    return f
    for key in range(p**s):
        coeffs = []
        k = key
        for _ in range(s):
            coeffs.append(k % p)
            k //= p
        f = tuple(coeffs) + (1,)
        if is_irreducible(f, p):
            return f
    raise FieldError(f"no irreducible degree-{s} polynomial over F_{p}")  # unreachable


class FieldElem:
    """Element of F_{p^s} as a coordinate vector in the polynomial basis."""

    __slots__ = ("ctx", "coords")

    def __init__(self, ctx: "FieldCtx", coords: Iterable[int]):
        self.ctx = ctx
        self.coords = tuple(int(c) % ctx.p for c in coords)
        if len(self.coords) != ctx.s:
            raise FieldError("coordinate vector has wrong length")

    def _check(self, other: "FieldElem") -> None:
        if self.ctx.params != other.ctx.params:
            raise FieldError("elements belong to different fields")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        p = self.ctx.p
        return FieldElem(self.ctx, ((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        p = self.ctx.p
        return FieldElem(self.ctx, ((a - b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.ctx, (-a % self.ctx.p for a in self.coords))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        return FieldElem(
            self.ctx,
            _poly_mulmod(self.coords, other.coords, self.ctx.params.modulus, self.ctx.p),
        )

    def __pow__(self, e: int) -> "FieldElem":
        if e < 0:
            inv = self ** (self.ctx.q - 2)
            return inv ** (-e)
        return FieldElem(self.ctx, _poly_powmod(self.coords, e, self.ctx.params.modulus, self.ctx.p))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.ctx.params == other.ctx.params and self.coords == other.coords

    def __hash__(self) -> int:
        return hash((self.ctx.params, self.coords))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def prime_field_value(self) -> int:
        """The value in F_p; raises if the element is not in the prime subfield."""
        if not self.in_prime_field():
            raise FieldError(f"{self.coords} is not in the prime field")
        return self.coords[0]

    def __repr__(self) -> str:
        return f"FieldElem({list(self.coords)} over F_{self.ctx.p}^{self.ctx.s})"


class FieldCtx:
    """Immutable description of F_{p^s} with a fixed generator gamma."""

    def __init__(
        self,
        params: FieldParams,
        gamma_coords: tuple[int, ...],
        q_minus_1_factorization: tuple[tuple[int, int], ...],
    ):
        self.params = params
        self.p = params.p
        self.s = params.s
        self.q = params.p**params.s
        self.q_minus_1_factorization = q_minus_1_factorization
        self.gamma = FieldElem(self, gamma_coords)
        self._trace_row = tuple(int(t) for t in self.subfield_trace_row(self.s))

    # -- element constructors -------------------------------------------------
    def zero(self) -> FieldElem:
        return FieldElem(self, (0,) * self.s)

    def one(self) -> FieldElem:
        return self.from_int(1)

    def from_int(self, c: int) -> FieldElem:
        return FieldElem(self, (c,) + (0,) * (self.s - 1))

    def from_packed(self, key: int) -> FieldElem:
        coords = []
        for _ in range(self.s):
            coords.append(key % self.p)
            key //= self.p
        return FieldElem(self, coords)

    # -- maps -------------------------------------------------------------------
    def trace(self, x: FieldElem) -> int:
        """Tr(x) = x + x^p + ... + x^{p^{s-1}}, returned as an element of F_p."""
        if x.ctx.params != self.params:
            raise FieldError("element belongs to a different field")
        return sum(c * t for c, t in zip(x.coords, self._trace_row)) % self.p

    def subfield_trace(self, x: FieldElem, s_sub: int) -> int:
        """Trace from the subfield F_{p^{s_sub}} down to F_p, for x in that subfield."""
        if self.s % s_sub:
            raise FieldError(f"{s_sub} does not divide {self.s}")
        acc = x
        img = x
        for _ in range(s_sub - 1):
            img = img**self.p
            acc = acc + img
        return acc.prime_field_value()

    # -- sweep support ------------------------------------------------------------
    def mul_matrix(self, x: FieldElem) -> np.ndarray:
        """Matrix (mod p) of multiplication by x over the polynomial basis."""
        s = self.s
        mat = np.zeros((s, s), dtype=np.int64)
        basis = list(x.coords)
        col = basis
        mat[:, 0] = col
        for j in range(1, s):
            col = _poly_mulmod(col, [0, 1] + [0] * (s - 2) if s > 1 else [1], self.params.modulus, self.p)
            mat[:, j] = col
        return mat

    def trace_row(self) -> np.ndarray:
        return np.array(self._trace_row, dtype=np.int64)

    def subfield_trace_row(self, s_sub: int) -> np.ndarray:
        """Row vector t with t . coords(y) = Tr_{F_{p^{s_sub}}/F_p}(y) for subfield y."""
        if self.s % s_sub:
            raise FieldError(f"{s_sub} does not divide {self.s}")
        # Matrix of the p-power Frobenius: columns are coords of (x^i)^p
        s = self.s
        frob = np.zeros((s, s), dtype=np.int64)
        xpow = _poly_powmod([0, 1] + [0] * (s - 2) if s > 1 else [1], self.p, self.params.modulus, self.p)
        col = [1] + [0] * (s - 1)
        for j in range(s):
            frob[:, j] = col
            col = _poly_mulmod(col, xpow, self.params.modulus, self.p)
        total = np.zeros((s, s), dtype=np.int64)
        acc = np.eye(s, dtype=np.int64)
        for _ in range(s_sub):
            total = (total + acc) % self.p
            acc = acc @ frob % self.p
        return total[0, :].copy()

    def with_generator(self, g: FieldElem) -> "FieldCtx":
        """Same field, different (validated) generator."""
        if g.ctx.params != self.params:
            raise FieldError("generator belongs to a different field")
        if g.is_zero():
            raise FieldError("zero cannot generate the multiplicative group")
        ell = _order_defect(g)
        if ell is not None:
            raise FieldError(f"element has order dividing (q-1)/{ell}")
        return FieldCtx(self.params, g.coords, self.q_minus_1_factorization)

    def gamma_fingerprint(self) -> str:
        text = f"{self.p},{self.s},{self.params.modulus},{self.gamma.coords}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"FieldCtx(F_{self.p}^{self.s}, modulus={list(self.params.modulus)}, gamma={list(self.gamma.coords)})"


def _order_defect(g: FieldElem) -> int | None:
    """First prime l | q-1 with g^{(q-1)/l} = 1, or None when the nonzero g generates F_q^*."""
    ctx = g.ctx
    one = ctx.one()
    for ell, _ in ctx.q_minus_1_factorization:
        if g ** ((ctx.q - 1) // ell) == one:
            return ell
    return None


def find_generator(ctx: FieldCtx) -> FieldElem:
    """First generator of F_q^* in ascending packed-key order."""
    for key in range(1, ctx.q):
        g = ctx.from_packed(key)
        if _order_defect(g) is None:
            return g
    raise FieldError("no generator found")  # unreachable: the group is cyclic


def build_field(p: int, s: int, modulus: Sequence[int] | None = None) -> FieldCtx:
    """Construct F_{p^s} deterministically.

    An explicit modulus (little-endian, monic, degree s) may be supplied to
    exercise the isomorphism-invariance of downstream outputs; it is checked
    for irreducibility.
    """
    if s < 1:
        raise FieldError("s must be >= 1")
    if not is_prime(p) or p == 2:
        raise FieldError(f"{p} is not an odd prime")
    if modulus is None:
        modulus = find_irreducible_modulus(p, s)
    else:
        modulus = tuple(int(c) % p for c in modulus[:-1]) + (int(modulus[-1]),)
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree s")
        if not is_irreducible(modulus, p):
            raise FieldError("modulus is not irreducible")
    fac = factorize(p**s - 1)
    # Bootstrap: a throwaway ctx with gamma=1 just to run the generator search.
    boot = FieldCtx(FieldParams(p, s, tuple(modulus)), (1,) + (0,) * (s - 1), fac)
    gamma = find_generator(boot)
    return FieldCtx(boot.params, gamma.coords, fac)
