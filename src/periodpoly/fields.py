"""Finite field F_{p^s}: construction, element arithmetic and trace.

Elements are dense coordinate vectors in the polynomial basis of
F_p[x]/(modulus). Construction is fully deterministic: the modulus is the
first irreducible in a documented scan order (binomials x^s+c, then
trinomials x^s+b*x^t+c ordered by (t,b,c), then all monic polynomials by
ascending packed key), and the generator is the first element of full order
when elements are enumerated by ascending packed key sum(c_i * p^i).

A binomial x^s - a is decided by its exact rule (Lidl & Niederreiter, Thm
3.75): it is irreducible iff every prime r | s divides ord(a) but not
(p-1)/ord(a), and p = 1 (mod 4) when 4 | s; every other candidate goes
through Ben-Or's test. q - 1 is factored as the product of the Phi_d(p),
d | s. A generator candidate g is tested first by its norm N(g) = Res(modulus,
g) in F_p, which decides every prime l | p-1 (g^{(q-1)/l} = N(g)^{(p-1)/l}),
and then by one product tree over the remaining primes of q - 1.

Every product in the field goes through one kernel, `_poly_mulmod`, which
multiplies by Kronecker substitution (one big-int product per multiply).
A subfield is a FieldCtx of its own (FieldCtx.subfield), so every kernel sees
whole fields only; the trace row comes from Newton's identities on the modulus.

A FieldCtx is immutable after construction; element operations are pure, so
everything here is safe for concurrent use.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .intmath import factorize, is_prime, power


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
    """(a * b) mod modulus over F_p, by Kronecker substitution.

    The modulus is monic of degree s; a and b have at most s coefficients each
    and may be shorter. Each operand, reduced into [0, p), is packed into one
    Python int with w = bitlen(s*(p-1)^2) bits per slot: A = sum a_i 2^{w*i}.
    One big-int product A*B (a square when b is a) then holds the product
    polynomial's coefficients c_k = sum_{i+j=k} a_i b_j in its slots.

    The slots never carry into each other. c_k is a sum of at most s terms,
    since one factor has at most s coefficients, and each term is at most
    (p-1)^2. So 0 <= c_k <= s*(p-1)^2 < 2^w, and A*B = sum c_k 2^{w*k} with
    every c_k below the slot size. Reading slot k therefore gives c_k exactly.

    The slots k >= s are then folded down, from the top, through
    x^s = -(the modulus's nonzero terms below degree s), and every
    coefficient is reduced mod p. Exact for any p: Python ints only.
    """
    s = len(modulus) - 1
    w = (s * (p - 1) ** 2).bit_length()
    packed = 0
    for c in reversed(a):
        packed = (packed << w) | c % p
    if b is a:
        product = packed * packed
    else:
        other = 0
        for c in reversed(b):
            other = (other << w) | c % p
        product = packed * other
    mask = (1 << w) - 1
    out = []
    while product:
        out.append(product & mask)
        product >>= w
    out += [0] * (s - len(out))
    low = [(j - s, p - m) for j, m in enumerate(modulus[:s]) if m % p]
    for i in range(len(out) - 1, s - 1, -1):
        c = out[i] % p
        if c:
            for j, m in low:
                out[i + j] += c * m
    return [c % p for c in out[:s]]


def _poly_powmod(a: Sequence[int], e: int, modulus: Sequence[int], p: int) -> list[int]:
    """a^e mod modulus over F_p, as a fresh length-s list of residues, for e >= 0."""
    s = len(modulus) - 1
    x = [c % p for c in a] + [0] * (s - len(a))
    return power(x, e, lambda u, v: _poly_mulmod(u, v, modulus, p), [1] + [0] * (s - 1))


def _resultant(a: Sequence[int], b: Sequence[int], p: int) -> int:
    """Res(a, b) in F_p, by Euclid on coefficient lists kept free of trailing zeros.

    For monic a it is the product of b over the roots of a, so it is 0 exactly when
    gcd(a, b) is not constant. With a = u*b + r: Res(a, b) = (-1)^{deg a deg b}
    lc(b)^{deg a - deg r} Res(b, r); Res(a, c) = c^{deg a} for a constant c != 0, and
    Res(a, 0) = 0.
    """
    a, b = [c % p for c in a], [c % p for c in b]
    for u in (a, b):
        while u and not u[-1]:
            u.pop()
    if not a or not b:
        return 0
    res = 1
    while len(b) > 1:
        da, db = len(a) - 1, len(b) - 1
        inv = pow(b[-1], -1, p)
        while len(a) > db:
            c = a.pop() * inv % p  # the leading term cancels; only the rest of b is subtracted
            shift = len(a) - db
            for j in range(db):
                a[shift + j] = (a[shift + j] - c * b[j]) % p
            while a and not a[-1]:
                a.pop()
        if not a:
            return 0
        res = res * (-1) ** (da * db) * pow(b[-1], da - len(a) + 1, p) % p
        a, b = b, a
    return res * pow(b[0], len(a) - 1, p) % p


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Monic degree-s polynomial irreducible over F_p? (Ben-Or's test)

    f is reducible exactly when it has an irreducible factor of degree i <= s/2,
    that is when gcd(x^{p^i} - x, f) != 1, or Res(f, x^{p^i} - x) = 0, for some such i.
    """
    s = len(modulus) - 1
    if s < 1 or modulus[-1] != 1:
        raise FieldError("modulus must be monic of positive degree")
    x = [0, 1] + [0] * (s - 2)
    r = x
    for _ in range(s // 2):
        r = _poly_powmod(r, p, modulus, p)  # x^{p^i} mod f
        if not _resultant(modulus, [u - v for u, v in zip(r, x)], p):
            return False
    return True


def _irreducible_binomials(s: int, p: int) -> Iterator[int]:
    """Every c in 1 .. p-1, ascending, with x^s + c irreducible over F_p.

    For s >= 2, x^s - a is irreducible exactly when every prime r | s divides
    ord(a) but not (p-1)/ord(a), and p = 1 (mod 4) when 4 | s (Lidl &
    Niederreiter, Thm 3.75). For a prime r the first part says v_r(ord a) =
    v_r(p-1) >= 1: r | p-1 and a^{(p-1)/r} != 1. So when some r does not divide
    p-1, or 4 | s and p = 3 (mod 4), no c qualifies and nothing is scanned.
    """
    rs = [r for r, _ in factorize(s)]
    if any((p - 1) % r for r in rs) or (s % 4 == 0 and p % 4 != 1):
        return
    for c in range(1, p):
        if all(pow(p - c, (p - 1) // r, p) != 1 for r in rs):
            yield c


def find_irreducible_modulus(p: int, s: int) -> tuple[int, ...]:
    """First irreducible monic degree-s polynomial in the documented scan order."""
    if s == 1:
        return (0, 1)
    for c in _irreducible_binomials(s, p):
        return (c,) + (0,) * (s - 1) + (1,)
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
            raise ValueError("negative powers are not supported; invert with x ** (q - 2)")
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
        """Tr(x) = x + x^p + ... + x^{p^{s-1}}, the Frobenius sum, in F_p."""
        if x.ctx.params != self.params:
            raise FieldError("element belongs to a different field")
        acc = img = x
        for _ in range(self.s - 1):
            img = img**self.p
            acc = acc + img
        return acc.prime_field_value()

    def trace_row(self) -> np.ndarray:
        """Row vector t with t . coords(y) = Tr(y): t_k = Tr(x^k), by Newton's identities.

        For the modulus x^s + c_{s-1} x^{s-1} + ... + c_0, the power sums of its
        roots are t_0 = s and t_k = -(k c_{s-k} + sum_{0<i<k} c_{s-i} t_{k-i})
        (Lidl & Niederreiter, Finite Fields, Thm 1.75).
        """
        s, p, c = self.s, self.p, self.params.modulus
        row = [s % p]
        for k in range(1, s):
            row.append(-(k * c[s - k] + sum(c[s - i] * row[k - i] for i in range(1, k))) % p)
        return np.array(row, dtype=np.int64)

    def subfield(self, k: int) -> "FieldCtx":
        """F_{p^k} as its own field F_p[x]/(f0), with generator gamma0 = x mod f0.

        f0 = prod_{i<k} (X - g0^{p^i}) is the minimal polynomial of the norm
        g0 = gamma^{(q-1)/(p^k-1)} (Lidl & Niederreiter, ch. 2); x -> g0 embeds
        the field, so its traces, discrete logs and counts are those of g0's powers.
        """
        if k < 1 or self.s % k:
            raise FieldError(f"{k} does not divide {self.s}")
        p, q0 = self.p, self.p**k
        f0, conj = [self.one()], self.gamma ** ((self.q - 1) // (q0 - 1))  # f0 little-endian, over F_q
        for _ in range(k):
            f0 = [-(conj * f0[0])] + [a - conj * b for a, b in zip(f0[:-1], f0[1:])] + [f0[-1]]
            conj = conj**p
        modulus = tuple(c.prime_field_value() for c in f0)
        if not is_irreducible(modulus, p):
            raise FieldError(f"the minimal polynomial {list(modulus)} of the norm is reducible")
        fac = []  # every prime of p^k - 1 divides q - 1, with at most its multiplicity v there
        for ell, v in self.q_minus_1_factorization:
            w = next(w for w in range(v, -1, -1) if (q0 - 1) % ell**w == 0)
            fac += [(ell, w)] if w else []
        gamma0 = (-modulus[0] % p,) if k == 1 else (0, 1) + (0,) * (k - 2)
        return FieldCtx(FieldParams(p, k, modulus), gamma0, tuple(fac))

    # -- sweep support ------------------------------------------------------------
    def mul_matrix(self, x: FieldElem) -> np.ndarray:
        """Matrix (mod p) of multiplication by x over the polynomial basis."""
        s = self.s
        mat = np.zeros((s, s), dtype=np.int64)
        col = list(x.coords)
        mat[:, 0] = col
        for j in range(1, s):
            col = _poly_mulmod(col, [0, 1], self.params.modulus, self.p)
            mat[:, j] = col
        return mat

    def gamma_fingerprint(self) -> str:
        text = f"{self.p},{self.s},{self.params.modulus},{self.gamma.coords}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"FieldCtx(F_{self.p}^{self.s}, modulus={list(self.params.modulus)}, gamma={list(self.gamma.coords)})"


def _norm(g: FieldElem) -> int:
    """N(g) = g^{(q-1)/(p-1)} in F_p, as the resultant of the modulus and g.

    The norm is the product of the conjugates g(x^{p^i}), i < s, that is of g(a)
    over the roots a of the modulus (Lidl & Niederreiter, ch. 2); zero has norm 0.
    """
    return _resultant(g.ctx.params.modulus, g.coords, g.ctx.p)


def _first_unit_leaf(h: FieldElem, primes: list[int]) -> int | None:
    """First l in primes with h^{P/l} = 1, P the product of primes; None when there is none.

    A halving tree (von zur Gathen & Gerhard, Modern Computer Algebra, 10.1): the
    left half of the primes sees h raised to the product of the right half, and
    the right half sees h raised to the product of the left. The left half is
    searched first, so leaves are visited in the order of primes.
    """
    if h == h.ctx.one():
        return primes[0]
    if len(primes) == 1:
        return None
    left, right = primes[: len(primes) // 2], primes[len(primes) // 2 :]
    return _first_unit_leaf(h ** math.prod(right), left) or _first_unit_leaf(h ** math.prod(left), right)


def _order_defect(g: FieldElem) -> int | None:
    """A prime l | q-1 with g^{(q-1)/l} = 1, or None when g generates F_q^*.

    The primes l | p-1 are decided in F_p, in ascending order, by the norm:
    g^{(q-1)/l} = N(g)^{(p-1)/l}. The others, l_1 < ... < l_k, go down one
    product tree from h = g^{(q-1)/(l_1...l_k)}, and the first l found is returned.
    Zero raises FieldError.
    """
    ctx = g.ctx
    p = ctx.p
    norm = _norm(g)
    if norm == 0:
        raise FieldError("zero is not in the multiplicative group")
    rest = []
    for ell, _ in ctx.q_minus_1_factorization:
        if (p - 1) % ell:
            rest.append(ell)
        elif pow(norm, (p - 1) // ell, p) == 1:
            return ell
    if not rest:
        return None
    return _first_unit_leaf(g ** ((ctx.q - 1) // math.prod(rest)), rest)


def find_generator(ctx: FieldCtx) -> FieldElem:
    """First generator of F_q^* in ascending packed-key order.

    For s > 1 the keys 1 .. p-1 are F_p^*, which has no generator of F_q^*,
    so the search starts at key p.
    """
    for key in range(ctx.p if ctx.s > 1 else 1, ctx.q):
        g = ctx.from_packed(key)
        if _order_defect(g) is None:
            return g
    raise FieldError("no generator found")  # unreachable: the group is cyclic


def _factor_q_minus_1(p: int, s: int) -> tuple[tuple[int, int], ...]:
    """factorize(p^s - 1), merged from the factorizations of the Phi_d(p), d | s.

    p^s - 1 = prod_{d | s} Phi_d(p) (Lidl & Niederreiter, ch. 2, section 4), and each
    Phi_d(p) = (p^d - 1) / prod_{e | d, e < d} Phi_e(p) is factored on its own:
    it has about phi(d) log2(p) bits, where p^s - 1 has s log2(p).
    """
    phi: dict[int, int] = {}
    exponents: dict[int, int] = {}
    for d in (d for d in range(1, s + 1) if s % d == 0):
        phi[d] = (p**d - 1) // math.prod(v for e, v in phi.items() if d % e == 0)
        for ell, k in factorize(phi[d]):
            exponents[ell] = exponents.get(ell, 0) + k
    return tuple(sorted(exponents.items()))


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
    fac = _factor_q_minus_1(p, s)
    # Bootstrap: a throwaway ctx with gamma=1 just to run the generator search.
    boot = FieldCtx(FieldParams(p, s, tuple(modulus)), (1,) + (0,) * (s - 1), fac)
    gamma = find_generator(boot)
    return FieldCtx(boot.params, gamma.coords, fac)
