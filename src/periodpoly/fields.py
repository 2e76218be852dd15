"""Finite field F_{p^s}: construction, element arithmetic and the trace row.

Elements are dense coordinate vectors in the polynomial basis of
F_p[x]/(modulus). Construction is fully deterministic: the modulus is the
first irreducible in a documented scan order (binomials x^s+c, then
trinomials x^s+b*x^t+c ordered by (t,b,c), then all monic polynomials by
ascending packed key), and the generator is the first element of full order
when elements are enumerated by ascending packed key sum(c_i * p^i).

A binomial is decided by its exact rule (Lidl & Niederreiter, Thm 3.75), every
other candidate by `is_irreducible`: roots, the discriminant's parity, Ben-Or.
q - 1 is factored as the product of the Phi_d(p), d | s. A generator
candidate g is tested first by its norm N(g) = Res(modulus, g) in F_p, which
decides every prime l | p-1 (g^{(q-1)/l} = N(g)^{(p-1)/l}), and then by one
product tree over the remaining primes of q - 1.

Every product in the field goes through one kernel, `_mul`: np.convolve of the
two residue vectors, then one product with the modulus's cached reduction
matrix, in int64 while s*(p-1)^2 < 2^63 and on Python ints (dtype object) above.
y -> y^p is one cached matrix F per modulus (FieldCtx.frobenius; von zur Gathen &
Gerhard, Modern Computer Algebra, ch. 14), and FieldElem.__pow__ runs Horner over
the base-p digits of the exponent: one product by F and at most one field product
per digit. FieldElem.__mul__ calls _mul on its own coordinates, which are always
reduced and of length s. A subfield is a FieldCtx of its own (FieldCtx.subfield),
generated by the norm of gamma, taken as one power (Lidl & Niederreiter, ch. 2), so
every kernel sees whole fields only; the trace row comes from Newton's identities on
the modulus.

A FieldCtx is immutable after construction; element operations are pure, so
everything here is safe for concurrent use.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from typing import Iterable, Iterator, Sequence

import numpy as np

from .intmath import factorize, is_prime, power


class FieldError(ValueError):
    pass


def _power_columns(modulus: tuple[int, ...], p: int, count: int) -> np.ndarray:
    """The s x count matrix whose column n is coords(x^n mod modulus), for count >= s.

    Its dtype is int64 while every length-s dot product of residues mod p is exact in it,
    s*(p-1)^2 < 2^63 (the bound periods._exact_dtype sweeps under), and object above.
    The first s columns are the identity; then x^n = sum_j v_j x^{n-s+j}, v = coords(x^s),
    over the nonzero v_j. Column n reads columns up to n - s + t, t the highest such j, so
    a step fills s - t columns: s for a binomial, 61 for x^64 + x^3 + 2, 1 if dense. Each
    step is one product, with v at its nonzero terms, of the columns those terms read:
    reads[k, i] is the offset from n of the column that term k of column n + i reads.
    """
    s = len(modulus) - 1
    dtype = np.int64 if s * (p - 1) ** 2 < 1 << 63 else object
    terms = np.array([j for j, c in enumerate(modulus[:s]) if c % p], dtype=np.intp)
    v = np.array([-modulus[j] % p for j in terms], dtype=dtype)
    width = s - (int(terms[-1]) if terms.size else 0)
    cols = np.zeros((s, count), dtype=dtype)
    cols.reshape(-1)[:: count + 1] = 1  # the identity block: entry (i, i) is flat entry (count+1)*i
    reads = np.add.outer(terms, np.arange(width) - s)
    for n in range(s, count, width):
        stop = min(n + width, count)
        cols[:, n:stop] = v @ cols[:, reads[:, : stop - n] + n] % p
    return cols


@functools.lru_cache(maxsize=2)  # a field and a subfield; the moduli a scan rejects fall out
def _reduction(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """The read-only s x (2s-1) matrix U whose column n is coords(x^n mod modulus)."""
    red = _power_columns(modulus, p, 2 * len(modulus) - 3)
    red.flags.writeable = False
    return red


def _mul(u: np.ndarray, v: np.ndarray, red: np.ndarray, p: int) -> np.ndarray:
    """The field kernel: u*v mod modulus for length-s residue vectors, red = _reduction(modulus, p).

    np.convolve gives the product polynomial's coefficients c_k = sum_{i+j=k} u_i v_j, each a
    sum of at most s terms of at most (p-1)^2; one product with red folds the degrees >= s.
    Its rows sum (p-1) from the identity block and at most s-1 terms of at most (p-1)^2 from
    R, so no value passes s*(p-1)^2, which red's dtype keeps exact.
    """
    return red @ (np.convolve(u, v) % p) % p


def _frobenius_by_table(modulus: tuple[int, ...], p: int) -> bool:
    """F by the power table, and Ben-Or's rounds by F: p^2 < s, no term of degree s/2 .. s-1.

    Best of 5, one core: at x^64 + x^3 + 2 over F_3 the table (3 blocks) takes 95 us, F by
    products 0.91 ms, rounds 4 .. 21 as powers 18 x 26 us. At (11, 16) it costs 130 us, five
    round powers, and most candidates fail at round 2. Dense, degree 16 over F_3: 2.2 ms by
    table, 0.67 ms by products.
    """
    s = len(modulus) - 1
    return p * p < s and not any(c % p for c in modulus[s // 2 + 1 : s])


@functools.lru_cache(maxsize=2)
def _frobenius(modulus: tuple[int, ...], p: int) -> np.ndarray:
    """The read-only s x s matrix F with F . coords(y) = coords(y^p): column j is coords(x^{pj}).

    Under the table rule, every p-th column of the power table to degree p(s-1): Ben-Or
    builds it, and hands on the accepted modulus's. Else column j is column j-1 times x^p.
    """
    s = len(modulus) - 1
    if _frobenius_by_table(modulus, p):
        frob = np.ascontiguousarray(_power_columns(modulus, p, p * (s - 1) + 1)[:, ::p])
    else:
        red = _reduction(modulus, p)
        frob = np.zeros((s, s), dtype=red.dtype)
        frob[0, 0] = 1  # coords(1)
        if s > 1:
            frob[:, 1] = xp = power(red[:, 1], p, lambda u, v: _mul(u, v, red, p), None)  # x^p
            for j in range(2, s):
                frob[:, j] = _mul(frob[:, j - 1], xp, red, p)
    frob.flags.writeable = False
    return frob


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


def _discriminant(f: Sequence[int], p: int) -> int:
    """disc f in F_p for monic f of degree s: (-1)^{s(s-1)/2} Res(f, f').

    f' may drop degree, or vanish, when p | s; Res(f, f') is still the product of
    f' over the roots of f, and it is 0 exactly when f has a repeated factor.
    """
    s = len(f) - 1
    return (-1) ** (s * (s - 1) // 2) * _resultant(f, [k * c for k, c in enumerate(f)][1:], p) % p


@functools.lru_cache(maxsize=2)
def _power_values(s: int, p: int) -> np.ndarray:
    """The (s+1) x p int64 table of a^k mod p, row k, column a: f @ it holds f(a), a in F_p."""
    return np.array([[pow(a, k, p) for a in range(p)] for k in range(s + 1)], dtype=np.int64)


def is_irreducible(modulus: Sequence[int], p: int) -> bool:
    """Monic degree-s polynomial irreducible over F_p? (a root, discriminant parity, Ben-Or)

    Ben-Or (FOCS 1981): f is reducible exactly when Res(f, x^{p^i} - x) = 0 at some round
    i <= k, a least factor of degree d showing at round d; round 1 asks for a root in F_p,
    read off f's p values when p < s. By Stickelberger (R. G. Swan, Pacific J. Math. 12,
    1962), (disc f | p) = (-1)^{s-r} for squarefree f with r factors over odd p, so k = s/3
    once f passes (s/2 at p = 2, where the test is disc f != 0). One resultant checks the
    rounds since the last check, at i = 1, 2, 4, 8, ... and k: Res(f, gh mod f) =
    Res(f, g) Res(f, h). Rounds past the monomial x^{p^i}, p^i < s, are products by F under
    the table rule (_frobenius_by_table), else powers y^p.
    """
    s = len(modulus) - 1
    if s < 1 or modulus[-1] != 1:
        raise FieldError("modulus must be monic of positive degree")
    modulus = tuple(modulus)
    if p < s and not (np.array(modulus) @ _power_values(s, p) % p).all():
        return False  # a root in F_p
    disc = _discriminant(modulus, p)
    if not disc or pow(disc, (p - 1) // 2, p) != (-1) ** (s - 1) % p:
        return False
    last = s // 2 if p == 2 else s // 3
    first = 2 if p < s else 1  # round 1 was read off the values
    x = np.eye(1, s, 1, dtype=np.int64)[0]  # coords(x); 0 at s = 1 (no rounds)
    r, h, check = np.eye(1, s, p ** (first - 1), dtype=np.int64)[0], None, first
    for i in range(first, last + 1):
        if p**i < s:  # x^{p^i} is a monomial below degree s: no product, no reduction matrix
            r = np.eye(1, s, p**i, dtype=np.int64)[0]
        elif _frobenius_by_table(modulus, p):
            r = _frobenius(modulus, p) @ r % p
        else:
            red = _reduction(modulus, p)
            r = power(r, p, lambda u, v: _mul(u, v, red, p), None)
        g = r - x  # entries >= -1: _mul and _resultant reduce mod p
        h = g if h is None else _mul(h, g, _reduction(modulus, p), p)
        if i == check or i == last:
            if not _resultant(modulus, h.tolist(), p):
                return False
            h, check = None, 2 * check
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
        self.coords = tuple(operator.index(c) % ctx.p for c in coords)
        if len(self.coords) != ctx.s:
            raise FieldError("coordinate vector has wrong length")

    def _check(self, other: "FieldElem") -> None:
        if not self.ctx.same_field(other.ctx):
            raise FieldError("elements belong to different fields")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        p = self.ctx.p
        return FieldElem(self.ctx, ((a + b) % p for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElem":
        return FieldElem(self.ctx, (-a % self.ctx.p for a in self.coords))

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        self._check(other)
        red = _reduction(self.ctx.modulus, self.ctx.p)
        u, v = (np.array(x.coords, dtype=red.dtype) for x in (self, other))
        return FieldElem(self.ctx, _mul(u, v, red, self.ctx.p).tolist())

    def __pow__(self, e: int) -> "FieldElem":
        """self^e for e >= 0, by Horner over the base-p digits of e: g^e = (g^{e div p})^p g^{e mod p}.

        y -> y^p is the product with FieldCtx.frobenius(). Each distinct digit's power g^d is
        taken by square-and-multiply (intmath.power: bitlen(d) + popcount(d) - 2 products),
        or as g^{d'} g^{d-d'} from the digit d' below d when the gap's chain plus that one
        product is cheaper: digits 1 .. 12 cost 11 products, digits 1 and 12 cost 4. A running
        table g, g^2, ... would take up to p - 1 products.
        """
        if e < 0:
            raise ValueError("negative powers are not supported; invert with x ** (q - 2)")
        ctx, p = self.ctx, self.ctx.p
        digits = []  # least significant first
        while e:
            e, d = divmod(e, p)
            digits.append(d)
        if not digits:
            return ctx.one()
        red = _reduction(ctx.modulus, p)
        mul = functools.partial(_mul, red=red, p=p)
        chain = lambda d: d.bit_length() + d.bit_count() - 2  # intmath.power's products for g^d
        g, powers, below = np.array(self.coords, dtype=red.dtype), {}, 0
        for d in sorted(set(digits) - {0}):
            if below and chain(d - below) + 1 < chain(d):
                powers[d] = mul(powers[below], power(g, d - below, mul, None))
            else:
                powers[d] = power(g, d, mul, None)
            below = d
        y = powers[digits.pop()]
        if digits:  # a single digit needs no Frobenius matrix
            frob = ctx.frobenius()
        for d in reversed(digits):
            y = frob @ y % p
            if d:
                y = mul(y, powers[d])
        return FieldElem(ctx, y.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.ctx.same_field(other.ctx) and self.coords == other.coords

    def in_prime_field(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def __repr__(self) -> str:
        return f"FieldElem({list(self.coords)} over F_{self.ctx.p}^{self.ctx.s})"


class FieldCtx:
    """Immutable F_{p^s} = F_p[x]/(modulus) with a fixed generator gamma; s and q are read off the modulus."""

    def __init__(
        self,
        p: int,
        modulus: tuple[int, ...],
        gamma_coords: tuple[int, ...],
        q_minus_1_factorization: tuple[tuple[int, int], ...],
    ):
        self.p = p
        self.modulus = tuple(modulus)
        self.s = len(self.modulus) - 1
        self.q = p**self.s
        self.q_minus_1_factorization = q_minus_1_factorization
        self.gamma = FieldElem(self, gamma_coords)

    def same_field(self, other: "FieldCtx") -> bool:
        """Do elements of the two contexts mix? They do when (p, modulus) agree, whatever gamma."""
        return self is other or (self.p == other.p and self.modulus == other.modulus)

    # -- element constructors -------------------------------------------------
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
    def trace_row(self) -> np.ndarray:
        """Row vector t with t . coords(y) = Tr(y): t_k = Tr(x^k), by Newton's identities.

        For the modulus x^s + c_{s-1} x^{s-1} + ... + c_0, the power sums of its
        roots are t_0 = s and t_k = -(k c_{s-k} + sum_{0<i<k} c_{s-i} t_{k-i})
        (Lidl & Niederreiter, Finite Fields, Thm 1.75).
        """
        s, p, c = self.s, self.p, self.modulus
        row = [s % p]
        for k in range(1, s):
            row.append(-(k * c[s - k] + sum(c[s - i] * row[k - i] for i in range(1, k))) % p)
        return np.array(row, dtype=np.int64)

    def subfield(self, k: int) -> "FieldCtx":
        """F_{p^k} as its own field F_p[x]/(f0), with generator gamma0 = x mod f0.

        f0 = prod_{i<k} (X - g0^{p^i}) is the minimal polynomial of the norm
        g0 = gamma^{(q-1)/(p^k-1)} = prod_{i<s/k} gamma^{p^{ki}} (Lidl & Niederreiter,
        ch. 2). The exponent's base-p digits are 1 at the multiples of k and 0 elsewhere,
        so FieldElem.__pow__ takes g0 in s - k products by the Frobenius matrix and
        s/k - 1 field products, and each conjugate of g0 is one more Frobenius product.
        x -> g0 embeds the field, so its traces, discrete logs and counts are those
        of g0's powers.
        """
        if k < 1 or self.s % k:
            raise FieldError(f"{k} does not divide {self.s}")
        p, q0 = self.p, self.p**k
        red, frob = _reduction(self.modulus, p), self.frobenius()
        g0 = self.gamma ** ((self.q - 1) // (q0 - 1))
        f0, conj = [red[:, 0]], np.array(g0.coords, dtype=red.dtype)  # f0 little-endian, over F_q
        for _ in range(k):
            f0 = [-_mul(conj, f0[0], red, p) % p] + [
                (a - _mul(conj, b, red, p)) % p for a, b in zip(f0[:-1], f0[1:])
            ] + [f0[-1]]
            conj = frob @ conj % p
        if any(c[1:].any() for c in f0):
            raise FieldError("the minimal polynomial of the norm has coefficients outside F_p")
        modulus = tuple(int(c[0]) for c in f0)
        if not is_irreducible(modulus, p):
            raise FieldError(f"the minimal polynomial {list(modulus)} of the norm is reducible")
        fac = []  # every prime of p^k - 1 divides q - 1, with at most its multiplicity v there
        for ell, v in self.q_minus_1_factorization:
            w = next(w for w in range(v, -1, -1) if (q0 - 1) % ell**w == 0)
            fac += [(ell, w)] if w else []
        gamma0 = (-modulus[0] % p,) if k == 1 else (0, 1) + (0,) * (k - 2)
        return FieldCtx(p, modulus, gamma0, tuple(fac))

    # -- sweep support ------------------------------------------------------------
    def mul_matrix(self, x: FieldElem) -> np.ndarray:
        """Matrix (mod p) of multiplication by x over the polynomial basis.

        Column j is coords(x X^j) = U[:, j:j+s] . coords(x), U = _reduction(modulus, p).
        """
        red = _reduction(self.modulus, self.p)
        g = np.array(x.coords, dtype=red.dtype)
        mat = np.empty((self.s, self.s), dtype=red.dtype)
        for j in range(self.s):
            mat[:, j] = red[:, j : j + self.s] @ g
        return mat % self.p

    def frobenius(self) -> np.ndarray:
        """The read-only matrix F (mod p) of y -> y^p: F . coords(y) = coords(y^p).

        Column j is coords(x^{pj}). It is built once per modulus and cached; F^s = I.
        """
        return _frobenius(self.modulus, self.p)

    def gamma_fingerprint(self) -> str:
        text = f"{self.p},{self.s},{self.modulus},{self.gamma.coords}"
        return hashlib.sha256(text.encode()).hexdigest()[:16]

    def __repr__(self) -> str:
        return f"FieldCtx(F_{self.p}^{self.s}, modulus={list(self.modulus)}, gamma={list(self.gamma.coords)})"


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
    g^{(q-1)/l} = N(g)^{(p-1)/l}, N(g) = g^{(q-1)/(p-1)} = Res(modulus, g) (Lidl &
    Niederreiter, ch. 2). The others, l_1 < ... < l_k, go down one product tree
    from h = g^{(q-1)/(l_1...l_k)}, and the first l found is returned. Zero, whose
    norm is 0, raises FieldError.
    """
    ctx = g.ctx
    p = ctx.p
    norm = _resultant(ctx.modulus, g.coords, p)  # N(g): the product of g over the roots of the modulus
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

    An explicit modulus (little-endian, monic, degree s, integer coefficients) may be
    supplied to exercise the isomorphism-invariance of downstream outputs; it is checked
    for irreducibility, and a coefficient that is not an integer raises TypeError.
    """
    if s < 1:
        raise FieldError("s must be >= 1")
    if not is_prime(p) or p == 2:
        raise FieldError(f"{p} is not an odd prime")
    if modulus is None:
        modulus = find_irreducible_modulus(p, s)
    else:
        if len(modulus) != s + 1 or modulus[-1] != 1:
            raise FieldError("modulus must be monic of degree s")
        modulus = tuple(operator.index(c) % p for c in modulus)
        if not is_irreducible(modulus, p):
            raise FieldError("modulus is not irreducible")
    fac = _factor_q_minus_1(p, s)
    # Bootstrap: a throwaway ctx with gamma=1 just to run the generator search.
    boot = FieldCtx(p, modulus, (1,) + (0,) * (s - 1), fac)
    gamma = find_generator(boot)
    return FieldCtx(p, boot.modulus, gamma.coords, fac)
