"""Gauss and Jacobi sums, classical identity checks, and the lift oracle.

Characters are indexed against the fixed generator: lambda(gamma) = zeta_E for
a character of order E, and psi = lambda^j. Each quantity has one kernel:

  * Gauss sums are assembled exactly from the same bucket counts as the
    period sweep (one multiplicative pass per (field, order)), as elements of
    Z[zeta_{lcm(E, p)}], by GaussTable.value; the subfield sums reuse it.
  * Jacobi sums are read off one discrete-log walk per field
    (discrete_log_map): the sweep's orbit kernel lays out the coordinates of
    gamma^a row by row, so the row index is the log, in int64 chunks stored in
    the narrowest signed dtype that holds p - 1. zech_logs(ctx) packs x and
    1 - x into int64 keys sum_i c_i p^i in [0, q) by Horner over the columns,
    with no division, and reads every log at once from one length-q index that
    the walk's keys are scattered into; it returns the Zech vector
    a + log(1 - x_a), and every J(lambda^j) on that field is then one bincount
    of j times it (jacobi_sum), so a field pays one walk, one scatter and one
    gather. The identity suite reads the log of 4 off the same vector, as
    2 log(1 - (-1)).

A subfield is swept as its own field: subfield_sums is one trace_spectrum call
on ctx.subfield(k), F_p[x]/(f0) with f0 the minimal polynomial of gamma^d,
d = (q-1)/(q0-1), and generator x, which traces and walks exactly as gamma^d
does inside F_q. The subfield character chi has chi(x) = zeta_E. Since gamma^d
is the norm of gamma, the lift of chi is exactly the gamma-normalized
character of the big field, which makes lifted Gauss sums and reconstructed
periods per-index exact rather than merely correct as multisets.

The lift oracle is one power in the group ring Z[C_e x C_p]. The base
subfield's count table H = sum_x [ind x mod e, Tr x] is GaussTable.value(1)'s
vector, slot (k*p + t*e) mod ep, since gcd(e, p) = 1; CycElem products are
cyclic convolutions, so lift_gauss_sum leaves exactly L = (-1)^{r-1} H^r there.
Davenport-Hasse makes L's image under [k, t] -> zeta_e^{jk} zeta_p^t equal
G(lambda^j) of F_q for every j, so Fourier inversion over C_e is reading rows:
row k of L is eta_k in Z[zeta_p], F_q's count row up to a constant vector that
the row sum fixes (periods_from_gauss). This gives period polynomials for fields
far beyond enumeration reach, from an enumeration of a small base subfield only.
Nothing in it depends on p mod 8, so it shares no formula with the closed forms
it checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycElem, IntPoly, frobenius_power_sum
from .fields import FieldCtx, FieldError
from .intmath import legendre, ord2, power
from .periods import (
    DEFAULT_MAX_Q,
    BudgetExceeded,
    PeriodVector,
    TraceSpectrum,
    _exact_dtype,
    _orbit,
    period_polynomial,
    reduced_periods,
    trace_spectrum,
)

DEFAULT_MAX_Q_JACOBI = 10**6
_WALK_CHUNK = 1 << 12  # rows per int64 step of the discrete-log walk (BENCH_dlog_walk.json)
_CHECK_IDS = ("2a", "2b", "2c", "3", "4", "5", "7", "8", "9", "10", "11", "15", "16")


@dataclass(frozen=True)
class GaussTable:
    """All Gauss sums G(lambda^j) for one field and one character order E, read off its e x p counts: E = e."""

    spectrum: TraceSpectrum

    @property
    def order(self) -> int:
        return self.spectrum.e

    def value(self, j: int) -> CycElem:
        """G(lambda^j) as an exact element of Z[zeta_{lcm(E,p)}]."""
        e, p = self.spectrum.e, self.spectrum.p
        j %= e
        if j == 0:
            raise ValueError("trivial character has no Gauss sum here")
        n = math.lcm(e, p)
        ze, zp = n // e, n // p
        vec = [0] * n
        for k in range(e):
            row = self.spectrum.counts[k]
            base = j * k % e * ze
            for t in range(p):
                c = row[t]
                if c:
                    vec[(base + t * zp) % n] += c
        return CycElem(n, vec)


def discrete_log_map(ctx: FieldCtx) -> np.ndarray:
    """Row a holds the coords of gamma^a for the q - 1 elements of F_q^*.

    The row index is the discrete log; every Jacobi sum is read off the block
    this returns. Small groups only; a subfield is walked as ctx.subfield(k).
    Its dtype is the smallest signed one that holds p - 1 (int8 to p = 127), so
    -dlog % p stays exact; the walk is int64 only a chunk of _WALK_CHUNK rows at
    a time, each chunk the last one times M^C (mod p), M the product by gamma.
    """
    p, s, n = ctx.p, ctx.s, ctx.q - 1
    _exact_dtype(s, p)  # raises SweepOverflow where the orbit's int64 products would wrap
    if n >= DEFAULT_MAX_Q_JACOBI:
        raise BudgetExceeded(f"group of order {n} exceeds the discrete-log budget {DEFAULT_MAX_Q_JACOBI}")
    step, chunk = ctx.mul_matrix(ctx.gamma).T, min(n, _WALK_CHUNK)
    rows = _orbit(np.array(ctx.one().coords, dtype=np.int64), step, chunk, p)
    block = np.empty((n, s), dtype=next(t for t in (np.int8, np.int16, np.int32, np.int64) if p - 1 <= np.iinfo(t).max))
    block[:chunk] = rows
    if n > chunk:
        jump = power(step, chunk, lambda a, b: a @ b % p, None)  # M^C: times gamma^C
        for start in range(chunk, n, chunk):
            rows = rows[: n - start] @ jump
            rows %= p
            block[start : start + len(rows)] = rows
    return block


def zech_logs(ctx: FieldCtx) -> np.ndarray:
    """a + log(1 - x_a) for the rows a >= 1 of ctx's walk x_a = gamma^a (discrete_log_map).

    Row 0 is x = 1, where psi(1 - x) = psi(0) = 0. This is the part of every
    Jacobi sum on F_q^* that does not depend on the character. One Horner pass
    over the walk's columns makes the int64 keys sum_i c_i p^i of the x_a, and
    Z = [c_0 <= 1] + sum_{i>=1} [c_i = 0] p^i, the digits of 1 - x that wrap:
    key(1 - x) = p (q-1)/(p-1) + 1 - key(x) - p Z. The walk's keys are distinct
    and lie in [1, q): index[key] is the row of that key, -1 where no row has it
    (the key 0 of x = 0 among them), and every log is one gather. Past one chunk
    the peak is about 32 + s bytes per element at p <= 127, with no (q-1) x s
    int64 array.
    The walk holds q - 1 to its budget, so the length-q index is small and the
    keys are exact in int64; a key missing from the walk raises FieldError.
    """
    dlog = discrete_log_map(ctx)
    p, n = ctx.p, len(dlog)
    keys = np.zeros(n, dtype=np.int64)
    at = np.zeros(n - 1, dtype=np.int64)  # Z of 1 - x_a, a >= 1; then its key; then its row
    for i in reversed(range(dlog.shape[1])):
        keys *= p
        keys += dlog[:, i]
        at *= p
        at += (dlog[1:, i] <= 1) if i == 0 else (dlog[1:, i] == 0)
    at *= -p
    at -= keys[1:]
    at += p * (ctx.q - 1) // (p - 1) + 1
    index = np.full(ctx.q, -1, dtype=np.int64)
    index[keys] = np.arange(n)
    np.take(index, at, out=at)
    missing = np.flatnonzero(at < 0)
    if len(missing):
        x = dlog[missing[0] + 1].tolist()
        raise FieldError(f"{[(1 - x[0]) % p] + [-c % p for c in x[1:]]} is not in the walked group")
    at += np.arange(1, n)
    return at


def jacobi_sum(order: int, j: int, zech: np.ndarray) -> CycElem:
    """J(psi) = sum over x of psi(x) psi(1-x) for psi = lambda^j, exact in Z[zeta_order].

    lambda has the given order and sends the generator gamma of a field to
    zeta_order; zech is zech_logs of that field.
    """
    if j % order == 0:
        raise ValueError("character must be nontrivial")
    if (len(zech) + 1) % order:
        raise ValueError(f"order {order} does not divide the group order {len(zech) + 1}")
    return CycElem(order, np.bincount(j % order * zech % order, minlength=order).tolist())


def lift_gauss_sum(value: CycElem, r: int) -> CycElem:
    """Davenport-Hasse: the Gauss sum of the degree-r lifted character.

    G(psi') = (-1)^{r-1} G(psi)^r; applicable when psi' is the lift of psi to
    the degree-r extension.
    """
    if r < 1:
        raise ValueError("lift degree must be >= 1")
    out = value**r
    if r % 2 == 0:
        out = -out
    return out


# ---------------------------------------------------------------------------
# subfield sums, each subfield swept as its own field
# ---------------------------------------------------------------------------


class SubfieldSums(GaussTable):
    """Gauss sums G(chi^j) over a subfield sub = ctx.subfield(k), chi(sub.gamma) = zeta_order, from its spectrum."""

    gauss = GaussTable.value


def subfield_sums(
    ctx: FieldCtx,
    s_sub: int,
    order: int,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> SubfieldSums:
    """Gauss sums over the subfield F_{p^{s_sub}}, from one sweep of it as its own field."""
    sub = ctx.subfield(s_sub)
    return SubfieldSums(trace_spectrum(sub, order, max_q=max_q, threads=threads))


def subfield_jacobi(sub: FieldCtx, order: int, j: int) -> CycElem:
    """J(chi^j) over the subfield sub = ctx.subfield(k), chi(sub.gamma) = zeta_order."""
    return jacobi_sum(order, j, zech_logs(sub))


# ---------------------------------------------------------------------------
# period reconstruction from Gauss sums
# ---------------------------------------------------------------------------


def periods_from_gauss(q: int, e: int, lifted: CycElem) -> PeriodVector:
    """The e reduced periods of F_q, read off the lifted count table (see the module docstring).

    `lifted` is L = (-1)^{r-1} H^r from lift_gauss_sum on a GaussTable.value(1)
    vector, with [k, t] at slot (k*p + t*e) mod ep. Row k of L differs from F_q's
    count row by c * (1, ..., 1), c = ((q - 1)/e - row sum)/p. A row for which c
    is not an integer, or the corrected row has a negative entry, raises
    ArithmeticError.
    """
    p, rest = divmod(lifted.n, e)
    if rest or math.gcd(e, p) != 1 or (q - 1) % e:
        raise ValueError(f"conductor {lifted.n} is not e*p with gcd(e, p) = 1 and e={e} | q-1")
    vec, per_row = lifted.vec, (q - 1) // e
    counts = []
    for k in range(e):
        row = [vec[(k * p + t * e) % lifted.n] for t in range(p)]
        c, rest = divmod(per_row - sum(row), p)
        if rest or c + min(row) < 0:
            raise ArithmeticError(f"row {k} of the lifted sum is not a count row of F_{q}")
        counts.append(tuple(x + c for x in row))
    return reduced_periods(TraceSpectrum(tuple(counts)))


def smallest_lift_base(p: int, s: int, m: int) -> int:
    """Smallest s' | s with 2^m | p^{s'} - 1 (the lift oracle's base degree)."""
    divisors = sorted(d for d in range(1, s + 1) if s % d == 0)
    for d in divisors:
        if (p**d - 1) % (1 << m) == 0:
            return d
    raise ValueError(f"2^{m} never divides p^d - 1 for d | {s}")


def lifted_period_polynomial(
    ctx: FieldCtx,
    m: int,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> tuple[IntPoly, PeriodVector]:
    """(polynomial, periods) of degree 2^m for ctx, from base-subfield Gauss sums and lifting.

    Sweeps only the base subfield F_{p^{s'}}, s' = smallest_lift_base(p, s, m).
    Exact for any q, as long as the base subfield is within budget.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    p, s = ctx.p, ctx.s
    e = 1 << m
    if (ctx.q - 1) % e:
        raise ValueError(f"2^{m} does not divide q-1")
    s_base = smallest_lift_base(p, s, m)
    sums = subfield_sums(ctx, s_base, e, max_q=max_q, threads=threads)
    periods = periods_from_gauss(ctx.q, e, lift_gauss_sum(sums.gauss(1), s // s_base))
    return period_polynomial(periods), periods


# ---------------------------------------------------------------------------
# identity checks ("lemma suite")
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    """One identity lhs = rhs of lemma `lemma` at `params`; it passed when the two sides are equal."""

    lemma: str
    params: dict
    lhs: CycElem
    rhs: CycElem

    @functools.cached_property
    def passed(self) -> bool:
        return self.lhs == self.rhs  # cached: across conductors it embeds both sides, and callers read it often

    def to_json_dict(self) -> dict:
        out = {"lemma": self.lemma}
        out.update(self.params)
        out.update({"lhs": self.lhs.to_json_dict(), "rhs": self.rhs.to_json_dict(), "pass": self.passed})
        return out


def _legendre_gauss_sum(p: int) -> CycElem:
    """sum_t (t|p) zeta_p^t, computed directly mod p (independent small oracle)."""
    vec = [0] * p
    for t in range(1, p):
        vec[t] = legendre(t, p)
    return CycElem(p, vec)


def _q_fractional(p: int, s: int, num: int, den: int) -> CycElem:
    """Exact q^{num/den} = p^{s*num/den} as a cyclotomic integer.

    Integral exponents give a rational integer; half-integral exponents (which
    occur only for p = 1 mod 4, where sqrt(p) is the quadratic Gauss sum over
    F_p) give p^k * sum_t (t|p) zeta_p^t. Anything else is rejected.
    """
    total = s * num
    if total % den == 0:
        return CycElem.integer(1, p ** (total // den))
    if den % 2 == 0 and (total - den // 2) % den == 0:
        if p % 4 != 1:
            raise ValueError(f"sqrt({p}) is not in Z[zeta_{p}]")
        return p ** ((total - den // 2) // den) * _legendre_gauss_sum(p)
    raise ValueError(f"q^({num}/{den}) is neither integral nor half-integral")


def partition_sum_identity(ctx: FieldCtx, r: int, table: GaussTable) -> list[IdentityCheck]:
    """G(lambda^j) +/- G(lambda^{-j}) of ctx's table of order 2^m, j = 2^{m-r}, against the partition values.

    With the record p^k = first^2 + d*second^2 of `partitions` (lemma 15: A type,
    p = 3 mod 8, d = 2, 3 <= r; lemma 16: C type, p = 5 mod 8, d = 1, 2 <= r),
    for r <= m and 2^{r-1} | s:
        sum  = +/- 2 first  sqrt(q/p^k)
        diff = +/- 2 second sqrt(q/p^k) sqrt(-d)
    with sqrt(-2) = zeta8 + zeta8^3 and sqrt(-1) = zeta4. Both signs are + for
    the A type; for the C type they are (-, +) when 2^r | s and
    ((-1)^r, (-1)^{r-1}) when 2^{r-1} || s.
    """
    from .partitions import partition_a, partition_c

    p, s = ctx.p, ctx.s
    j = table.order >> r
    g_plus = table.value(j)
    g_minus = table.value(-j)
    if p % 8 == 3:
        lemma, rec, sqrt_minus_d, signs = "15", partition_a(ctx, r), CycElem.root(8, 1) + CycElem.root(8, 3), (1, 1)
    else:
        lemma, rec, sqrt_minus_d = "16", partition_c(ctx, r), CycElem.root(4, 1)
        signs = (-1, 1) if s % (1 << r) == 0 else ((-1) ** r, (-1) ** (r - 1))
    if s % (1 << (r - 1)):
        raise ValueError(f"lemma {lemma} needs 2^{r - 1} | s={s}")
    scale = _q_fractional(p, s - rec.exponent, 1, 2)  # sqrt(q/p^k)
    return [
        IdentityCheck(lemma, {"r": r, "side": "sum"}, g_plus + g_minus, (signs[0] * 2 * rec.first) * scale),
        IdentityCheck(lemma, {"r": r, "side": "diff"}, g_plus - g_minus, (signs[1] * 2 * rec.second) * scale * sqrt_minus_d),
    ]


def identity_report(
    ctx: FieldCtx,
    m: int,
    only: set[str] | None = None,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> list[IdentityCheck]:
    """Run the classical-identity suite on the order-2^r characters of ctx.

    Check ids: 2a, 2b, 2c, 3, 4, 5, 7, 8, 9, 10, 11, 15, 16 (_CHECK_IDS); `only`
    picks some of them. An unknown id raises, and so does a selection under
    which no check applies to ctx and m. A failure always indicates an artifact
    bug, never valid data.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    unknown = sorted(set(only or ()) - set(_CHECK_IDS))
    if unknown:
        raise ValueError(f"unknown identity id {unknown[0]!r}; known ids: {' '.join(_CHECK_IDS)}")
    p, s, q = ctx.p, ctx.s, ctx.q
    e = 1 << m
    if (q - 1) % e:
        raise ValueError(f"2^{m} does not divide q-1")

    def want(lemma_id: str) -> bool:
        return only is None or lemma_id in only

    # the sweep and the walk run on first use, so a selection that applies to no check sweeps nothing
    @functools.cache
    def table() -> GaussTable:
        return GaussTable(trace_spectrum(ctx, e, max_q=max_q, threads=threads))

    @functools.cache
    def gauss(j: int) -> CycElem:
        return table().value(j)

    # values psi(c) need a discrete log; the suite walks enumerable fields only
    walkable = q <= DEFAULT_MAX_Q_JACOBI

    @functools.cache
    def walk() -> tuple[np.ndarray, int]:
        """The Zech vector of the discrete-log walk of F_q^*, and the log of 4.

        Both come from the walk's one log index: -1 = gamma^h with h = (q-1)/2, so
        log 2 = log(1 - (-1)) = zech[h - 1] - h, and log 4 = 2 log 2.
        """
        if q > max_q:
            raise BudgetExceeded(f"q={q} exceeds the enumeration budget {max_q}")
        zech = zech_logs(ctx)
        half = (q - 1) // 2
        return zech, 2 * (int(zech[half - 1]) - half) % (q - 1)

    rho_idx = e // 2
    checks: list[IdentityCheck] = []

    def chi_value(j: int, elem_log: int) -> CycElem:
        """lambda^j evaluated at gamma^{elem_log}, as a conductor-e root."""
        return CycElem.root(e, j * elem_log % e)

    for r in range(2, m + 1):
        j = 1 << (m - r)
        if want("2a"):
            sign = 1 if (j * ((q - 1) // 2)) % e == 0 else -1  # psi(-1)
            checks.append(IdentityCheck("2a", {"r": r}, gauss(j) * gauss(-j), CycElem.integer(1, sign * q)))
        if want("2b"):
            checks.append(IdentityCheck("2b", {"r": r}, gauss(j), gauss(j * p)))
        if want("2c") and walkable:
            lhs = gauss(j) * gauss(j + rho_idx)
            rhs = chi_value(-j, walk()[1]) * gauss(2 * j) * gauss(rho_idx)
            checks.append(IdentityCheck("2c", {"r": r}, lhs, rhs))
        if want("8"):
            r_min = 4 if p % 8 == 3 else 3
            if r >= r_min:
                checks.append(IdentityCheck("8", {"r": r}, gauss(j), gauss(j + rho_idx)))
        if want("9") and r >= 3 and walkable:
            lhs = chi_value(j, walk()[1])
            rhs_val = 1 if p % 8 == 3 else (-1) ** (s // (1 << (r - 2)))
            checks.append(IdentityCheck("9", {"r": r}, lhs, CycElem.integer(1, rhs_val)))
        if want("5") and walkable and 2 * j % e:
            # order of psi^2 is 2^{r-1}; for r = 1 psi = rho is excluded anyway
            jac = jacobi_sum(e, j, walk()[0])
            checks.append(IdentityCheck("5", {"r": r}, gauss(j) * gauss(j), gauss(2 * j) * jac))

    if want("3"):
        # G(rho) = (-1)^{s-1} g^s with g = sum_t (t|p) zeta_p^t and g^2 = p* = (-1)^{(p-1)/2} p
        scale = (-1) ** (s - 1) * (p if p % 4 == 1 else -p) ** (s // 2)
        rhs = scale * _legendre_gauss_sum(p) if s % 2 else CycElem.integer(1, scale)
        checks.append(IdentityCheck("3", {"s": s}, gauss(rho_idx), rhs))

    if want("4") and p % 8 == 3 and s % 2 == 0 and m >= 2:
        checks.append(IdentityCheck("4", {}, gauss(e // 4), CycElem.integer(1, -(p ** (s // 2)))))

    if want("7"):
        # direct Gauss sums vs squared-and-negated subfield sums, for every
        # order-2^r character that is a lift from the half-degree subfield
        if s % 2 == 0:
            r_max = min(m, ord2(p ** (s // 2) - 1))
            if r_max >= 1:
                table()  # the whole-field budget is checked before the subfield is swept
                sums = subfield_sums(ctx, s // 2, 1 << r_max, max_q=max_q, threads=threads)
                for r in range(1, r_max + 1):
                    j_small = 1 << (r_max - r)
                    j_big = (1 << (m - r)) % e
                    lifted = lift_gauss_sum(sums.gauss(j_small), 2)
                    checks.append(IdentityCheck("7", {"r": r}, gauss(j_big), lifted))

    if want("10"):
        for n in (1, 2, 3):
            for rr in range(3, 7):
                got = frobenius_power_sum(p, n, rr)
                if n == 1:
                    expect: CycElem = CycElem.integer(1, -(1 << (rr - 2)))
                elif n == 2:
                    expect = (
                        (1 << (rr - 2)) * CycElem.root(4, 1)
                        if p % 8 == 5
                        else CycElem.zero(4)
                    )
                else:
                    expect = (
                        (1 << (rr - 3)) * (CycElem.root(8, 1) + CycElem.root(8, 3))
                        if p % 8 == 3
                        else CycElem.zero(8)
                    )
                checks.append(IdentityCheck("10", {"n": n, "r": rr}, got, expect))

    if want("11"):
        n_cls = 3 if p % 8 == 3 else 2
        for r in range(n_cls, m + 1):
            if s % (1 << (r - 1)):
                continue
            s_chi = s // (1 << (r - n_cls + 1))
            lhs = gauss(1 << (m - r))
            jac = subfield_jacobi(ctx.subfield(s_chi), 1 << n_cls, 1)
            sign = 1 if p % 8 == 3 else (-1) ** ((s * (r - 1)) // (1 << (r - 1)))
            scale = _q_fractional(p, s, (1 << (r - n_cls + 1)) - 1, 1 << (r - n_cls + 2))
            rhs = sign * scale * jac
            checks.append(IdentityCheck("11", {"r": r}, lhs, rhs))

    lemma, r_min = {3: ("15", 3), 5: ("16", 2)}.get(p % 8, ("", 0))
    if lemma and want(lemma):
        for r in range(r_min, m + 1):
            if s % (1 << (r - 1)) == 0:
                checks.extend(partition_sum_identity(ctx, r, table()))

    if not checks:
        raise ValueError(f"no selected identity check applies to p={p}, s={s}, m={m}")
    return checks
