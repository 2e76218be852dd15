"""Gauss and Jacobi sums, classical identity checks, and the lift oracle.

Characters are indexed against the fixed generator: lambda(gamma) = zeta_E for
a character of order E, and psi = lambda^j. Each quantity has one kernel:

  * Gauss sums are assembled exactly from the same bucket counts as the
    period sweep (one multiplicative pass per (field, order)), as elements of
    Z[zeta_{lcm(E, p)}], by GaussTable.value; the subfield sums reuse it.
  * Jacobi sums are read off one discrete-log walk per cyclic group
    (discrete_log_map): the sweep's orbit kernel lays out the coordinates of
    g^a row by row, so the row index is the log. zech_logs forms 1 - x on the
    whole block, looks every log up at once by packed int64 keys, and returns
    the Zech vector a + log(1 - x_a); every J(lambda^j) on that group is then
    one bincount of j times it (jacobi_sum), so a field pays one search.

A subfield is swept as its own field: subfield_sums is one trace_spectrum call
on ctx.subfield(k), F_p[x]/(f0) with f0 the minimal polynomial of gamma^d,
d = (q-1)/(q0-1), and generator x, which traces and walks exactly as gamma^d
does inside F_q. The subfield character chi has chi(x) = zeta_E. Since gamma^d
is the norm of gamma, the lift of chi is exactly the gamma-normalized
character of the big field, which makes lifted Gauss sums and reconstructed
periods per-index exact rather than merely correct as multisets.

The lift oracle reassembles the reduced periods by Fourier inversion,
eta*_k = sum_{j=1}^{e-1} zeta_e^{-jk} G(lambda^j), and projects the result
from Z[zeta_{ep}] into Z[zeta_p], the ring of the brute-force periods
(periods_from_gauss). Frobenius invariance, G(lambda^{jp}) = G(lambda^j),
means one Davenport-Hasse lift per orbit of j -> jp gives the whole table:
period polynomials for fields far beyond enumeration reach, from an
enumeration of a small base subfield only. Nothing in it depends on p mod 8,
so it shares no formula with the closed forms it checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycElem, IntPoly, frobenius_power_sum
from .fields import FieldCtx, FieldError
from .intmath import legendre, ord2
from .periods import (
    DEFAULT_MAX_Q,
    BudgetExceeded,
    PeriodVector,
    SweepOverflow,
    TraceSpectrum,
    _exact_dtype,
    _orbit,
    period_polynomial,
    trace_spectrum,
)

DEFAULT_MAX_Q_JACOBI = 10**6
_CHECK_IDS = ("2a", "2b", "2c", "3", "4", "5", "7", "8", "9", "10", "11", "15", "16")


class GaussTable:
    """All Gauss sums G(lambda^j) for one field and one character order E."""

    def __init__(self, ctx: FieldCtx, spectrum: TraceSpectrum):
        self.ctx = ctx
        self.order = spectrum.e
        self.conductor = math.lcm(spectrum.e, ctx.p)
        self.counts = spectrum.counts

    def value(self, j: int) -> CycElem:
        """G(lambda^j) as an exact element of Z[zeta_{lcm(E,p)}]."""
        j %= self.order
        if j == 0:
            raise ValueError("trivial character has no Gauss sum here")
        n, e, p = self.conductor, self.order, self.ctx.p
        ze, zp = n // e, n // p
        vec = [0] * n
        for k in range(e):
            row = self.counts[k]
            base = j * k % e * ze
            for t in range(p):
                c = row[t]
                if c:
                    vec[(base + t * zp) % n] += c
        return CycElem(n, vec)


def gauss_table(
    ctx: FieldCtx,
    order: int,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> GaussTable:
    return GaussTable(ctx, trace_spectrum(ctx, order, max_q=max_q, threads=threads))


def discrete_log_map(ctx: FieldCtx) -> np.ndarray:
    """Row a holds the coords of gamma^a for the q - 1 elements of F_q^*.

    The row index is the discrete log; every Jacobi sum is read off the block
    this returns. Small groups only; a subfield is walked as ctx.subfield(k).
    """
    _exact_dtype(ctx.s, ctx.p)  # raises SweepOverflow where the orbit's int64 products would wrap
    if ctx.q - 1 >= DEFAULT_MAX_Q_JACOBI:
        raise BudgetExceeded(f"group of order {ctx.q - 1} exceeds the discrete-log budget {DEFAULT_MAX_Q_JACOBI}")
    one = np.array(ctx.one().coords, dtype=np.int64)
    return _orbit(one, ctx.mul_matrix(ctx.gamma).T, ctx.q - 1, ctx.p)


def _logs(ctx: FieldCtx, dlog: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The log in the walk `dlog` of each row of coords; raises FieldError for one outside the group."""
    if ctx.q >= 1 << 63:
        raise SweepOverflow(f"p^s = {ctx.q} >= 2^63: packed int64 keys would wrap")
    weights = ctx.p ** np.arange(ctx.s, dtype=np.int64)
    keys, wanted = dlog @ weights, coords @ weights
    perm = np.argsort(keys)
    at = perm[np.minimum(np.searchsorted(keys[perm], wanted), len(keys) - 1)]
    missing = keys[at] != wanted
    if missing.any():
        raise FieldError(f"{coords[missing][0].tolist()} is not in the walked group")
    return at


def zech_logs(ctx: FieldCtx, dlog: np.ndarray) -> np.ndarray:
    """a + log(1 - x_a) for the rows a >= 1 of the walk `dlog` (from discrete_log_map).

    Row 0 is x = 1, where psi(1 - x) = psi(0) = 0. This is the part of every
    Jacobi sum on the walked group that does not depend on the character.
    """
    one_minus_x = -dlog[1:] % ctx.p
    one_minus_x[:, 0] = (1 - dlog[1:, 0]) % ctx.p
    return np.arange(1, len(dlog)) + _logs(ctx, dlog, one_minus_x)


def jacobi_sum(order: int, j: int, zech: np.ndarray) -> CycElem:
    """J(psi) = sum over x of psi(x) psi(1-x) for psi = lambda^j, exact in Z[zeta_order].

    lambda has the given order and sends the generator of the walked group to
    zeta_order; zech comes from zech_logs on that walk.
    """
    if j % order == 0:
        raise ValueError("character must be nontrivial")
    if (len(zech) + 1) % order:
        raise ValueError(f"order {order} does not divide the group order {len(zech) + 1}")
    return CycElem(order, np.bincount(j % order * zech % order, minlength=order))


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
    """Gauss sums G(chi^j) over a subfield sub = ctx.subfield(k), chi(sub.gamma) = zeta_order."""

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
    return SubfieldSums(sub, trace_spectrum(sub, order, max_q=max_q, threads=threads))


def subfield_jacobi(sums: SubfieldSums, j: int) -> CycElem:
    """J(chi^j) over the subfield, chi normalized as in subfield_sums."""
    return jacobi_sum(sums.order, j, zech_logs(sums.ctx, discrete_log_map(sums.ctx)))


# ---------------------------------------------------------------------------
# period reconstruction from Gauss sums
# ---------------------------------------------------------------------------


def periods_from_gauss(p: int, m: int, table: dict[int, CycElem]) -> PeriodVector:
    """All 2^m reduced periods eta*_k = sum_{j=1}^{e-1} zeta_e^{-jk} G(lambda^j), in Z[zeta_p].

    `table[j]` must hold G(lambda^j) for j = 1 .. e-1 (e = 2^m, m >= 1), where
    lambda is the order-e character with lambda(gamma) = zeta_e. Each term lives
    in Z[zeta_{ep}], where zeta_{ep}^a = zeta_e^u zeta_p^t with u = a/p mod e and
    t = a/e mod p. Over Q(zeta_p) the zeta_e^u with u < e/2 are a basis and
    zeta_e^{e/2} = -1, so each sum is folded onto the rows u < e/2: row 0 is
    the period, and every other row must vanish in Z[zeta_p], that is, be a
    constant vector. A row that does not raises ArithmeticError.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    e, half, n = 1 << m, 1 << (m - 1), p << m
    missing = [j for j in range(1, e) if j not in table]
    if missing:
        raise ValueError(f"table is missing G(lambda^{missing[0]})")
    a = np.arange(n)
    u, t = a * pow(p, -1, e) % e, a * pow(e, -1, p) % p
    coeffs = np.zeros((e, e, p), dtype=object)  # [j, u, t]; Python ints, as the lifted sums pass 2^63
    for j in range(1, e):
        coeffs[j, u, t] = np.array(table[j].embed(n).vec, dtype=object)
    folded = coeffs[:, :half] - coeffs[:, half:]
    signed = np.concatenate((folded, -folded), axis=1)  # row w holds the coefficient of zeta_e^w, w < e
    js = np.arange(e)[:, None]
    eta = []
    for k in range(e):
        rows = signed[js, (np.arange(half) + js * k) % e].sum(axis=0)  # zeta_e^{-jk} zeta_e^{u+jk} = zeta_e^u
        if (rows[1:] != rows[1:, :1]).any():
            raise ArithmeticError(f"eta*_{k} is not in Z[zeta_{p}]")
        eta.append(CycElem(p, rows[0]))
    return PeriodVector(e=e, eta_star=tuple(eta))


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
) -> tuple[IntPoly, PeriodVector, int]:
    """Period polynomial of degree 2^m via base-subfield Gauss sums and lifting.

    Enumerates only the base subfield F_{p^{s'}}; returns (polynomial, periods,
    s'). Exact for any q, as long as the base subfield is within budget.
    """
    p, s = ctx.p, ctx.s
    e = 1 << m
    if (ctx.q - 1) % e:
        raise ValueError(f"2^{m} does not divide q-1")
    s_base = smallest_lift_base(p, s, m)
    r = s // s_base
    sums = subfield_sums(ctx, s_base, e, max_q=max_q, threads=threads)
    table: dict[int, CycElem] = {}
    for j in range(1, e):
        if j not in table:  # G(lambda^{jp}) = G(lambda^j): one lift per Frobenius orbit
            value, k = lift_gauss_sum(sums.gauss(j), r), j
            while k not in table:
                table[k] = value
                k = k * p % e
    periods = periods_from_gauss(p, m, table)
    return period_polynomial(periods), periods, s_base


# ---------------------------------------------------------------------------
# identity checks ("lemma suite")
# ---------------------------------------------------------------------------


@dataclass
class IdentityCheck:
    lemma: str
    params: dict
    lhs: CycElem | int | str
    rhs: CycElem | int | str
    passed: bool

    def to_json_dict(self) -> dict:
        def ser(v):
            return v.to_json_dict() if isinstance(v, CycElem) else str(v)

        out = {"lemma": self.lemma}
        out.update(self.params)
        out.update({"lhs": ser(self.lhs), "rhs": ser(self.rhs), "pass": self.passed})
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


def _check(lemma: str, params: dict, lhs, rhs) -> IdentityCheck:
    return IdentityCheck(lemma, params, lhs, rhs, passed=(lhs == rhs))


def partition_sum_identity(
    ctx: FieldCtx,
    m: int,
    r: int,
    table: GaussTable | None = None,
) -> list[IdentityCheck]:
    """G(lambda^j) +/- G(lambda^{-j}), j = 2^{m-r}, against the quadratic partition values.

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
    e = 1 << m
    if table is None:
        table = gauss_table(ctx, e)
    j = 1 << (m - r)
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
        _check(lemma, {"r": r, "side": "sum"}, g_plus + g_minus, (signs[0] * 2 * rec.first) * scale),
        _check(lemma, {"r": r, "side": "diff"}, g_plus - g_minus, (signs[1] * 2 * rec.second) * scale * sqrt_minus_d),
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
        return gauss_table(ctx, e, max_q=max_q, threads=threads)

    @functools.cache
    def gauss(j: int) -> CycElem:
        return table().value(j)

    # values psi(c) need a discrete log; the suite walks enumerable fields only
    walkable = q <= DEFAULT_MAX_Q_JACOBI

    @functools.cache
    def walk() -> tuple[np.ndarray, int]:
        """The discrete-log walk of F_q^* and the log of 4."""
        if q > max_q:
            raise BudgetExceeded(f"q={q} exceeds the enumeration budget {max_q}")
        dlog = discrete_log_map(ctx)
        return dlog, int(_logs(ctx, dlog, np.array([ctx.from_int(4 % p).coords]))[0])

    @functools.cache
    def zech() -> np.ndarray:
        return zech_logs(ctx, walk()[0])

    rho_idx = e // 2
    checks: list[IdentityCheck] = []

    def chi_value(j: int, elem_log: int) -> CycElem:
        """lambda^j evaluated at gamma^{elem_log}, as a conductor-e root."""
        return CycElem.root(e, j * elem_log % e)

    for r in range(2, m + 1):
        j = 1 << (m - r)
        if want("2a"):
            sign = 1 if (j * ((q - 1) // 2)) % e == 0 else -1  # psi(-1)
            checks.append(_check("2a", {"r": r}, gauss(j) * gauss(-j), CycElem.integer(1, sign * q)))
        if want("2b"):
            checks.append(_check("2b", {"r": r}, gauss(j), gauss(j * p)))
        if want("2c") and walkable:
            lhs = gauss(j) * gauss(j + rho_idx)
            rhs = chi_value(-j, walk()[1]) * gauss(2 * j) * gauss(rho_idx)
            checks.append(_check("2c", {"r": r}, lhs, rhs))
        if want("8"):
            r_min = 4 if p % 8 == 3 else 3
            if r >= r_min:
                checks.append(_check("8", {"r": r}, gauss(j), gauss(j + rho_idx)))
        if want("9") and r >= 3 and walkable:
            lhs = chi_value(j, walk()[1])
            rhs_val = 1 if p % 8 == 3 else (-1) ** (s // (1 << (r - 2)))
            checks.append(_check("9", {"r": r}, lhs, CycElem.integer(1, rhs_val)))
        if want("5") and walkable and 2 * j % e:
            # order of psi^2 is 2^{r-1}; for r = 1 psi = rho is excluded anyway
            jac = jacobi_sum(e, j, zech())
            checks.append(_check("5", {"r": r}, gauss(j) * gauss(j), gauss(2 * j) * jac))

    if want("3"):
        # G(rho) = (-1)^{s-1} g^s with g = sum_t (t|p) zeta_p^t and g^2 = p* = (-1)^{(p-1)/2} p
        scale = (-1) ** (s - 1) * (p if p % 4 == 1 else -p) ** (s // 2)
        rhs = scale * _legendre_gauss_sum(p) if s % 2 else CycElem.integer(1, scale)
        checks.append(_check("3", {"s": s}, gauss(rho_idx), rhs))

    if want("4") and p % 8 == 3 and s % 2 == 0 and m >= 2:
        checks.append(_check("4", {}, gauss(e // 4), CycElem.integer(1, -(p ** (s // 2)))))

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
                    checks.append(_check("7", {"r": r}, gauss(j_big), lifted))

    if want("10"):
        for n in (1, 2, 3):
            for rr in range(3, 7):
                if rr < n:
                    continue
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
                checks.append(_check("10", {"n": n, "r": rr}, got, expect))

    if want("11"):
        n_cls = 3 if p % 8 == 3 else 2
        for r in range(n_cls, m + 1):
            if s % (1 << (r - 1)):
                continue
            # sign-exponent integrality is guaranteed by 2^{r-1} | s; tripwire
            if (s * (r - 1)) % (1 << (r - 1)):
                raise ArithmeticError("non-integral sign exponent under the stated hypothesis")
            s_chi = s // (1 << (r - n_cls + 1))
            lhs = gauss(1 << (m - r))
            sums = subfield_sums(ctx, s_chi, 1 << n_cls, max_q=max_q, threads=threads)
            jac = subfield_jacobi(sums, 1)
            sign = 1 if p % 8 == 3 else (-1) ** ((s * (r - 1)) // (1 << (r - 1)))
            scale = _q_fractional(p, s, (1 << (r - n_cls + 1)) - 1, 1 << (r - n_cls + 2))
            rhs = sign * scale * jac
            checks.append(_check("11", {"r": r}, lhs, rhs))

    lemma, r_min = {3: ("15", 3), 5: ("16", 2)}.get(p % 8, ("", 0))
    if lemma and want(lemma):
        for r in range(r_min, m + 1):
            if s % (1 << (r - 1)) == 0:
                checks.extend(partition_sum_identity(ctx, m, r, table=table()))

    if not checks:
        raise ValueError(f"no selected identity check applies to p={p}, s={s}, m={m}")
    return checks
