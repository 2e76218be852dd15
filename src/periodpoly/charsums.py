"""Gauss and Jacobi sums, classical identity checks, and the lift oracle.

Characters are indexed against the fixed generator: lambda(gamma) = zeta_E for
a character of order E, and psi = lambda^j. Each quantity has one kernel:

  * Gauss sums are assembled exactly from the same bucket counts as the
    period sweep (one multiplicative pass per (field, order)), as elements of
    Z[zeta_{lcm(E, p)}], by GaussTable.value; the subfield sums reuse it.
  * Jacobi sums are read off one discrete-log walk per cyclic group
    (discrete_log_map): the sweep's orbit kernel lays out the coordinates of
    base^a row by row, so the row index is the log. 1 - x is formed on the
    whole block and every log is looked up at once by packed int64 keys.

Subfield sums are computed inside the ambient field: the subfield of size q0
is walked as powers of gamma^d with d = (q-1)/(q0-1), and the subfield
character chi is normalized by chi(gamma^d) = zeta_E. Since gamma^d is the
norm of gamma, the lift of chi is exactly the gamma-normalized character of
the big field, which makes lifted Gauss sums and reconstructed periods
per-index exact rather than merely correct as multisets.

The reconstruction of all reduced periods from the m Gauss-sum pairs of
2-power order uses the Fourier expansion specialized to p = 3, 5 (mod 8),
where the inner root-of-unity sums collapse to 0, +/-2^t, 2^t i, or
2^t i*sqrt2 (see frobenius_power_sum); together with the Davenport-Hasse
relation this gives the "lift oracle": period polynomials for fields far
beyond enumeration reach, from an enumeration of a small base subfield only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycElem, IntPoly
from .fields import FieldCtx, FieldElem, FieldError
from .intmath import legendre, ord2
from .periods import (
    DEFAULT_MAX_Q,
    BudgetExceeded,
    PeriodVector,
    SweepOverflow,
    TraceSpectrum,
    _exact_dtype,
    _orbit,
    bucket_sweep,
    period_polynomial,
    trace_spectrum,
)

DEFAULT_MAX_Q_JACOBI = 10**6


class GaussTable:
    """All Gauss sums G(lambda^j) for one field and one character order E."""

    def __init__(self, ctx: FieldCtx, order: int, spectrum: TraceSpectrum):
        if spectrum.e != order:
            raise ValueError(f"spectrum of order {spectrum.e} cannot give Gauss sums of order {order}")
        self.ctx = ctx
        self.order = order
        self.conductor = math.lcm(order, ctx.p)
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
    return GaussTable(ctx, order, trace_spectrum(ctx, order, max_q=max_q, threads=threads))


def discrete_log_map(
    ctx: FieldCtx, base: FieldElem | None = None, length: int | None = None
) -> np.ndarray:
    """Row a holds the coords of base^a, for the `length` elements of the cyclic group <base>.

    Defaults to gamma and q - 1. The row index is the discrete log; every
    Jacobi sum is read off the block this returns. Small groups only.
    """
    base = ctx.gamma if base is None else base
    length = ctx.q - 1 if length is None else length
    if length >= DEFAULT_MAX_Q_JACOBI:
        raise BudgetExceeded(f"group of order {length} exceeds the discrete-log budget {DEFAULT_MAX_Q_JACOBI}")
    _exact_dtype(ctx.s, ctx.p)  # raises SweepOverflow where the orbit's int64 products would wrap
    one = np.array(ctx.one().coords, dtype=np.int64)
    return _orbit(one, ctx.mul_matrix(base).T, length, ctx.p)


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


def jacobi_sum(ctx: FieldCtx, order: int, j: int, dlog: np.ndarray) -> CycElem:
    """J(psi) = sum over x of psi(x) psi(1-x) for psi = lambda^j, exact in Z[zeta_order].

    lambda has the given order and sends the generator of the group that
    `dlog` (from discrete_log_map) walks to zeta_order.
    """
    if j % order == 0:
        raise ValueError("character must be nontrivial")
    if len(dlog) % order:
        raise ValueError(f"order {order} does not divide the group order {len(dlog)}")
    one_minus_x = -dlog[1:] % ctx.p  # row 0 is x = 1, where psi(1 - x) = psi(0) = 0
    one_minus_x[:, 0] = (1 - dlog[1:, 0]) % ctx.p
    logs = np.arange(1, len(dlog)) + _logs(ctx, dlog, one_minus_x)
    return CycElem(order, np.bincount(j % order * logs % order, minlength=order))


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
# subfield sums inside the ambient field
# ---------------------------------------------------------------------------


class SubfieldSums(GaussTable):
    """Gauss sums G(chi^j) over F_{q0} inside F_q, chi(N(gamma)) = zeta_order."""

    def __init__(self, ctx: FieldCtx, s_sub: int, spectrum: TraceSpectrum):
        super().__init__(ctx, spectrum.e, spectrum)
        self.s_sub = s_sub

    @property
    def q0(self) -> int:
        return self.ctx.p**self.s_sub

    gauss = GaussTable.value


def subfield_sums(
    ctx: FieldCtx,
    s_sub: int,
    order: int,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> SubfieldSums:
    """Bucket counts over the subfield F_{p^{s_sub}} walked as powers of gamma^d."""
    if ctx.s % s_sub:
        raise FieldError(f"{s_sub} does not divide {ctx.s}")
    q0 = ctx.p**s_sub
    if (q0 - 1) % order:
        raise ValueError(f"order {order} does not divide q0-1 = {q0 - 1}")
    if q0 > max_q:
        raise BudgetExceeded(f"subfield size {q0} exceeds the enumeration budget {max_q}")
    if order * ctx.p > max_q:
        raise BudgetExceeded(f"the {order}x{ctx.p} count table exceeds the enumeration budget {max_q}")
    d = (ctx.q - 1) // (q0 - 1)
    g0 = ctx.gamma**d
    trow = ctx.subfield_trace_row(s_sub)
    counts = bucket_sweep(ctx, g0, trow, order, q0 - 1, threads)
    # Tripwire: the subfield trace of a few walked elements must satisfy the
    # prime-field identity Tr = coords . trow and land where the sweep put it.
    x = ctx.one()
    for _ in range(min(q0 - 1, 8)):
        direct = ctx.subfield_trace(x, s_sub)
        via_row = sum(int(t) * c for t, c in zip(trow, x.coords)) % ctx.p
        if direct != via_row:
            raise FieldError("subfield trace row disagrees with the Frobenius sum")
        x = x * g0
    return SubfieldSums(ctx, s_sub, TraceSpectrum(order, tuple(tuple(int(c) for c in row) for row in counts)))


def subfield_jacobi(sums: SubfieldSums, j: int) -> CycElem:
    """J(chi^j) over the subfield, chi normalized as in subfield_sums."""
    ctx, q0 = sums.ctx, sums.q0
    dlog = discrete_log_map(ctx, ctx.gamma ** ((ctx.q - 1) // (q0 - 1)), q0 - 1)
    return jacobi_sum(ctx, sums.order, j, dlog)


# ---------------------------------------------------------------------------
# period reconstruction from Gauss sums
# ---------------------------------------------------------------------------


def periods_from_gauss(p: int, s: int, m: int, table: dict[int, CycElem]) -> PeriodVector:
    """All 2^m reduced periods from the Gauss sums of the 2-power-order characters.

    `table[j]` must hold G(lambda^j) for j = +/-2^{m-r} mod 2^m, r = 1..m,
    where lambda is the order-2^m character with lambda(gamma) = zeta_{2^m}.
    Requires p = 3 or 5 (mod 8) and m >= 2.
    """
    if p % 8 not in (3, 5):
        raise ValueError("p must be 3 or 5 mod 8")
    if m < 2:
        raise ValueError("m must be >= 2")
    e = 1 << m
    n = math.lcm(8, e, p)

    def gp(r: int) -> CycElem:
        return table[(1 << (m - r)) % e].embed(n)

    def gm(r: int) -> CycElem:
        return table[(-(1 << (m - r))) % e].embed(n)

    for r in range(1, m + 1):
        for key in ((1 << (m - r)) % e, (-(1 << (m - r))) % e):
            if key not in table:
                raise ValueError(f"table is missing G(lambda^{key})")

    g_rho = gp(1)
    pair: list = [None, None] + [gp(r) + gm(r) for r in range(2, m + 1)]
    diff: list = [None, None] + [gp(r) - gm(r) for r in range(2, m + 1)]

    i_unit = CycElem.root(4, 1).embed(n)
    isqrt2 = (CycElem.root(8, 1) + CycElem.root(8, 3)).embed(n)

    eta = [CycElem.zero(n) for _ in range(e)]
    total = g_rho
    for r in range(2, m + 1):
        total = total + (1 << (r - 2)) * pair[r]
    eta[0] = total
    half = g_rho
    for r in range(2, m):
        half = half + (1 << (r - 2)) * pair[r]
    eta[e // 2] = half - (1 << (m - 2)) * pair[m]

    plus_minus: dict[int, tuple[CycElem, CycElem]] = {}
    for t in range(0, m - 1):
        base = CycElem.zero(n)
        for r in range(2, t + 1):
            base = base + (1 << (r - 2)) * pair[r]
        if t == 0:
            base = base - g_rho
        else:
            base = base + g_rho - (1 << (t - 1)) * pair[t + 1]
        corr = CycElem.zero(n)
        if p % 8 == 5:
            corr = corr + (1 << t) * (i_unit * diff[t + 2])
        if p % 8 == 3 and t <= m - 3:
            corr = corr + (1 << t) * (isqrt2 * diff[t + 3])
        plus_minus[t] = (base - corr, base + corr)

    for k in range(1, e):
        if k == e // 2:
            continue
        t = ord2(k)
        k0 = (k >> t) % (1 << (m - t))
        sign_set = set()
        v = 1
        for _ in range(1 << max(0, m - t - 2)):
            sign_set.add(v)
            v = v * p % (1 << (m - t))
        if k0 in sign_set:
            eta[k] = plus_minus[t][0]
        elif (-k0) % (1 << (m - t)) in sign_set:
            eta[k] = plus_minus[t][1]
        else:  # p generates too little of the residue classes: cannot happen
            raise ArithmeticError(f"index {k} not reachable from +/- powers of p")

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
    for rr in range(1, m + 1):
        for key in ((1 << (m - rr)) % e, (-(1 << (m - rr))) % e):
            if key not in table:
                table[key] = lift_gauss_sum(sums.gauss(key), r)
    periods = periods_from_gauss(p, s, m, table)
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
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> list[IdentityCheck]:
    """G(lambda^{2^{m-r}}) +/- G(conjugate) against the quadratic partition values.

    For p = 3 (mod 8) (needs 2^{r-1} | s, 3 <= r <= m):
        sum  = 2 A_r q^{(2^{r-2}-1)/2^{r-1}}
        diff = 2 B_r q^{(2^{r-2}-1)/2^{r-1}} i sqrt2
    For p = 5 (mod 8) (needs 2^{r-1} | s, 2 <= r <= m):
        sum  = -2 C_r q^{...}        (2^r | s)      diff = 2 D_r q^{...} i
        sum  = (-1)^r 2 C_r q^{...}  (2^{r-1} || s) diff = (-1)^{r-1} 2 D_r q^{...} i
    """
    from .partitions import partition_a, partition_c

    p, s = ctx.p, ctx.s
    e = 1 << m
    if table is None:
        table = gauss_table(ctx, e, max_q=max_q, threads=threads)
    j = 1 << (m - r)
    g_plus = table.value(j)
    g_minus = table.value(-j)
    total, delta = g_plus + g_minus, g_plus - g_minus
    checks = []
    if p % 8 == 3:
        if r < 3 or s % (1 << (r - 1)):
            raise ValueError("need 3 <= r and 2^{r-1} | s")
        rec = partition_a(ctx, r)
        scale = _q_fractional(p, s, (1 << (r - 2)) - 1, 1 << (r - 1))
        isqrt2 = CycElem.root(8, 1) + CycElem.root(8, 3)
        checks.append(_check("15", {"r": r, "side": "sum"}, total, (2 * rec.first) * scale))
        checks.append(_check("15", {"r": r, "side": "diff"}, delta, (2 * rec.second) * scale * isqrt2))
    else:
        if r < 2 or s % (1 << (r - 1)):
            raise ValueError("need 2 <= r and 2^{r-1} | s")
        rec = partition_c(ctx, r)
        scale = _q_fractional(p, s, (1 << (r - 1)) - 1, 1 << r)
        i_unit = CycElem.root(4, 1)
        if s % (1 << r) == 0:
            sum_sign, diff_sign = -1, 1
        else:
            sum_sign, diff_sign = (-1) ** r, (-1) ** (r - 1)
        checks.append(_check("16", {"r": r, "side": "sum"}, total, (sum_sign * 2 * rec.first) * scale))
        checks.append(
            _check("16", {"r": r, "side": "diff"}, delta, (diff_sign * 2 * rec.second) * scale * i_unit)
        )
    return checks


def identity_report(
    ctx: FieldCtx,
    m: int,
    only: set[str] | None = None,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> list[IdentityCheck]:
    """Run the classical-identity suite on the order-2^r characters of ctx.

    Check ids: 2a, 2b, 2c, 3, 4, 5, 7, 8, 9, 10, 11, 15, 16. A failure always
    indicates an artifact bug, never valid data.
    """
    from .closed_form import q_power

    p, s, q = ctx.p, ctx.s, ctx.q
    e = 1 << m
    if (q - 1) % e:
        raise ValueError(f"2^{m} does not divide q-1")

    def want(lemma_id: str) -> bool:
        return only is None or lemma_id in only

    table = gauss_table(ctx, e, max_q=max_q, threads=threads)
    rho_idx = e // 2
    checks: list[IdentityCheck] = []

    # values psi(c) need a discrete log; the suite runs on enumerable fields
    dlog = discrete_log_map(ctx) if ctx.q <= DEFAULT_MAX_Q_JACOBI else None
    if dlog is not None:
        log4 = int(_logs(ctx, dlog, np.array([ctx.from_int(4 % p).coords]))[0])

    def chi_value(j: int, elem_log: int) -> CycElem:
        """lambda^j evaluated at gamma^{elem_log}, as a conductor-e root."""
        return CycElem.root(e, j * elem_log % e)

    s2 = ord2(s)
    for r in range(2, m + 1):
        j = 1 << (m - r)
        order_r = 1 << r
        g = table.value(j)
        gbar = table.value(-j)
        if want("2a"):
            sign = 1 if (j * ((q - 1) // 2)) % e == 0 else -1  # psi(-1)
            checks.append(_check("2a", {"r": r}, g * gbar, CycElem.integer(1, sign * q)))
        if want("2b"):
            checks.append(_check("2b", {"r": r}, g, table.value(j * p)))
        if want("2c") and dlog is not None:
            lhs = g * table.value(j + rho_idx)
            rhs = chi_value(-j, log4) * table.value(2 * j) * table.value(rho_idx)
            checks.append(_check("2c", {"r": r}, lhs, rhs))
        if want("8"):
            r_min = 4 if p % 8 == 3 else 3
            if r >= r_min:
                checks.append(_check("8", {"r": r}, g, table.value(j + rho_idx)))
        if want("9") and r >= 3 and dlog is not None:
            lhs = chi_value(j, log4)
            rhs_val = 1 if p % 8 == 3 else (-1) ** (s // (1 << (r - 2)))
            checks.append(_check("9", {"r": r}, lhs, CycElem.integer(1, rhs_val)))
        if want("5") and dlog is not None:
            # order of psi^2 is 2^{r-1}; for r = 1 psi = rho is excluded anyway
            jac = jacobi_sum(ctx, e, j, dlog)
            if 2 * j % e:
                checks.append(_check("5", {"r": r}, g * g, table.value(2 * j) * jac))

    if want("3"):
        g_rho = table.value(rho_idx)
        if s % 2 == 0:
            val = q_power(p, s, 1, 2)
            if p % 4 == 1:
                rhs = CycElem.integer(1, (-1) ** (s - 1) * val)
            else:
                rhs = CycElem.integer(1, (-1) ** (s - 1) * (-1) ** (s // 2) * val)
            checks.append(_check("3", {"s": s}, g_rho, rhs))
        else:
            lsum = _legendre_gauss_sum(p)
            scale = p ** ((s - 1) // 2)
            if p % 4 == 1:
                rhs = scale * lsum
            else:
                rhs = ((-1) ** ((s - 1) // 2) * scale) * lsum
            checks.append(_check("3", {"s": s}, g_rho, rhs))

    if want("4") and p % 8 == 3 and s % 2 == 0 and m >= 2:
        g4 = table.value(e // 4)
        checks.append(_check("4", {}, g4, CycElem.integer(1, -q_power(p, s, 1, 2))))

    if want("7"):
        # direct Gauss sums vs squared-and-negated subfield sums, for every
        # order-2^r character that is a lift from the half-degree subfield
        if s % 2 == 0:
            r_max = min(m, ord2(p ** (s // 2) - 1))
            if r_max >= 1:
                sums = subfield_sums(ctx, s // 2, 1 << r_max, max_q=max_q, threads=threads)
                for r in range(1, r_max + 1):
                    j_small = 1 << (r_max - r)
                    j_big = (1 << (m - r)) % e
                    lifted = lift_gauss_sum(sums.gauss(j_small), 2)
                    checks.append(_check("7", {"r": r}, table.value(j_big), lifted))

    if want("10"):
        from .cyclotomic import frobenius_power_sum

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
            sums = subfield_sums(ctx, s_chi, 1 << n_cls, max_q=max_q, threads=threads)
            jac = subfield_jacobi(sums, 1)
            sign = 1 if p % 8 == 3 else (-1) ** ((s * (r - 1)) // (1 << (r - 1)))
            scale = _q_fractional(p, s, (1 << (r - n_cls + 1)) - 1, 1 << (r - n_cls + 2))
            rhs = sign * scale * jac
            lhs = table.value(1 << (m - r))
            checks.append(_check("11", {"r": r}, lhs, rhs))

    if want("15") and p % 8 == 3:
        for r in range(3, m + 1):
            if s % (1 << (r - 1)) == 0:
                checks.extend(partition_sum_identity(ctx, m, r, table=table))
    if want("16") and p % 8 == 5:
        for r in range(2, m + 1):
            if s % (1 << (r - 1)) == 0:
                checks.extend(partition_sum_identity(ctx, m, r, table=table))

    return checks
