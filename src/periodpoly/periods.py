"""Brute-force ground truth: trace spectra, reduced periods, period polynomials.

trace_spectrum is the one sweep entry: it counts F_q^* by coset and absolute
trace, walked as powers of gamma. A subfield is swept as its own field,
FieldCtx.subfield(k), so the budgets and int64 guards see its size and degree.
trace_spectrum alone checks the budgets and checks the trace row against the
Frobenius sum on a few walked elements before it sweeps.

It sweeps one element per F_p-line, the quotient F_q^*/F_p^*. With
L = (q-1)/(p-1), g0 = gamma^L is the norm of gamma; it has order p-1, so it is
a primitive root of F_p (checked: a gamma whose g0 is not raises FieldError).
Each j < q-1 is j' + iL with j' < L and i < p-1, so gamma^j = g0^i gamma^j',
and since the trace is F_p-linear, Tr(gamma^j) = g0^i Tr(gamma^j'). The sweep
counts part[k'][t'] over j' < L only, and the fold rebuilds the counts over
j < q-1 exactly. Because e | q-1 = (p-1)L, the coset shift iL mod e depends on
i mod (p-1) alone; it has period r = e/gcd(L, e), and r | p-1. So

    counts[k][0]      = ((p-1)/r) * sum_{b<r} part[(k - bL) mod e][0],
    counts[k][g0^a]   = S[(k - aL) mod e],
    S[c]              = sum of part[k'][g0^a'] over k' - a'L = c (mod e),

all of it O(e*p) int64 reductions over the power table of g0.

The kernel, bucket_sweep, walks the first powers of a base once.
Multiplication by the base is a fixed linear map M (mod p) over the
polynomial basis, so Tr(base^j) is a linear recurring sequence. Write
j = start + b*B + i with 0 <= i < B; then

    Tr(base^j) = (trow . M^i) . (M^{bB} . seed),

where seed holds the coordinates of base^start. The kernel builds R, the
B x s block of rows trow . M^i, and W, the block of start states
M^{bB} . seed, both by doubling, and reads every trace off the one product
R . W, taken a bounded slice at a time: s multiply-adds per element. B is a
multiple of e, so row i of R lies in coset (start + i) mod e for every start
state, and one key vector buckets the whole product. The recurrences run
in int64. The product runs in float64 (BLAS) while s*(p-1)^2 < 2^53, and in
int64 above that or for sweeps too short to repay loading BLAS; at
s*(p-1)^2 >= 2^63 the sweep raises SweepOverflow before it starts. The sweep is
partitioned into contiguous j-ranges (each seeded by base^{j_start}) with
private count vectors merged by addition, so the result is bit-identical for
any worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycElem, IntPoly, poly_from_roots
from .fields import FieldCtx, FieldElem, FieldError
from .intmath import power

DEFAULT_MAX_Q = 10**8
_ROWS = 1 << 12  # rows of the trace block R, rounded down to a multiple of e
_CHUNK = 1 << 15  # entries of one slice of the product R . W; also the most buckets counted densely
_MIN_RANGE = 1 << 16  # shortest j-range that gets its own worker


class BudgetExceeded(RuntimeError):
    """Enumeration would touch more than max_q field elements or fill more than max_q counts."""


class SweepOverflow(BudgetExceeded, OverflowError):
    """The int64 arithmetic of the sweep or of a discrete-log walk would wrap."""


@dataclass(frozen=True)
class TraceSpectrum:
    """counts[k][t] = #{j in [0, q-1) : j = k (mod e), Tr(gamma^j) = t}, gamma generating the swept F_q^*."""

    e: int
    counts: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.counts[0])


@dataclass(frozen=True)
class PeriodVector:
    e: int
    eta_star: tuple[CycElem, ...]

    def to_json_dict(self) -> dict:
        return {"e": self.e, "eta_star": [v.to_json_dict() for v in self.eta_star]}


def _exact_dtype(s: int, p: int) -> type:
    """Dtype in which every length-s dot product of residues mod p is exact.

    Raises SweepOverflow when not even int64 is: the recurrences run in int64 too.
    """
    bound = s * (p - 1) ** 2
    if bound >= 1 << 63:
        raise SweepOverflow(f"s*(p-1)^2 = {bound} >= 2^63: the sweep's int64 products would wrap")
    return np.float64 if bound < 1 << 53 else np.int64


def _orbit(first: np.ndarray, step: np.ndarray, n: int, p: int) -> np.ndarray:
    """rows[i] = first . step^i (mod p) for i < n, by doubling: rows[k:2k] = rows[:k] . step^k."""
    rows = np.empty((n, first.shape[0]), dtype=step.dtype)
    rows[0] = first
    k, power = 1, step
    while k < n:
        take = min(k, n - k)
        np.matmul(rows[:take], power, out=rows[k : k + take])
        rows[k : k + take] %= p
        k += take
        power = power @ power % p
    return rows


def _tally(counts: np.ndarray, product: np.ndarray, p: int, rowkey: np.ndarray) -> None:
    """Add the bucket keys rowkey + (product mod p) of one slice of R . W to counts."""
    keys = product.astype(np.int64, copy=False) % p  # int64 % is about 5x faster than float64 %
    keys += rowkey
    keys = keys.ravel()
    # measured (BENCH_rank_s_sweep.json, "tally"): up to 2^15 buckets bincount is as fast as
    # add.at on one thread and about 15% faster on the 2-thread brute sweeps; above that its
    # dense per-slice histogram makes it slower (1.4x at 1.6e5 buckets on F_{10007^2})
    if counts.size <= _CHUNK:
        counts += np.bincount(keys, minlength=counts.size)
    else:
        np.add.at(counts, keys, 1)


def _range_sweep(
    p: int,
    mult: np.ndarray,
    trow: np.ndarray,
    e: int,
    start: int,
    stop: int,
    seed: np.ndarray,
    dtype: type,
) -> np.ndarray:
    """Bucket counts for j in [start, stop); seed holds the coords of base^start.

    mult, trow and seed are int64 residues mod p; the product R . W runs in dtype.
    """
    length = stop - start
    rows = min(length, max(1, _ROWS // e) * e)
    full, tail = divmod(length, rows)
    r = _orbit(trow, mult, rows, p).astype(dtype, copy=False)  # row i: trow . M^i
    jump = power(mult, rows, lambda a, b: a @ b % p, np.eye(len(mult), dtype=np.int64))  # M^rows
    w = _orbit(seed, jump.T, full + (tail > 0), p).astype(dtype, copy=False)  # row b: M^{b*rows} . seed
    # e | rows, so row i of every block lies in coset (start + i) mod e
    rowkey = ((start + np.arange(rows, dtype=np.int64)) % e * p)[:, None]
    counts = np.zeros(e * p, dtype=np.int64)
    step = max(1, _CHUNK // rows)
    for b in range(0, full, step):
        _tally(counts, r @ w[b : min(b + step, full)].T, p, rowkey)
    if tail:
        _tally(counts, r[:tail] @ w[full:].T, p, rowkey[:tail])
    return counts.reshape(e, p)


def bucket_sweep(
    ctx: FieldCtx,
    base: FieldElem,
    trow: np.ndarray,
    e: int,
    length: int,
    threads: int | None = None,
) -> np.ndarray:
    """counts[k][t] over j in [0, length): bucket (j mod e, trow . coords(base^j))."""
    p = ctx.p
    dtype = _exact_dtype(ctx.s, p)
    if length < _MIN_RANGE:  # too short to repay loading BLAS, which costs ~0.7 MB of RSS
        dtype = np.int64
    mult = ctx.mul_matrix(base)
    trow = np.asarray(trow, dtype=np.int64) % p
    threads = max(1, threads or os.cpu_count() or 1)
    n_ranges = max(1, min(threads, length // _MIN_RANGE))
    bounds = [length * i // n_ranges for i in range(n_ranges)] + [length]

    def work(i: int) -> np.ndarray:
        start, stop = bounds[i], bounds[i + 1]
        seed = np.array((base**start).coords, dtype=np.int64)
        return _range_sweep(p, mult, trow, e, start, stop, seed, dtype)

    if n_ranges == 1:
        return work(0)
    with ThreadPoolExecutor(max_workers=n_ranges) as pool:
        parts = list(pool.map(work, range(n_ranges)))
    return sum(parts)


def _fold(part: np.ndarray, g0: int, span: int, p: int) -> np.ndarray:
    """The e x p counts over j < q-1 from part, the counts over j < span = (q-1)/(p-1).

    g0 = gamma^span must be a primitive root of F_p; the formulas are in the
    module docstring.
    """
    e = part.shape[0]
    r = e // math.gcd(span, e)  # period of a -> a*span mod e; r | p-1 since e | (p-1)*span
    shift = np.arange(r, dtype=np.int64) * (span % e) % e  # b*span mod e
    k = np.arange(e, dtype=np.int64)[:, None]
    power_of = _orbit(np.ones(1, dtype=np.int64), np.array([[g0]], dtype=np.int64), p - 1, p)[:, 0]  # g0^a
    counts = np.empty_like(part)
    counts[:, 0] = part[(k - shift) % e, 0].sum(axis=1) * ((p - 1) // r)
    by_class = part[:, power_of].reshape(e, -1, r).sum(axis=1)  # [k', b]: the g0^a' with a' = b (mod r)
    total = by_class[(k + shift) % e, np.arange(r)].sum(axis=1)  # S[c]
    counts[:, power_of] = np.tile(total[(k - shift) % e], (p - 1) // r)
    return counts


def trace_spectrum(
    ctx: FieldCtx,
    e: int,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> TraceSpectrum:
    """Exact coset-by-trace counts of F_q^*, from one sweep of F_q^*/F_p^* and a fold.

    The field is walked as powers of gamma, so the cosets are those of the
    character with chi(gamma) = zeta_e. threads is the sweep's worker count, at
    least 1; None means all cores.
    """
    if e < 1:
        raise ValueError(f"e must be >= 1, got {e}")
    if threads is not None and threads < 1:
        raise ValueError("threads must be >= 1")
    if (ctx.q - 1) % e:
        raise ValueError(f"e={e} does not divide q-1={ctx.q - 1}")
    if ctx.q > max_q:
        raise BudgetExceeded(f"q={ctx.q} exceeds the enumeration budget {max_q}")
    if e * ctx.p > max_q:
        raise BudgetExceeded(f"the {e}x{ctx.p} count table exceeds the enumeration budget {max_q}")
    p = ctx.p
    trow = ctx.trace_row()
    # Tripwire: on a few walked elements the trace row must give the Frobenius sum.
    x = ctx.one()
    for _ in range(min(ctx.q - 1, 8)):
        via_row = sum(int(t) * c for t, c in zip(trow, x.coords)) % p
        if ctx.trace(x) != via_row:
            raise FieldError("trace row disagrees with the Frobenius sum")
        x = x * ctx.gamma
    span = (ctx.q - 1) // (p - 1)
    g0 = (ctx.gamma**span).prime_field_value()  # the norm of gamma
    cofactors = [(p - 1) // ell for ell, _ in ctx.q_minus_1_factorization if (p - 1) % ell == 0]
    if g0 == 0 or any(pow(g0, d, p) == 1 for d in cofactors):
        raise FieldError(f"gamma^{span} = {g0} is not a primitive root of F_{p}")
    # bucket_sweep raises SweepOverflow where (p-1)^2 would wrap, before the fold's O(p) tables
    part = bucket_sweep(ctx, ctx.gamma, trow, e, span, threads)
    counts = _fold(part, g0, span, p)
    return TraceSpectrum(e=e, counts=tuple(map(tuple, counts.tolist())))


def reduced_periods(spectrum: TraceSpectrum) -> PeriodVector:
    """eta*_k = 1 + e * eta_k with eta_k = sum_t counts[k][t] zeta_p^t, exact."""
    p = spectrum.p
    e = spectrum.e
    out = []
    for row in spectrum.counts:
        vec = [e * c for c in row]
        vec[0] += 1
        out.append(CycElem(p, vec))
    return PeriodVector(e=e, eta_star=tuple(out))


def period_polynomial(periods: PeriodVector) -> IntPoly:
    """prod_k (X - eta*_k), expanded over Z[zeta_p]; coefficients must be integers."""
    coeffs = poly_from_roots(list(periods.eta_star))
    out = IntPoly(tuple(c.as_integer() for c in coeffs))
    if not out.is_monic() or out.degree != periods.e:
        raise ArithmeticError(f"period polynomial is not monic of degree {periods.e}")
    if periods.e >= 2 and out.coeffs[periods.e - 1] != 0:
        raise ArithmeticError("the periods do not sum to zero")
    return out
