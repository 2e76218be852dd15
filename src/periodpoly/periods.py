"""Brute-force ground truth: trace spectra, reduced periods, period polynomials.

The enumeration walks a cyclic group once. Multiplication by the base is a
fixed linear map M (mod p) over the polynomial basis, so Tr(base^j) is a
linear recurring sequence. Write j = start + b*B + i with 0 <= i < B; then

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

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycElem, IntPoly, poly_from_roots
from .fields import FieldCtx, FieldElem

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
    """counts[k][t] = #{j in [0, q-1) : j = k (mod e), Tr(gamma^j) = t}."""

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
    w = _orbit(seed, _mat_pow(mult, rows, p).T, full + (tail > 0), p).astype(dtype, copy=False)  # row b: M^{b*rows} . seed
    # e | rows, so row i of every block lies in coset (start + i) mod e
    rowkey = ((start + np.arange(rows, dtype=np.int64)) % e * p)[:, None]
    counts = np.zeros(e * p, dtype=np.int64)
    step = max(1, _CHUNK // rows)
    for b in range(0, full, step):
        _tally(counts, r @ w[b : min(b + step, full)].T, p, rowkey)
    if tail:
        _tally(counts, r[:tail] @ w[full:].T, p, rowkey[:tail])
    return counts.reshape(e, p)


def _mat_pow(mat: np.ndarray, e: int, p: int) -> np.ndarray:
    out = np.eye(mat.shape[0], dtype=np.int64)
    base = mat % p
    while e:
        if e & 1:
            out = out @ base % p
        base = base @ base % p
        e >>= 1
    return out


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


def trace_spectrum(
    ctx: FieldCtx,
    e: int,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> TraceSpectrum:
    """Exact coset-by-trace counts from one multiplicative sweep of F_q^*."""
    if (ctx.q - 1) % e:
        raise ValueError(f"e={e} does not divide q-1={ctx.q - 1}")
    if ctx.q > max_q:
        raise BudgetExceeded(f"q={ctx.q} exceeds the enumeration budget {max_q}")
    if e * ctx.p > max_q:
        raise BudgetExceeded(f"the {e}x{ctx.p} count table exceeds the enumeration budget {max_q}")
    counts = bucket_sweep(ctx, ctx.gamma, ctx.trace_row(), e, ctx.q - 1, threads)
    return TraceSpectrum(e=e, counts=tuple(tuple(int(c) for c in row) for row in counts))


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
