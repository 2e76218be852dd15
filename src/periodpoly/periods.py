"""Brute-force ground truth: trace spectra, reduced periods, period polynomials.

The enumeration walks the full multiplicative group once: gamma^{j+1} is
obtained from gamma^j by a single multiplication, which over the polynomial
basis is a fixed linear map. Blocks of consecutive powers are therefore
columns of a matrix recurrence W -> M^B W (mod p), which numpy chews through
at matrix-multiply speed; per-element work is one dot product for the trace
plus a bucket increment. The sweep is partitioned into contiguous j-ranges
(each seeded by gamma^{j_start}) with private count matrices merged by
addition, so the result is bit-identical for any worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycElem, IntPoly, poly_from_roots
from .fields import FieldCtx, FieldElem

DEFAULT_MAX_Q = 10**8
_BLOCK = 1 << 14


class BudgetExceeded(RuntimeError):
    """Enumeration would touch more than max_q field elements."""


@dataclass(frozen=True)
class TraceSpectrum:
    """counts[k][t] = #{j in [0, q-1) : j = k (mod e), Tr(gamma^j) = t}."""

    e: int
    counts: tuple[tuple[int, ...], ...]

    @property
    def p(self) -> int:
        return len(self.counts[0])

    @property
    def f(self) -> int:
        return sum(self.counts[0])


@dataclass(frozen=True)
class PeriodVector:
    e: int
    eta_star: tuple[CycElem, ...]

    def to_json_dict(self) -> dict:
        return {"e": self.e, "eta_star": [v.to_json_dict() for v in self.eta_star]}


def _range_sweep(
    p: int,
    mult: np.ndarray,
    trow: np.ndarray,
    e: int,
    start: int,
    stop: int,
    seed: np.ndarray,
    block: int = _BLOCK,
) -> np.ndarray:
    """Bucket counts for j in [start, stop); seed holds the coords of base^start."""
    s = mult.shape[0]
    length = stop - start
    counts = np.zeros(e * p, dtype=np.int64)
    width = min(block, length)
    w = np.empty((s, width), dtype=np.int64)
    col = seed.astype(np.int64) % p
    for i in range(width):
        w[:, i] = col
        col = mult @ col % p
    mult_block = _mat_pow(mult, width, p)
    j = start
    while j < stop:
        nb = min(width, stop - j)
        wb = w[:, :nb]
        traces = trow @ wb % p
        ks = (j + np.arange(nb, dtype=np.int64)) % e
        counts += np.bincount(ks * p + traces, minlength=e * p)
        j += nb
        if j < stop:
            w = mult_block @ w % p
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
    mult = ctx.mul_matrix(base)
    threads = max(1, threads or os.cpu_count() or 1)
    n_ranges = max(1, min(threads, length // (4 * _BLOCK)))
    bounds = [length * i // n_ranges for i in range(n_ranges)] + [length]

    def work(i: int) -> np.ndarray:
        start, stop = bounds[i], bounds[i + 1]
        seed = np.array((base**start).coords, dtype=np.int64)
        return _range_sweep(ctx.p, mult, trow, e, start, stop, seed)

    if n_ranges == 1:
        return work(0)
    with ThreadPoolExecutor(max_workers=n_ranges) as pool:
        parts = list(pool.map(work, range(n_ranges)))
    return sum(parts)


def trace_spectrum(
    ctx: FieldCtx,
    e: int,
    generator: FieldElem | None = None,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> TraceSpectrum:
    """Exact coset-by-trace counts from one multiplicative sweep of F_q^*."""
    if (ctx.q - 1) % e:
        raise ValueError(f"e={e} does not divide q-1={ctx.q - 1}")
    if ctx.q > max_q:
        raise BudgetExceeded(f"q={ctx.q} exceeds the enumeration budget {max_q}")
    g = generator if generator is not None else ctx.gamma
    counts = bucket_sweep(ctx, g, ctx.trace_row(), e, ctx.q - 1, threads)
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
