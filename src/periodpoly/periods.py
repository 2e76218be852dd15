"""Brute-force ground truth: trace spectra, reduced periods, period polynomials.

PeriodVector.factors factors prod_k (X - eta*_k) over Q for either oracle's
periods in Z[zeta_p]: the distinct periods split into Galois orbits, each
orbit's polynomial is the minimal polynomial of its values, so an irreducible
factor, and its coefficients come from one ring map Z[zeta_p] -> Z/N,
N > 2(1+M)^d, d the largest orbit. period_polynomial multiplies those factors,
each to its multiplicity, in Z[X]; verify compares them with the closed form's
factor list, factor for factor.

trace_spectrum is the one sweep entry: it counts F_q^* by coset and absolute
trace, walked as powers of gamma. A subfield is swept as its own field,
FieldCtx.subfield(k), so the budgets and int64 guards see its size and degree.
trace_spectrum alone checks the budgets and the int64 bound, and then checks
the whole trace row before it sweeps: Tr(x^k) is the constant coordinate of
sum_{i<s} x^{k p^i}, so the row must equal e_0 . sum_{i<s} F^i, where F is the
field's Frobenius matrix, FieldCtx.frobenius() (column k holds coords(x^{kp})).
This check does not use Newton's identities, which give the row, and it covers
every entry.

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
j = b*B + i with 0 <= i < B; then

    Tr(base^j) = (trow . M^i) . (M^{bB} . coords(1)).

The kernel builds R, the B x s block of rows trow . M^i, the jump M^B, and
W, the block of start states M^{bB} . coords(1), each once per sweep and by
doubling, and reads every trace off the one product W . R^T, taken a bounded
slice at a time: s multiply-adds per element. Every block starts at a
multiple of B, and e | B unless the sweep is one block, so column i of R^T
lies in coset i mod e, and one key vector buckets the whole product. Every
entry of W . R^T is a raw dot value in [0, v), v = s*(p-1)^2 + 1.

- While e*v <= _CHUNK = 2^15 buckets, the sweep tallies the raw key
  (j mod e)*v + dot, with no reduction mod p per element, and folds its
  e x v table mod p once at the end: counts[:, t] = raw[:, t::p].sum(1). The
  key rides in the product: R^T gains the row of keys (i mod e)*v and W a
  column of ones, so each product is its key.
- Above that bound it tallies (j mod e)*p + (dot mod p), adding the key after
  the reduction.

The recurrences run in int64. The product runs in the first exact dtype
(_exact_dtype): every term is a non-negative integer, so every partial sum,
in any order, is at most the whole, s*(p-1)^2 plus the key. float32 is exact
below 2^24, which always holds on the raw path (its sums stay below
e*v <= 2^15) and holds on the mod-p path while s*(p-1)^2 < 2^24; then float64
below 2^53 and int64 below 2^63. Sweeps too short to repay loading BLAS
(_MIN_BLAS) take int64; at s*(p-1)^2 >= 2^63 the sweep raises SweepOverflow
before it starts.

Workers: the sweep splits W's full blocks into contiguous slices, at most
`threads` (default: the CPUs this process may run on) and each of at least
_MIN_WORKER_MOD_P = 2^18 elements on the mod-p tally and _MIN_WORKER_RAW =
2^22 on the raw one, whose cheaper elements repay a second worker only from
about 10^7 (measured: BENCH_float32_sweep.json, "workers"). Each slice is
tallied into a private count vector on its own thread; those vectors and the
one tail block's are summed in slice order, so the result is bit-identical
for any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import os
import threading
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .cyclotomic import CycElem, IntPoly, canonical_factors, expand_factor_list, expand_mod, root_of_unity_mod
from .fields import FieldCtx, FieldElem, FieldError
from .intmath import factorize, is_prime, power

DEFAULT_MAX_Q = 10**8
_ROWS = 1 << 12  # rows of the trace block R, rounded down to a multiple of e
_CHUNK = 1 << 15  # entries of one slice of the product W . R^T; also the most buckets counted densely
_MIN_BLAS = 1 << 16  # a shorter sweep takes the int64 product and never loads BLAS
# fewest elements per sweep worker, on each tally (BENCH_float32_sweep.json, "workers")
_MIN_WORKER_MOD_P = 1 << 18
_MIN_WORKER_RAW = 1 << 22
# (dtype, b): a sum of non-negative integers below 2^b is exact in dtype, in any order
_EXACT_BELOW = ((np.float32, 24), (np.float64, 53), (np.int64, 63))


class BudgetExceeded(RuntimeError):
    """A field to sweep or walk has q > max_q, or its e x p count table more than max_q entries.

    max_q bounds the field's size q, not the work done: the sweep visits
    (q-1)/(p-1) elements, one per F_p-line. Also raised for a group past the
    discrete-log walk's fixed bound, charsums.DEFAULT_MAX_Q_JACOBI.
    """


class SweepOverflow(BudgetExceeded, OverflowError):
    """The int64 arithmetic of the sweep or of a discrete-log walk would wrap."""


@dataclass(frozen=True)
class TraceSpectrum:
    """counts[k][t] = #{j in [0, q-1) : j = k (mod e), Tr(gamma^j) = t}, gamma generating the swept F_q^*."""

    counts: tuple[tuple[int, ...], ...]  # e rows of p entries

    @property
    def e(self) -> int:
        return len(self.counts)

    @property
    def p(self) -> int:
        return len(self.counts[0])


@dataclass(frozen=True)
class PeriodVector:
    """The reduced periods eta*_0, ..., eta*_{e-1}; e is their number."""

    eta_star: tuple[CycElem, ...]

    @property
    def e(self) -> int:
        return len(self.eta_star)

    @functools.cached_property
    def factors(self) -> tuple[tuple[IntPoly, int], ...]:
        """The distinct monic irreducible factors of prod_k (X - eta*_k) over Q with their multiplicities.

        In the order of canonical_factors; N > 2 (1 + M)^d, d the largest orbit.
        Each period's vector less its entry at t = 0 is its unique form modulo the
        all-ones vector, which is 0. sigma_g (entry t moves to g*t mod p, g a primitive
        root mod p) generates Gal(Q(zeta_p)/Q), so it splits the distinct vectors w into
        orbits. Each orbit must close inside the multiset of periods, and all its values
        must have one multiplicity; if not, ArithmeticError. An orbit is then the set of
        conjugates of any of its values, so its polynomial prod (X - w) is that value's
        minimal polynomial over Q: monic, in Z[X] (its roots are algebraic integers) and
        irreducible, and distinct orbits give distinct factors. By Parseval, no complex
        image of w exceeds M = max sqrt(p * sum_t w_t^2 - (sum_t w_t)^2), and the
        coefficient of X^{d-i} of an orbit of d values is at most C(d, i) M^i <= (1 + M)^d.
        So each distinct value is mapped once through the ring map zeta_p -> omega,
        Z[zeta_p] -> Z/N with N > 2 (1 + M)^d, and each orbit is expanded mod N and
        lifted to (-N/2, N/2). Cached: verify compares the factors after the expansion.
        """
        conductors = {v.n for v in self.eta_star}
        p = min(conductors, default=0)
        if len(conductors) != 1 or p == 2 or not is_prime(p):
            raise ValueError(f"the periods need one odd prime conductor, got {sorted(conductors)}")
        mult = Counter(tuple(c - v.vec[0] for c in v.vec) for v in self.eta_star)
        cofactors = [(p - 1) // ell for ell, _ in factorize(p - 1)]
        g = next(g for g in range(2, p) if all(pow(g, d, p) != 1 for d in cofactors))
        g_inverse = pow(g, -1, p)
        sigma = operator.itemgetter(*(t * g_inverse % p for t in range(p)))  # sigma(w)[g*t] = w[t]
        orbits, rest = [], dict(mult)
        while rest:
            w, count = rest.popitem()
            orbit = [w]
            while (u := sigma(orbit[-1])) != w:
                if rest.pop(u, None) != count:
                    raise ArithmeticError(f"sigma_{g} does not permute the periods: their polynomial is not over Z")
                orbit.append(u)
            orbits.append((orbit, count))
        height = max(math.isqrt(p * sum(c * c for c in w) - sum(w) ** 2) + 1 for w in mult)  # M
        modulus, omega = root_of_unity_mod(p, 2 * (1 + height) ** max(len(orbit) for orbit, _ in orbits))
        powers = list(itertools.accumulate(range(p - 1), lambda x, _: x * omega % modulus, initial=1))
        factors = []
        for orbit, count in orbits:  # each distinct value is in one orbit, so it is mapped once
            coeffs = expand_mod([sum(map(operator.mul, w, powers)) % modulus for w in orbit], modulus)
            factors.append((IntPoly(c - modulus if 2 * c > modulus else c for c in coeffs), count))
        return canonical_factors(factors)

    def to_json_dict(self) -> dict:
        return {"e": self.e, "eta_star": [v.to_json_dict() for v in self.eta_star]}


def _exact_dtype(s: int, p: int, key: int = 0) -> type:
    """The first dtype of _EXACT_BELOW in which every product of the sweep is exact.

    Each product is a length-s dot product of residues mod p plus, on the raw
    path, a key of at most key: a sum of non-negative integers, so every partial
    sum, in any order, is at most s*(p-1)^2 + key. Raises SweepOverflow when not
    even int64 is exact: the recurrences run in int64 too.
    """
    bound = s * (p - 1) ** 2 + key
    for dtype, bits in _EXACT_BELOW:
        if bound < 1 << bits:
            return dtype
    raise SweepOverflow(f"the sweep's dot products reach {bound} >= 2^63: its int64 products would wrap")


def _orbit(first: np.ndarray, step: np.ndarray, n: int, p: int, out: np.ndarray | None = None) -> np.ndarray:
    """rows[i] = first . step^i (mod p) for i < n, by doubling: rows[k:2k] = rows[:k] . step^k.

    rows is out, an n x len(first) array (a view will do), when given.
    """
    rows = np.empty((n, first.shape[0]), dtype=step.dtype) if out is None else out
    rows[0] = first
    k, power = 1, step
    while k < n:
        take = min(k, n - k)
        np.matmul(rows[:take], power, out=rows[k : k + take])
        rows[k : k + take] %= p
        k += take
        power = power @ power % p
    return rows


def _bucket_width(e: int, s: int, p: int) -> int:
    """Buckets per coset: v = s*(p-1)^2 + 1 raw dot values while e*v <= _CHUNK, else p residues."""
    width = s * (p - 1) ** 2 + 1
    return width if e * width <= _CHUNK else p


def _tally(counts: np.ndarray, keys: np.ndarray, key: np.ndarray | None, p: int | None) -> None:
    """Add the bucket keys of one slice of W . R^T to counts; keys holds that slice in int64.

    With p, each product is reduced mod p and key, the keys of the columns of R^T,
    added, in place; with None, R^T carries its keys in its last row and each
    product is its key.
    """
    if p is not None:
        keys %= p  # int64 % is about 5x faster than float64 %
        keys += key[:, : keys.shape[1]]  # a tail block has fewer columns
    keys = keys.ravel()
    # measured (BENCH_rank_s_sweep.json, "tally"): up to 2^15 buckets bincount is as fast as
    # add.at on one thread and about 15% faster on the 2-thread brute sweeps; above that its
    # dense per-slice histogram makes it slower (1.4x at 1.6e5 buckets on F_{10007^2}).
    # The raw keys have at most 2^15 buckets (_bucket_width), so they always take bincount
    if counts.size <= _CHUNK:
        counts += np.bincount(keys, minlength=counts.size)
    else:
        np.add.at(counts, keys, 1)


def _block_counts(
    rt: np.ndarray, w: np.ndarray, key: np.ndarray | None, size: int, p: int | None
) -> np.ndarray:
    """Bucket counts of the blocks w[b] . rt over the rows b of w, a bounded slice of W . R^T at a time.

    key and p are _tally's. Every slice reuses one product buffer and one int64
    key buffer: an array allocated per slice page-faults afresh whenever the
    allocator has handed its pages back to the OS (measured on the first call of
    a process: the two-worker sweep of 4129^3 at e = 32 took a median 0.31 s with
    a fresh array per slice, 0.24 s with the buffers; BENCH_float32_sweep.json).
    """
    counts = np.zeros(size, dtype=np.int64)
    step = max(1, _CHUNK // rt.shape[1])
    product = np.empty((min(step, len(w)), rt.shape[1]), dtype=rt.dtype)
    keys = product if rt.dtype == np.int64 else np.empty(product.shape, dtype=np.int64)
    for b in range(0, len(w), step):
        n = min(step, len(w) - b)
        np.matmul(w[b : b + n], rt, out=product[:n])
        if keys is not product:
            keys[:n] = product[:n]
        _tally(counts, keys[:n], key, p)
    return counts


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the OS has one, else every core."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _in_threads(task: Callable, items: list) -> list:
    """[task(x) for x in items], the first in the caller's thread and each other in a thread of its own.

    Every thread is joined before a result is read; the first exception, in the
    order of items, is re-raised in the caller.
    """
    out: list = [None] * len(items)

    def run(i: int) -> None:
        try:
            out[i] = task(items[i])
        except BaseException as exc:  # re-raised below, in the caller's thread
            out[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(items))]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    for result in out:
        if isinstance(result, BaseException):
            raise result
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
    p, s = ctx.p, ctx.s
    mult = ctx.mul_matrix(base)
    trow = np.asarray(trow, dtype=np.int64) % p
    rows = min(length, max(1, _ROWS // e) * e)
    full, tail = divmod(length, rows)
    width = _bucket_width(e, s, p)
    raw = width != p  # the raw tally keys (j mod e)*width + dot and folds it mod p below
    # R and W; on the raw tally R gains a column of keys and W a column of ones, so that each
    # entry of [W | 1] . [R | key]^T is its own key. Blocks start at multiples of rows, and
    # e | rows unless there is one block: row i of R is in coset i mod e
    key = np.arange(rows, dtype=np.int64) % e * width
    r = np.empty((rows, s + raw), dtype=np.int64)
    _orbit(trow, mult, rows, p, out=r[:, :s])  # row i: trow . M^i
    if raw:
        r[:, s] = key
    jump = power(mult, rows, lambda a, b: a @ b % p, np.eye(s, dtype=np.int64))  # M^rows
    first = np.array(ctx.one().coords, dtype=np.int64)
    w = np.ones((full + (tail > 0), s + raw), dtype=np.int64)
    _orbit(first, jump.T, len(w), p, out=w[:, :s])  # row b: M^{b*rows} . coords(1)
    dtype = _exact_dtype(s, p, key[-1] if raw else 0)
    if length < _MIN_BLAS:  # too short to repay loading BLAS, which costs ~0.7 MB of RSS
        rt = r.T  # a view: numpy's own int64 product takes any strides
    else:  # BLAS multiplies by R^T held contiguous about three times as fast as by a view
        rt, w = np.ascontiguousarray(r.T, dtype=dtype), w.astype(dtype)
    modulus, key = (None, None) if raw else (p, key[None, :])
    size = e * width
    least = _MIN_WORKER_RAW if raw else _MIN_WORKER_MOD_P
    workers = max(1, min(threads or _cpus(), length // least))
    bounds = [full * i // workers for i in range(workers + 1)]
    slices = [w[lo:hi] for lo, hi in itertools.pairwise(bounds)]
    parts = _in_threads(lambda part: _block_counts(rt, part, key, size, modulus), slices)
    if tail:
        parts.append(_block_counts(rt[:, :tail], w[full:], key, size, modulus))
    if not raw:
        return sum(parts).reshape(e, p)
    # counts[:, t] = raw[:, t::p].sum(1), once per sweep, with width padded to a multiple of p
    padded = np.zeros((e, -(-width // p) * p), dtype=np.int64)
    padded[:, :width] = sum(parts).reshape(e, width)
    return padded.reshape(e, -1, p).sum(axis=1)


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
    character with chi(gamma) = zeta_e. threads, at least 1, bounds the sweep's
    worker count; None means the CPUs this process may run on.
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
    p, s = ctx.p, ctx.s
    _exact_dtype(s, p)  # raises SweepOverflow before any int64 product below could wrap
    trow = ctx.trace_row()
    # Tripwire, independent of Newton's identities: Tr(x^k) is entry 0 of sum_{i<s} x^{k p^i},
    # so the whole row must be e_0 . sum_{i<s} F^i, F the field's Frobenius matrix (column k
    # is coords(x^{kp})).
    first = np.eye(1, s, dtype=np.int64)[0]  # coords(1)
    if not np.array_equal(_orbit(first, ctx.frobenius(), s, p).sum(axis=0) % p, trow % p):
        raise FieldError("trace row disagrees with the Frobenius sum")
    span = (ctx.q - 1) // (p - 1)
    g0 = (ctx.gamma**span).prime_field_value()  # the norm of gamma
    cofactors = [(p - 1) // ell for ell, _ in ctx.q_minus_1_factorization if (p - 1) % ell == 0]
    if g0 == 0 or any(pow(g0, d, p) == 1 for d in cofactors):
        raise FieldError(f"gamma^{span} = {g0} is not a primitive root of F_{p}")
    part = bucket_sweep(ctx, ctx.gamma, trow, e, span, threads)
    counts = _fold(part, g0, span, p)
    return TraceSpectrum(tuple(map(tuple, counts.tolist())))


def reduced_periods(spectrum: TraceSpectrum) -> PeriodVector:
    """eta*_k = 1 + e * eta_k with eta_k = sum_t counts[k][t] zeta_p^t, exact."""
    p, e = spectrum.p, spectrum.e
    out = []
    for row in spectrum.counts:
        vec = [e * c for c in row]
        vec[0] += 1
        out.append(CycElem(p, vec))
    return PeriodVector(tuple(out))


def period_polynomial(periods: PeriodVector) -> IntPoly:
    """prod_k (X - eta*_k), exact: the product of periods.factors, each to its multiplicity."""
    out = expand_factor_list(periods.factors)
    if not out.is_monic() or out.degree != periods.e:
        raise ArithmeticError(f"period polynomial is not monic of degree {periods.e}")
    if periods.e >= 2 and out.coeffs[periods.e - 1] != 0:
        raise ArithmeticError("the periods do not sum to zero")
    return out
