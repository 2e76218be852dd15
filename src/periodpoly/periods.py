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
trace_spectrum alone checks the budgets and the int64 bound.

It sweeps one element per K-line, the quotient F_q^*/K^*, for a subfield
K = F_Q, Q = p^d, d a proper divisor of s (d = 1 when s = 1). With
L = (q-1)/(Q-1), delta = gamma^L generates K^*. Each j < q-1 is j' + iL with
j' < L and i < Q-1, so gamma^j = delta^i gamma^j', and by the transitivity
and K-linearity of the trace (Lidl & Niederreiter, Finite Fields, Thm 2.26)

    Tr(gamma^j) = Tr_{K/F_p}(delta^i y),  y = Tr_{F_q/K}(gamma^j'),

which is T_K[(i + c) mod (Q-1)] for y = delta^c, T_K[u] = Tr_{K/F_p}(delta^u),
and 0 for y = 0. Because e | q-1 = (Q-1)L, the coset (j' + iL) mod e depends on
i mod r alone, r = e/gcd(L, e), and r | Q-1. So the sweep counts, over j' < L
only, N[a][rho] = #{j' = a (mod e) : log_delta y = rho (mod r)} and
N0[a] = #{j' = a (mod e) : y = 0}, and the fold rebuilds the counts over
j < q-1 exactly, with S[b][t] = #{u < Q-1 : u = b (mod r), T_K[u] = t}:

    T[c]         = sum of N[a][rho] over a - rho*L = c (mod e),
    counts[k][t] = sum_{b<r} T[(k - bL) mod e] S[b][t]
                   + [t = 0] ((Q-1)/r) sum_{b<r} N0[(k - bL) mod e],

the products taken over the nonzero S[b][t] only, at most min(r*p, Q-1) per
row. d = 1 is the F_p-line walk: K = F_p, delta = g0 = gamma^L is the norm of
gamma, y is the trace itself, so the sweep tallies trace values (the columns
g0^u of its table group by u mod r into N), T_K[u] = g0^u, and S has one entry
per t != 0: counts[k][g0^u] = T[(k - uL) mod e]. _line_degree picks d from
(p, s, e) alone, by a cost estimate fitted to measured times: K's walk of Q-1
elements, the sweep of L elements, d residues each above d = 1, and the fold.
At d = s/2 both walks have about sqrt(q) elements.

K is built inside F_q, with no subfield field and nothing from the lift, so
this oracle stays independent of the Davenport-Hasse one: K's walk is the
powers of delta in F_q's basis, F the field's Frobenius matrix,
FieldCtx.frobenius() (column k holds coords(x^{kp})), and y -> y^Q is F^d.
y's residues are proj . coords(gamma^j'), proj = pi . sum_{i<s/d} F^{di}, where
pi takes d coordinates on which delta^0 .. delta^{d-1} have an invertible
minor (_pivots), so that K projects onto them injectively; a length-Q index
scattered from K's walk gives each residue vector its log mod r, and
T_K = walk . (e_0 . sum_{i<d} F^i). Tripwires, all raised before the sweep
or right after the fold:

- F^d . delta = delta: delta lies in K;
- K's Q-1 residue vectors are distinct and nonzero: delta generates K^* and pi
  is injective on K (a gamma whose delta does not raises FieldError);
- Tr(delta^c x^k) = Tr_{K/F_p}(delta^c Tr_{F_q/K}(x^k)) for c < d and every k,
  the left side from the trace row of Newton's identities, the right through
  proj, the index and T_K. K's trace form is nondegenerate, so the d values
  fix Tr_{F_q/K}(x^k), and the check covers every entry of the row and of
  proj; at d = 1 it is row = e_0 . sum_{i<s} F^i;
- every folded row sums to (q-1)/e and every count is >= 0.

The kernel, bucket_sweep, walks the first powers of a base once.
Multiplication by the base is a fixed linear map M (mod p) over the
polynomial basis, so trow . coords(base^j) is a linear recurring sequence.
Write j = b*B + i with 0 <= i < B; then

    trow . coords(base^j) = (trow . M^i) . (M^{bB} . coords(1)).

The kernel builds R, the block of rows trow . M^i for each of its d rows trow,
the jump M^B, and W, the block of start states M^{bB} . coords(1), each once
per sweep and by doubling, and reads every residue off the one product
W . R^T, taken a bounded slice at a time: d*s multiply-adds per element. R has
B*d <= _ROWS rows, and B <= length/(8s), so that building R costs at most an
eighth of the product. Every block starts at a multiple of B, and e | B unless
the sweep is one block, so element i of a block lies in coset i mod e, and
one key vector buckets the whole product. With d rows, each element's d
residues mod p are looked up in classes, the index above, and its bucket is
(j mod e, class). With one row, every entry of W . R^T is a raw dot value in
[0, v), v = s*(p-1)^2 + 1, and its bucket is (j mod e, trace):

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
e*v <= 2^15) and holds on the mod-p paths while s*(p-1)^2 < 2^24; then float64
below 2^53 and int64 below 2^63. Sweeps too short to repay loading BLAS
(_MIN_BLAS) take int64; at s*(p-1)^2 >= 2^63 the sweep raises SweepOverflow
before it starts.

Workers: the sweep splits W's full blocks into contiguous slices, at most
`threads` (default: the CPUs this process may run on) and each of at least
_MIN_WORKER_MOD_P = 2^18 elements on the mod-p tally and _MIN_WORKER_RAW =
2^22 on the raw one, whose cheaper elements repay a second worker only from
about 10^7 (measured: BENCH_float32_sweep.json, "workers"; np.bincount holds
the interpreter lock, BENCH_relative_sweep.json, "bincount_threads"). Each slice is
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
# _line_degree's cost estimate in ns, fitted to one-core trace_spectrum times (BENCH_relative_sweep.json,
# "rule"): per element of a d = 1 sweep on the raw and the mod-p tally, and extra where it is too short
# for BLAS; per element and residue above d = 1; per row and coordinate of K's walk; per product of
# the fold; per entry of its e x r class tables
_COST_RAW, _COST_MOD_P, _COST_INT64, _COST_RESIDUE = 3.2, 7.4, 7.7, 10.3
_COST_WALK, _COST_FOLD, _COST_TABLE = 28.0, 1.5, 69.0


class BudgetExceeded(RuntimeError):
    """A field to sweep or walk has q > max_q, or its e x p count table more than max_q entries.

    max_q bounds the field's size q, not the work done: the sweep visits
    (q-1)/(Q-1) elements, one per K-line, K = F_Q a subfield, and walks the
    Q-1 elements of K^*; at Q = sqrt(q) that is about 2 sqrt(q) elements, and
    (q-1)/(p-1) on fields of prime degree. Also raised for a group past the
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

    first is a row or a block of rows; rows is out, an array of shape (n,) + first.shape
    (a view will do), when given.
    """
    rows = np.empty((n,) + first.shape, dtype=step.dtype) if out is None else out
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


def _tally(
    counts: np.ndarray, keys: np.ndarray, key: np.ndarray | None, p: int | None, classes: np.ndarray | None = None
) -> None:
    """Add the bucket keys of one slice of W . R^T to counts; keys holds that slice in int64.

    With p, each product is reduced mod p, each element's d residues looked up in
    classes where it is given, and key, the coset keys of the elements, added; with
    None, R^T carries its keys in its last row and each product is its key.
    """
    if p is not None:
        keys %= p  # int64 % is about 5x faster than float64 %
        if classes is not None:  # d consecutive columns per element
            keys = classes[tuple(np.moveaxis(keys.reshape(len(keys), -1, classes.ndim), -1, 0))]
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
    rt: np.ndarray,
    w: np.ndarray,
    key: np.ndarray | None,
    size: int,
    p: int | None,
    classes: np.ndarray | None = None,
) -> np.ndarray:
    """Bucket counts of the blocks w[b] . rt over the rows b of w, a bounded slice of W . R^T at a time.

    key, p and classes are _tally's. Every slice reuses one product buffer and one int64
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
        _tally(counts, keys[:n], key, p, classes)
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
    classes: np.ndarray | None = None,
) -> np.ndarray:
    """counts[k][c] over j in [0, length): bucket (j mod e, c) of the residues trow . coords(base^j) (mod p).

    trow is one row, and c its residue; or d rows, and c = classes[residues], classes an
    array of shape (p,) * d that holds each residue vector's bucket column.
    """
    p, s = ctx.p, ctx.s
    mult = ctx.mul_matrix(base)
    trow = np.atleast_2d(np.asarray(trow, dtype=np.int64)) % p
    d = len(trow)
    rows = min(length, max(1, min(_ROWS // d, length // (8 * s)) // e) * e)  # R has rows * d rows
    full, tail = divmod(length, rows)
    width = _bucket_width(e, s, p) if classes is None else int(classes.max()) + 1
    raw = width != p and classes is None  # the raw tally keys (j mod e)*width + dot and folds it mod p below
    # R and W; on the raw tally R gains a column of keys and W a column of ones, so that each
    # entry of [W | 1] . [R | key]^T is its own key. Blocks start at multiples of rows, and
    # e | rows unless there is one block: rows i*d .. i*d + d-1 of R are in coset i mod e
    key = np.arange(rows, dtype=np.int64) % e * width
    r = np.empty((rows, d, s + raw), dtype=np.int64)
    _orbit(trow, mult, rows, p, out=r[:, :, :s])  # row i*d + c: trow_c . M^i
    if raw:
        r[:, 0, s] = key
    r = r.reshape(rows * d, s + raw)
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
    parts = _in_threads(lambda part: _block_counts(rt, part, key, size, modulus, classes), slices)
    if tail:
        parts.append(_block_counts(rt[:, : tail * d], w[full:], key, size, modulus, classes))
    if not raw:
        return sum(parts).reshape(e, width)
    # counts[:, t] = raw[:, t::p].sum(1), once per sweep, with width padded to a multiple of p
    padded = np.zeros((e, -(-width // p) * p), dtype=np.int64)
    padded[:, :width] = sum(parts).reshape(e, width)
    return padded.reshape(e, -1, p).sum(axis=1)


def _fold(part: np.ndarray, columns: np.ndarray, traces: np.ndarray, span: int, p: int) -> np.ndarray:
    """The e x p counts over j < q-1 from part, the sweep's counts over j' < span = (q-1)/(Q-1).

    Column 0 of part counts the j' with Tr_{F_q/K}(gamma^j') = 0, and columns[u] is the
    column of Tr_{F_q/K}(gamma^j') = delta^u, delta = gamma^span, for u < Q-1;
    traces[u] = Tr_{K/F_p}(delta^u). The formulas are in the module docstring.
    """
    e = part.shape[0]
    r = e // math.gcd(span, e)  # period of b -> b*span mod e; r | Q-1 since e | (Q-1)*span
    shift = np.arange(r, dtype=np.int64) * (span % e) % e  # b*span mod e
    k = np.arange(e, dtype=np.int64)[:, None]
    # the first width - 1 powers of delta meet each nonzero column of part once, so
    # N[a][rho] sums their columns by u = rho (mod r)
    by_class = part[:, columns[: part.shape[1] - 1]].reshape(e, -1, r).sum(axis=1)
    total = by_class[(k + shift) % e, np.arange(r)].sum(axis=1)  # T[c]
    back = (k - shift) % e  # [k, b]: k - b*span mod e
    moved = total[back]
    # counts[k][t] = sum_b moved[k][b] S[b][t], over the nonzero S[b][t] only, grouped by t:
    # one per t != 0 when K = F_p
    by_residue = np.bincount(np.arange(len(traces)) % r * p + traces, minlength=r * p).reshape(r, p)
    t, b = np.nonzero(by_residue.T)
    starts = np.flatnonzero(np.concatenate(([True], t[1:] != t[:-1])))
    counts = np.zeros((e, p), dtype=np.int64)
    counts[:, t[starts]] = np.add.reduceat(moved[:, b] * by_residue[b, t], starts, axis=1)
    counts[:, 0] += part[back, 0].sum(axis=1) * (len(traces) // r)
    return counts


def _pivots(rows: np.ndarray, p: int) -> list[int]:
    """Coordinates on which rows (mod p) have an invertible minor: the pivots of Gauss elimination.

    Each row is reduced by the pivot rows before it; fewer pivots than rows means the
    rows are dependent.
    """
    pivots, basis = [], []
    for v in rows.tolist():  # d rows of s: Python ints beat numpy calls on vectors this short
        for c, b in zip(pivots, basis):
            v = [(x - v[c] * y) % p for x, y in zip(v, b)]
        c = next((i for i, x in enumerate(v) if x % p), None)
        if c is not None:
            inverse = pow(v[c], -1, p)
            pivots.append(c)
            basis.append([x * inverse % p for x in v])
    return pivots


def _line_degree(p: int, s: int, e: int) -> int:
    """d of the subfield K = F_{p^d} whose lines trace_spectrum walks: the proper divisor of s of least estimated cost.

    The estimate adds K's walk of Q - 1 rows of s coordinates, the sweep of
    L_d = (q-1)/(Q-1) elements (at d = 1 on the raw or the mod-p tally, above it d
    residues each), the fold's e x min(r*p, Q-1) products and its e x r class tables,
    r = e/gcd(L_d, e). s = 1 has no proper divisor and takes d = 1.
    """

    def cost(d: int) -> float:
        lines = p**d - 1
        span = (p**s - 1) // lines
        r = e // math.gcd(span, e)
        if d > 1:
            per_element = _COST_RESIDUE * d
        else:
            per_element = _COST_RAW if _bucket_width(e, s, p) != p else _COST_MOD_P
            per_element += _COST_INT64 if span < _MIN_BLAS else 0
        fold = _COST_FOLD * e * min(r * p, lines) + _COST_TABLE * e * r
        return _COST_WALK * lines * s + per_element * span + fold

    return min((d for d in range(1, s) if s % d == 0), key=cost, default=1)


def trace_spectrum(
    ctx: FieldCtx,
    e: int,
    max_q: int = DEFAULT_MAX_Q,
    threads: int | None = None,
) -> TraceSpectrum:
    """Exact coset-by-trace counts of F_q^*, from one sweep of F_q^*/K^* and a fold, K = F_{p^d}.

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
    d = _line_degree(p, s, e)
    lines = p**d - 1  # |K^*|
    span = (ctx.q - 1) // lines
    frob = ctx.frobenius()
    frob_d = power(frob, d, lambda a, b: a @ b % p, None)  # y -> y^Q
    delta = ctx.gamma**span
    if not np.array_equal(frob_d @ np.array(delta.coords, dtype=np.int64) % p, delta.coords):
        raise FieldError(f"gamma^{span} is not in F_{lines + 1}")
    # K's walk, delta^u in F_q's basis, and its residues on d coordinates where delta^0 ..
    # delta^{d-1}, a basis of K when delta generates K^*, have an invertible minor
    mult = ctx.mul_matrix(delta)
    basis = np.eye(s, dtype=np.int64)
    walk = _orbit(basis[0], mult.T, lines, p)
    pivots = _pivots(walk[:d], p)
    residues = walk[:, pivots]
    log = np.full((p,) * d, -1, dtype=np.int64)  # log_delta of each residue vector; -1 where none
    if len(pivots) == d:
        log[tuple(residues.T)] = np.arange(lines)
    # Tripwire: delta generates K^* and the residues are injective on K exactly when the
    # Q - 1 residue vectors of the walk are distinct and nonzero
    if len(pivots) < d or log.flat[0] >= 0 or np.count_nonzero(log >= 0) < lines:
        raise FieldError(f"gamma^{span} is not a primitive root of F_{lines + 1}")
    # proj maps coords(x) to the residues of Tr_{F_q/K}(x) = sum_{i<s/d} x^{Q^i}; traces[u] is
    # Tr_{K/F_p}(delta^u), entry 0 of sum_{i<d} (delta^u)^{p^i}
    proj = _orbit(basis[pivots], frob_d, s // d, p).sum(axis=0) % p
    traces = walk @ (_orbit(basis[0], frob, d, p).sum(axis=0) % p) % p
    # Tripwire, independent of the Frobenius matrix on the left: the trace row from Newton's
    # identities must give Tr(delta^c x^k) = Tr_{K/F_p}(delta^c Tr_{F_q/K}(x^k)) for c < d and
    # every k. The d values determine Tr_{F_q/K}(x^k) (the trace form of K is nondegenerate),
    # so this covers every entry of the row and of proj; at d = 1 it is row = e_0 . sum F^i
    logs = log[tuple(proj)]
    want = np.where(logs >= 0, traces[(np.arange(d)[:, None] + logs) % lines], 0)
    if not np.array_equal(_orbit(ctx.trace_row() % p, mult, d, p), want):
        raise FieldError(f"trace row disagrees with the Frobenius sums through F_{lines + 1}")
    r = e // math.gcd(span, e)
    classes = None if d == 1 else np.where(log >= 0, 1 + log % r, 0)  # the sweep's column of each residue
    columns = residues[:, 0] if classes is None else classes[tuple(residues.T)]
    part = bucket_sweep(ctx, ctx.gamma, proj, e, span, threads, classes)
    counts = _fold(part, columns, traces, span, p)
    if (counts < 0).any() or (counts.sum(axis=1) != (ctx.q - 1) // e).any():
        raise ArithmeticError(f"the folded counts are not {e} rows of (q-1)/e >= 0 elements")
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
