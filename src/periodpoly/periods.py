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
row. _line_degree picks d from (p, s, e) alone, by a cost estimate fitted to
measured times. At d = s/2 the sweep and K's walk have about sqrt(q) elements
each; at d = 1, K = F_p and T_K[u] = delta^u, delta the norm of gamma.

Each y in K is named by its window w(y) = (Tr_{K/F_p}(delta^c y))_{c<d}, one to
one as K's trace form is nondegenerate. By transitivity the sweep reads
w(Tr_{F_q/K} x) = (Tr(delta^c x))_{c<d} off the d rows trow . M^c, trow the
trace row of Newton's identities and M multiplication by delta. w(delta^u) is
T_K[u .. u+d-1], d terms of a linear recurring sequence of order d (Lidl &
Niederreiter, ch. 8), so K is walked d-wide by the companion matrix of the
recurrence that one d x d Hankel system mod p gives from T_K[u], u < 2d. A
length-Q index scattered from the windows gives each window its sweep column,
1 + log_delta mod r, and the zero window 0. K is read inside F_q, with nothing
from FieldCtx.subfield or the lift, so this oracle stays independent of the
Davenport-Hasse one: T_K[u] = kt . M^u . e_0, kt = e_0 . sum_{i<d} F^i, F the
Frobenius matrix (FieldCtx.frobenius(), F . coords(y) = coords(y^p)).
Tripwires, all raised before the sweep or right after the fold:

- F^d . delta = delta: delta lies in K;
- trow . M^c = kt . M^c . sum_{i<s/d} F^{di} for c < d, entry for entry: both
  are Tr(delta^c x) on coords(x), by Newton's identities and by Frobenius sums;
- delta generates K^*: the Hankel system, whose rows are the windows of
  delta^0 .. delta^{d-1}, is nonsingular (delta has degree d), and K's Q-1
  windows are distinct and nonzero;
- every folded row sums to (q-1)/e and every count is >= 0.

The kernel, bucket_sweep, walks the first powers of gamma once.
Multiplication by gamma is a fixed linear map M (mod p) over the
polynomial basis, so trow . coords(gamma^j) is a linear recurring sequence.
Write j = b*B + i with 0 <= i < B; then

    trow . coords(gamma^j) = (trow . M^i) . (M^{bB} . coords(1)).

The kernel builds R, the block of rows trow . M^i for each of its d rows trow,
the jump M^B, and W, the block of start states M^{bB} . coords(1), each once
per sweep and by doubling, and reads every residue off the one product
W . R^T, taken a bounded slice at a time: d*s multiply-adds per element. R has
B*d <= _ROWS rows, and B <= length/(8s), so that building R costs at most an
eighth of the product. Every block starts at a multiple of B, and e | B unless
the sweep is one block, so element i of a block lies in coset i mod e, and
one key vector buckets the whole product. An element's bucket is
(j mod e, classes[residues]), classes the caller's map from d residues mod p
to a column. The class tally reduces each product mod p and looks it up; with
one row, while e*v <= _CHUNK = 2^15, v = s*(p-1)^2 + 1, the raw tally keys
(j mod e)*v + dot on the raw dot value, with no reduction per element, and
moves its e x v table to columns classes[dot mod p] once, by one weighted
bincount. Its key rides in the product: R^T gains the row of keys
(i mod e)*v and W a column of ones.

The recurrences run in int64. The product runs in the first exact dtype
(_exact_dtype): every term is a non-negative integer, so every partial sum,
in any order, is at most the whole, s*(p-1)^2 plus the key. float32 is exact
below 2^24, which always holds on the raw tally (its sums stay below
e*v <= 2^15) and holds on the class tally while s*(p-1)^2 < 2^24; then float64
below 2^53 and int64 below 2^63. Sweeps too short to repay loading BLAS
(_MIN_BLAS) take int64; at s*(p-1)^2 >= 2^63 the sweep raises SweepOverflow
before it starts.

Workers: the sweep splits W's full blocks into contiguous slices, at most
`threads` (default: the CPUs this process may run on) and each of at least
_MIN_WORKER_MOD_P = 2^18 elements on the class tally and _MIN_WORKER_RAW =
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
from .fields import FieldCtx, FieldError
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
# "rule"; rechecked in BENCH_trace_windows.json and BENCH_line_degree.json): per element and residue of
# the sweep, for every d and either tally; per window entry of K's walk; per product of the fold; per
# entry of its e x r class tables
_COST_RESIDUE, _COST_WALK, _COST_FOLD, _COST_TABLE = 10.3, 28.0, 1.5, 69.0


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
    """Raw dot values per coset of a one-row sweep: v = s*(p-1)^2 + 1 while e*v <= _CHUNK, else p (the class tally)."""
    width = s * (p - 1) ** 2 + 1
    return width if e * width <= _CHUNK else p


def _tally(counts: np.ndarray, keys: np.ndarray, key: np.ndarray | None, p: int | None, classes: np.ndarray) -> None:
    """Add the bucket keys of one slice of W . R^T to counts; keys holds that slice in int64.

    With p (the class tally), each product is reduced mod p, each element's d residues
    looked up in classes, and key, the coset keys of the elements, added; with None (the
    raw tally), R^T carries its keys in its last row and each product is its key.
    """
    if p is not None:
        keys %= p  # int64 % is about 5x faster than float64 %
        # d consecutive columns per element
        keys = classes[tuple(np.moveaxis(keys.reshape(len(keys), -1, classes.ndim), -1, 0))]
        keys += key[:, : keys.shape[1]]  # a tail block has fewer columns
    keys = keys.ravel()
    # measured (BENCH_rank_s_sweep.json, "tally"): up to 2^15 buckets bincount is as fast as
    # add.at on one thread and about 15% faster on the 2-thread brute sweeps; above that its
    # dense per-slice histogram makes it slower (1.4x at 1.6e5 buckets on F_{10007^2}).
    # The raw keys have at most 2^15 buckets (_bucket_width), so they always take bincount; the
    # classes of trace_spectrum's sweeps are e*(r+1) <= e*(e+1) buckets
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
    classes: np.ndarray,
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
    trow: np.ndarray,
    e: int,
    length: int,
    threads: int | None = None,
    *,
    classes: np.ndarray,
) -> np.ndarray:
    """counts[k][c] over j in [0, length): bucket (j mod e, c), c = classes[trow . coords(gamma^j) (mod p)].

    The sweep walks the powers of gamma = ctx.gamma; to walk another element's
    powers, build a FieldCtx whose gamma it is. trow is one row or d rows, and
    classes an array of shape (p,) * d that holds each residue vector's bucket
    column, so counts has classes.max() + 1 columns.
    """
    p, s = ctx.p, ctx.s
    mult = ctx.mul_matrix(ctx.gamma)
    trow = np.atleast_2d(np.asarray(trow, dtype=np.int64)) % p
    d = len(trow)
    rows = min(length, max(1, min(_ROWS // d, length // (8 * s)) // e) * e)  # R has rows * d rows
    full, tail = divmod(length, rows)
    columns = int(classes.max()) + 1
    dots = _bucket_width(e, s, p)
    raw = d == 1 and dots != p  # the raw tally keys (j mod e)*dots + dot and maps it to classes below
    width = dots if raw else columns  # buckets per coset while sweeping
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
    counts = sum(parts)
    if not raw:
        return counts.reshape(e, columns)
    # dot value x of coset k moves to column classes[x mod p], once per sweep; the float64
    # sums of the weighted bincount are exact, each at most length < 2^53
    moved = np.arange(e)[:, None] * columns + classes[np.arange(dots) % p]
    return np.bincount(moved.ravel(), weights=counts, minlength=e * columns).astype(np.int64).reshape(e, columns)


def _fold(part: np.ndarray, traces: np.ndarray, span: int, p: int) -> np.ndarray:
    """The e x p counts over j < q-1 from part, the sweep's counts over j' < span = (q-1)/(Q-1).

    Column 0 of part is N0, the j' with Tr_{F_q/K}(gamma^j') = 0, and column 1 + rho is
    N[a][rho], those with Tr_{F_q/K}(gamma^j') = delta^u, u = rho (mod r), delta = gamma^span;
    traces[u] = Tr_{K/F_p}(delta^u) for u < Q-1. The formulas are in the module docstring.
    """
    e = part.shape[0]
    r = e // math.gcd(span, e)  # period of b -> b*span mod e; r | Q-1 since e | (Q-1)*span
    shift = np.arange(r, dtype=np.int64) * (span % e) % e  # b*span mod e
    k = np.arange(e, dtype=np.int64)[:, None]
    total = part[(k + shift) % e, 1 + np.arange(r)].sum(axis=1)  # T[c]
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


def _companion(seq: list[int], p: int) -> np.ndarray | None:
    """The companion matrix C of the order-d recurrence of seq, its first 2d terms in [0, p); None if there is none.

    Solves the Hankel system sum_{c<d} a_c seq[u+c] = seq[u+d], u < d, by Gauss-Jordan
    elimination mod p, and returns C with (x_0 .. x_{d-1}) . C = (x_1 .. x_{d-1}, sum a_c x_c);
    None when the system is singular.
    """
    d = len(seq) // 2
    rows = [seq[u : u + d + 1] for u in range(d)]  # [H | rhs]: d short rows, faster in Python ints
    for c in range(d):
        pivot = next((i for i in range(c, d) if rows[i][c]), None)
        if pivot is None:
            return None
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inverse = pow(rows[c][c], -1, p)
        rows[c] = [x * inverse % p for x in rows[c]]
        for i in range(d):
            if i != c and rows[i][c]:
                rows[i] = [(x - rows[i][c] * y) % p for x, y in zip(rows[i], rows[c])]
    companion = np.eye(d, k=-1, dtype=np.int64)  # C[i+1][i] = 1: the window moves one term on
    companion[:, -1] = [row[d] for row in rows]
    return companion


def _line_degree(p: int, s: int, e: int) -> int:
    """d of the subfield K = F_{p^d} whose lines trace_spectrum walks: the proper divisor of s of least estimated cost.

    The estimate adds K's walk of Q - 1 windows of d entries, the sweep of
    L_d = (q-1)/(Q-1) elements at d residues each, priced alike for every d (it does
    not model bucket_sweep's choice of tally or of product dtype), the fold's
    e x min(r*p, Q-1) products and its e x r class tables, r = e/gcd(L_d, e).
    s = 1 has no proper divisor and takes d = 1.
    """

    def cost(d: int) -> float:
        lines = p**d - 1
        span = (p**s - 1) // lines
        r = e // math.gcd(span, e)
        fold = _COST_FOLD * e * min(r * p, lines) + _COST_TABLE * e * r
        return _COST_WALK * lines * d + _COST_RESIDUE * d * span + fold

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
    mult = ctx.mul_matrix(delta)
    # the sweep's rows read the window of Tr_{F_q/K}(x): row c . coords(x) = Tr(delta^c x).
    # seq[u] = kt . M^u, kt = e_0 . sum_{i<d} F^i, so seq[u] . coords(y) = Tr_{K/F_p}(delta^u y)
    # for y in K, and seq[u][0] = T_K[u]
    rows = _orbit(ctx.trace_row() % p, mult, d, p)
    seq = _orbit(_orbit(np.eye(1, s, dtype=np.int64)[0], frob, d, p).sum(axis=0) % p, mult, 2 * d, p)
    # Tripwire, independent of the Frobenius matrix on the left: the rows from Newton's identities
    # must be Tr_{K/F_p}(delta^c Tr_{F_q/K}(x)) as the Frobenius sums give it, entry for entry
    if not np.array_equal(rows, _orbit(seq[:d], frob_d, s // d, p).sum(axis=0) % p):
        raise FieldError(f"trace row disagrees with the Frobenius sums through F_{lines + 1}")
    # Tripwire: delta generates K^* exactly when the Hankel system of T_K is nonsingular (delta has
    # degree d) and the Q - 1 windows of its recurrence are distinct and nonzero
    companion = _companion(seq[:, 0].tolist(), p)
    if companion is None:
        raise FieldError(f"gamma^{span} is not a primitive root of F_{lines + 1}: its degree is below {d}")
    windows = _orbit(seq[:d, 0], companion, lines, p)  # row u: w(delta^u) = T_K[u .. u+d-1]
    log = np.full((p,) * d, -1, dtype=np.int64)  # log_delta of each window; -1 where none
    log[tuple(windows.T)] = np.arange(lines)
    if log.flat[0] >= 0 or np.count_nonzero(log >= 0) < lines:
        raise FieldError(f"gamma^{span} is not a primitive root of F_{lines + 1}")
    r = e // math.gcd(span, e)
    # the sweep's column of each window, in place of its log: 1 + log mod r, and 0 for the zero window
    classes = np.remainder(log, r, out=log)
    classes += 1
    classes.flat[0] = 0
    part = bucket_sweep(ctx, rows, e, span, threads, classes=classes)
    counts = _fold(part, windows[:, 0], span, p)
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
