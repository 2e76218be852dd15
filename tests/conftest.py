import itertools
import math
import operator

import numpy as np
import pytest

from periodpoly.cyclotomic import CycElem, IntPoly, expand_mod, root_of_unity_mod
from periodpoly.fields import FieldCtx, FieldError, _mul, _order_defect, _reduction
from periodpoly.intmath import power


def _enumerate_representations(n: int, d: int) -> list[tuple[int, int]]:
    """All (a, b) with a^2 + d*b^2 = n and a, b >= 0, by exhaustive search (an O(sqrt(n)) oracle)."""
    out = []
    for a in range(math.isqrt(n) + 1):
        rem = n - a * a
        if rem % d == 0 and math.isqrt(rem // d) ** 2 == rem // d:
            out.append((a, math.isqrt(rem // d)))
    return out


@pytest.fixture
def enumerate_representations():
    """The exhaustive-search oracle for the partition tests."""
    return _enumerate_representations


def _conjugate(a: CycElem) -> CycElem:
    """Complex conjugation, zeta_n -> zeta_n^{-1}."""
    v = [0] * a.n
    for j, c in enumerate(a.vec):
        v[(-j) % a.n] += c
    return CycElem(a.n, v)


@pytest.fixture
def conjugate():
    """Complex conjugation on Z[zeta_n], for the |G|^2 = q checks."""
    return _conjugate


def _schoolbook_mul(a: CycElem, b: CycElem) -> CycElem:
    """Reference product in Z[zeta_n]: the cyclic convolution mod x^n - 1, as a double loop."""
    n = a.n
    out = [0] * n
    for i, x in enumerate(a.vec):
        if x:
            for j, y in enumerate(b.vec):
                if y:
                    k = i + j
                    out[k - n if k >= n else k] += x * y
    return CycElem(n, out)


@pytest.fixture
def schoolbook_mul():
    """The double-loop product in Z[zeta_n], independent of the Kronecker kernel."""
    return _schoolbook_mul


def _sequential_poly_from_roots(roots: list) -> list:
    """Reference expansion of prod (X - root): one linear factor at a time, schoolbook products."""
    n = math.lcm(*(r.n for r in roots))
    coeffs = [CycElem.integer(n, 1)]
    for root in roots:
        root = root.embed(n)
        nxt = [CycElem.zero(n) for _ in range(len(coeffs) + 1)]
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - _schoolbook_mul(c, root)
        coeffs = nxt
    return coeffs


@pytest.fixture
def sequential_poly_from_roots():
    """The schoolbook expansion of prod (X - root) over Z[zeta_n], for the expansion tests."""
    return _sequential_poly_from_roots


def _all_roots_period_polynomial(periods) -> IntPoly:
    """Reference expansion of prod_k (X - eta*_k): all e images at once, through one ring map
    Z[zeta_p] -> Z/N with N > 2 (1 + M)^e (M bounds every complex image), lifted to (-N/2, N/2).

    The periods must be sigma_g-stable; this reference does not check it."""
    p = periods.eta_star[0].n
    vecs = [tuple(c - v.vec[0] for c in v.vec) for v in periods.eta_star]
    height = max(math.isqrt(p * sum(c * c for c in w) - sum(w) ** 2) + 1 for w in vecs)
    modulus, omega = root_of_unity_mod(p, 2 * (1 + height) ** len(vecs))
    powers = list(itertools.accumulate(range(p - 1), lambda x, _: x * omega % modulus, initial=1))
    coeffs = expand_mod([sum(map(operator.mul, w, powers)) % modulus for w in vecs], modulus)
    return IntPoly(c - modulus if 2 * c > modulus else c for c in coeffs)


@pytest.fixture
def all_roots_period_polynomial():
    """The expansion of every period at once, sized by e, against the orbit-by-orbit one."""
    return _all_roots_period_polynomial


def _schoolbook_poly_mul(f: IntPoly, g: IntPoly) -> IntPoly:
    """Reference product in Z[X]: the double loop over every pair of coefficients."""
    out = [0] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        for j, b in enumerate(g.coeffs):
            out[i + j] += a * b
    return IntPoly(out)


def _power_expansion(factors) -> IntPoly:
    """Reference product of poly^mult over a factor list: each power by intmath.power's
    square-and-multiply, then one product into the running one, all by the double loop."""
    out = IntPoly((1,))
    for poly, mult in factors:
        out = _schoolbook_poly_mul(out, power(poly, mult, _schoolbook_poly_mul, IntPoly((1,))))
    return out


@pytest.fixture
def power_expansion():
    """The square-and-multiply expansion of a factor list, against the one-factor-at-a-time one."""
    return _power_expansion


def _poly_powmod(a, e, modulus, p):
    """Reference a^e mod modulus over F_p, as a fresh length-s list of residues, for e >= 0:
    intmath.power's square-and-multiply over the field kernel, with no Frobenius matrix.
    a has at most s coefficients of any sign; it is padded with zeros and reduced here.
    Test modules import it for the Frobenius columns x^{pj} and Ben-Or's reference rounds."""
    red = _reduction(tuple(modulus), p)
    base = np.zeros(len(red), dtype=red.dtype)
    base[: len(a)] = a
    return power(base % p, e, lambda u, v: _mul(u, v, red, p), red[:, 0]).tolist()


def _floyd_rho(n: int) -> int:
    """Reference Pollard rho: Floyd's cycle search on x -> x^2 + c from 2, one gcd per step,
    over the same sweep c = 1, 2, ... as intmath._pollard_rho; one nontrivial factor of odd
    composite n."""
    for c in range(1, 100):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def _field_trace(ctx: FieldCtx):
    """x -> Tr(x) in F_p for elements of ctx, through the trace row taken once."""
    row = [int(t) for t in ctx.trace_row()]
    return lambda x: sum(c * t for c, t in zip(x.coords, row)) % ctx.p


@pytest.fixture
def field_trace():
    """The absolute trace of a field as a function, for tests that take many traces."""
    return _field_trace


def _prime_field_value(x) -> int:
    """The value of x in F_p; raises FieldError if x is not in the prime field."""
    if not x.in_prime_field():
        raise FieldError(f"{x.coords} is not in the prime field")
    return x.coords[0]


def _frobenius_trace(ctx: FieldCtx, k: int | None = None):
    """x -> x + x^p + ... + x^{p^{k-1}} in F_p, the defining Frobenius sum, for x in the
    degree-k subfield of ctx (default k = s, the absolute trace)."""
    k = ctx.s if k is None else k

    def trace(x):
        acc = img = x
        for _ in range(k - 1):
            img = img**ctx.p
            acc = acc + img
        return _prime_field_value(acc)

    return trace


@pytest.fixture
def frobenius_trace():
    """The trace by its definition, independent of the trace row, as a reference."""
    return _frobenius_trace


def _with_generator(ctx: FieldCtx, g) -> FieldCtx:
    """The same field with the validated generator g."""
    if not g.ctx.same_field(ctx):
        raise FieldError("generator belongs to a different field")
    ell = _order_defect(g)  # raises FieldError on zero
    if ell is not None:
        raise FieldError(f"element has order dividing (q-1)/{ell}")
    return FieldCtx(ctx.p, ctx.modulus, g.coords, ctx.q_minus_1_factorization)


@pytest.fixture
def with_generator():
    """Rebuild a field around another generator, for the generator-independence checks."""
    return _with_generator
