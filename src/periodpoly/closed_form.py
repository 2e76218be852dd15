"""Closed-form factorizations of the reduced period polynomial of degree 2^m.

Emits exact integer-coefficient factor lists for the two residue classes
p = 3 (mod 8) and p = 5 (mod 8), driven by the quadratic partition records of
`partitions`. classify tags the case; closed_form_factorization then routes
on p mod 8 alone, to one builder per residue class:

  factorization_3mod8:  m = 2 has no closed form (UnsupportedCase);
                        SMALL_M3 (m = 3: 4 | s, 2 || s);
                        T1a (2^{m-1} | s), T1b (2^{m-2} || s, m >= 4; tagged
                        T1c at m = 4)
  factorization_5mod8:  SMALL_M2 (m = 2: odd s is irreducible, 2 || s, 4 | s),
                        SMALL_M3 (m = 3: 2 || s, 4 | s);
                        T2a (2^m | s), T2b (2^{m-1} || s), T2c (2^{m-2} || s)
  PROP20:               semiprimitive_factorization, the shortcut for
                        e | p^l + 1, emitted only on explicit request.

Each builder is one ladder of pairs stem(t) +/- 2^{r-1} x_r sqrt(q/p^k), with
x_r = B_r or D_r (A_r or C_r in the closing pair) and p^k the norm of record
r: two linear factors when sqrt(q/p^k) is an integer, one quadratic when not.
SMALL_M3 at 4 | s and T1c are the m = 3, 4 instances of T1a and T1b; the
p = 5 SMALL_M2 and SMALL_M3 lists are the m = 2, 3 instances of T2a, T2b, T2c.

Every coefficient is assembled from exact integer powers of p (a half-integral
exponent raises, in q_power); there is no rounding anywhere. B- and D-values
enter only in +/- paired factors or squared, so the emitted factorization is
independent of the generator that fixed their signs.

A factor list is the factorization into distinct monic irreducibles over Q, in
the order of cyclotomic.canonical_factors, and an empty list claims that the
polynomial is irreducible. `verify` holds either claim to the oracle's own
factors, the Galois orbits of its periods (periods.PeriodVector.factors), so
a factor that splits over Q fails it even where the product is right.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import IntPoly, canonical_factors, expand_factor_list, linear
from .fields import FieldCtx
from .intmath import is_prime, ord2
from .partitions import PartitionRecord, partition_records


class UnsupportedCase(ValueError):
    """Parameters outside every case the closed forms cover."""


@dataclass(frozen=True)
class CaseTag:
    p_class: int  # p mod 8
    case: str  # T1a, T1b, T1c, T2a, T2b, T2c, SMALL_M2, SMALL_M3, PROP20
    m: int
    s2: int  # ord_2(s)


@dataclass(frozen=True)
class Factorization:
    case: CaseTag
    q: int
    factors: tuple[tuple[IntPoly, int], ...]  # empty when the polynomial is irreducible over Q
    partitions: tuple[PartitionRecord, ...] = ()

    @property
    def irreducible(self) -> bool:
        return not self.factors

    def expand(self) -> IntPoly:
        if self.irreducible:
            raise UnsupportedCase("no closed-form factor list for this case")
        return expand_factor_list(self.factors)

    def degree(self) -> int:
        return sum(poly.degree * mult for poly, mult in self.factors)

    def to_json_dict(self) -> dict:
        return {
            "case": self.case.case,
            "q": str(self.q),
            "factors": [
                {"coeffs": poly.to_json_list(), "mult": mult} for poly, mult in self.factors
            ],
            "partitions": [rec.to_json_dict() for rec in self.partitions],
        }


def classify(p: int, s: int, m: int) -> CaseTag:
    """Route (p, s, m) to its closed-form case; raises UnsupportedCase otherwise."""
    pc = p % 8
    if pc not in (3, 5):
        raise UnsupportedCase(f"p mod 8 = {pc} unsupported (need 3 or 5)")
    if m < 2:
        raise UnsupportedCase("m must be >= 2")
    if s < 1:
        raise UnsupportedCase("s must be >= 1")
    s2 = ord2(s)
    if m > 2 and s2 < m - 2:
        raise UnsupportedCase(f"2^(m-2) does not divide s: ord_2({s}) = {s2} < {m - 2}")
    if m == 2:
        case = "SMALL_M2"
    elif m == 3:
        case = "SMALL_M3"
    elif pc == 3:
        if s2 >= m - 1:
            case = "T1a"
        elif m == 4:
            case = "T1c"
        else:
            case = "T1b"
    else:
        if s2 >= m:
            case = "T2a"
        elif s2 == m - 1:
            case = "T2b"
        else:
            case = "T2c"
    return CaseTag(p_class=pc, case=case, m=m, s2=s2)


def q_power(p: int, s: int, num: int, den: int) -> int:
    """Exact integer p^(s*num/den); the exponent must be integral."""
    total = s * num
    if total % den:
        raise UnsupportedCase(f"q^({num}/{den}) is not an integer for q = {p}^{s}")
    return p ** (total // den)


def _checked(out: Factorization, degree: int) -> Factorization:
    """The emitted factor list must multiply out to the stated degree."""
    if out.degree() != degree:
        raise ArithmeticError(f"{out.case.case} factor list has degree {out.degree()}, expected {degree}")
    return out


# ---------------------------------------------------------------------------
# the ladder: level t is the pair stem(t) +/- 2^{r-1} x_r sqrt(q/p^k)
# ---------------------------------------------------------------------------


def _term(ctx: FieldCtx, rec: PartitionRecord, x: int) -> int:
    """2^{r-1} x p^{(s-k)/2} = 2^{r-1} x sqrt(q/p^k) for the record's r and k; s - k must be even."""
    return (1 << (rec.r - 1)) * x * q_power(ctx.p, ctx.s - rec.exponent, 1, 2)


def _term_sq(ctx: FieldCtx, rec: PartitionRecord, x: int) -> int:
    """The square of _term, 4^{r-1} x^2 p^{s-k}: an integer for either parity of s - k."""
    return (1 << (2 * (rec.r - 1))) * x * x * ctx.p ** (ctx.s - rec.exponent)


def _pair(ctx: FieldCtx, c: int, rec: PartitionRecord, x: int, mult: int, sign: int) -> list[tuple[IntPoly, int]]:
    """(X + c + t)(X + c - t) for t = _term(ctx, rec, x), each factor to the power mult.

    If s - k is even, t is an integer and the pair is two linear factors. If it
    is odd, t^2 is an integer but t is not, and the pair is one quadratic
    (X + c)^2 + sign * t^2: t^2 enters with sign +1 for p = 3 (mod 8), whose
    t^2 carries a sqrt(-2)^2, and with sign -1 for p = 5 (mod 8).
    """
    if (ctx.s - rec.exponent) % 2:
        return [(_shifted_sq(c, sign * _term_sq(ctx, rec, x)), mult)]
    t = _term(ctx, rec, x)
    return [(linear(c + t), mult), (linear(c - t), mult)]


def _shifted_sq(c: int, k: int) -> IntPoly:
    """(X + c)^2 + k."""
    return IntPoly((c * c + k, 2 * c, 1))


def _factorization(ctx: FieldCtx, tag: CaseTag, records: dict[int, PartitionRecord], factors) -> Factorization:
    out = Factorization(
        case=tag,
        q=ctx.q,
        factors=canonical_factors(factors),
        partitions=tuple(records[r] for r in sorted(records)),
    )
    return _checked(out, 1 << tag.m)


def factorization_3mod8(ctx: FieldCtx, m: int) -> Factorization:
    """Factor list for degree 2^m, p = 3 (mod 8), every m >= 2.

    m = 2 has no closed form. Every other case is one ladder over the A-type
    records: the B_{t+3} pair at stem(t) with multiplicity 2^{m-t-2} for
    t < m - 2, then (X + stem(m-2))^2, then the A_m pair. stem(t) is -sqrt(q)
    for t < 2 and 3 sqrt(q) - sum_{r=3}^{t} a_r + a_{t+1} above, with a_r the
    A_r term. SMALL_M3 at 4 | s and T1c are the m = 3 and m = 4 instances of
    T1a and T1b. SMALL_M3 at 2 || s is the one list apart: q^{1/4} is not an
    integer, so the A_3 and B_3 pairs are quadratics at +sqrt(q).
    """
    tag = classify(ctx.p, ctx.s, m)
    if tag.p_class != 3:
        raise UnsupportedCase(f"p mod 8 = {tag.p_class}, outside the 3-mod-8 factor lists")
    if m == 2:
        raise UnsupportedCase("no closed form for degree 4 with p = 3 (mod 8)")
    records = partition_records(ctx, list(range(3, m + 1)))
    q2 = q_power(ctx.p, ctx.s, 1, 2)
    A = {r: rec.first for r, rec in records.items()}
    B = {r: rec.second for r, rec in records.items()}

    if m == 3 and tag.s2 == 1:
        factors = [(linear(-3 * q2), 2)]
        factors += _pair(ctx, q2, records[3], A[3], 1, 1)
        factors += _pair(ctx, q2, records[3], B[3], 2, 1)
        return _factorization(ctx, tag, records, factors)

    def a_sum(upper: int) -> int:  # 3 sqrt(q) - sum_{r=3}^{upper} a_r
        return 3 * q2 - sum(_term(ctx, records[r], A[r]) for r in range(3, upper + 1))

    def stem(t: int) -> int:
        return -q2 if t < 2 else a_sum(t) + _term(ctx, records[t + 1], A[t + 1])

    factors = [(linear(stem(m - 2)), 2)]
    for t in range(m - 2):
        factors += _pair(ctx, stem(t), records[t + 3], B[t + 3], 1 << (m - t - 2), 1)
    factors += _pair(ctx, a_sum(m - 1), records[m], A[m], 1, 1)
    return _factorization(ctx, tag, records, factors)


def factorization_5mod8(ctx: FieldCtx, m: int) -> Factorization:
    """Factor list for degree 2^m, p = 5 (mod 8), every m >= 2.

    Odd s (m = 2 only) is irreducible: no factor list. Otherwise the list is
    one ladder over the C-type records: the D_{t+2} pair at stem(t) with
    multiplicity 2^{m-t-2}, where stem(0) = -sqrt(q) and stem(t) =
    sqrt(q) + sum_{r=2}^{t} c_r - c_{t+1} above, with c_r the C_r term. T2a
    and T2b (and SMALL_M2, SMALL_M3 at 2^{m-1} | s) run the levels up to
    t = m - 2 and close with the C_m pair; T2c (and SMALL_M3 at 2 || s) runs
    them up to t = m - 3 and closes with the quartic.
    """
    tag = classify(ctx.p, ctx.s, m)
    if tag.p_class != 5:
        raise UnsupportedCase(f"p mod 8 = {tag.p_class}, outside the 5-mod-8 factor lists")
    if tag.s2 == 0:
        return Factorization(tag, ctx.q, ())
    r_top = m if tag.s2 >= m - 1 else m - 1  # C_m, D_m exist only when 2^{m-1} | s
    records = partition_records(ctx, list(range(2, r_top + 1)))
    q2 = q_power(ctx.p, ctx.s, 1, 2)
    C = {r: rec.first for r, rec in records.items()}
    D = {r: rec.second for r, rec in records.items()}

    def c_sum(upper: int) -> int:  # sqrt(q) + sum_{r=2}^{upper} c_r
        return q2 + sum(_term(ctx, records[r], C[r]) for r in range(2, upper + 1))

    def stem(t: int) -> int:
        return -q2 if t == 0 else c_sum(t) - _term(ctx, records[t + 1], C[t + 1])

    factors = []
    for t in range(r_top - 1):  # up to t = m - 2, or t = m - 3 in T2c
        factors += _pair(ctx, stem(t), records[t + 2], D[t + 2], 1 << (m - t - 2), -1)
    if r_top == m:  # T2a, T2b
        factors += _pair(ctx, c_sum(m - 1), records[m], C[m], 1, -1)
    else:  # T2c
        c_sq = _term_sq(ctx, records[m - 1], C[m - 1])
        inner = _shifted_sq(c_sum(m - 2), c_sq + (1 << (2 * m - 3)) * ctx.q)
        wing = linear((1 << (m - 2)) * q2 + c_sum(m - 2))
        factors.append((inner * inner - 4 * c_sq * (wing * wing), 1))
    return _factorization(ctx, tag, records, factors)


# ---------------------------------------------------------------------------
# semiprimitive shortcut
# ---------------------------------------------------------------------------


def semiprimitive_factorization(p: int, s: int, e: int) -> Factorization:
    """The two-factor form for e | p^ell + 1 (ell minimal, 2*ell | s), any odd p.

    P_e* = (X + sign*(e-1)*sqrt(q)) * (X - sign*sqrt(q))^{e-1} with
    sign = (-1)^{s/2ell}. Emitted only on explicit request.
    """
    if e <= 2:
        raise UnsupportedCase("e must be > 2")
    if s < 1:
        raise UnsupportedCase("s must be >= 1")
    if not is_prime(p) or p == 2:
        raise UnsupportedCase(f"{p} is not an odd prime")
    ell = None
    for cand in range(1, s + 1):
        if (pow(p, cand, e) + 1) % e == 0:
            ell = cand
            break
    if ell is None:
        raise UnsupportedCase(f"e={e} does not divide p^l + 1 for any l <= s")
    if s % (2 * ell):
        raise UnsupportedCase(f"2l = {2 * ell} does not divide s = {s}")
    sign = (-1) ** (s // (2 * ell))
    q2 = q_power(p, s, 1, 2)
    tag = CaseTag(p_class=p % 8, case="PROP20", m=0, s2=ord2(s))
    factors = canonical_factors(
        [(linear(sign * (e - 1) * q2), 1), (linear(-sign * q2), e - 1)]
    )
    return _checked(Factorization(tag, p**s, factors), e)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def closed_form_factorization(ctx: FieldCtx, m: int) -> Factorization:
    """The factorization of the reduced period polynomial of degree 2^m for ctx."""
    builder = factorization_3mod8 if classify(ctx.p, ctx.s, m).p_class == 3 else factorization_5mod8
    return builder(ctx, m)
