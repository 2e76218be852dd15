"""Closed-form factorizations of the reduced period polynomial of degree 2^m.

Emits exact integer-coefficient factor lists for the two residue classes
p = 3 (mod 8) and p = 5 (mod 8), driven by the quadratic partition records of
`partitions`. Case routing:

  p = 3 (mod 8), m >= 4:   T1a (2^{m-1} | s), T1b (2^{m-2} || s, m >= 5),
                           T1c (4 || s, m = 4)
  p = 5 (mod 8), m >= 4:   T2a (2^m | s), T2b (2^{m-1} || s), T2c (2^{m-2} || s)
  m in {2, 3}:             SMALL_M2 / SMALL_M3 closed forms (p = 5 for m = 2;
                           both classes for m = 3); the tag is never one of
                           the m >= 4 cases, but for p = 5 (mod 8) with 4 | s
                           the degree-4 and degree-8 lists come from the
                           T2a/T2b builder.
  PROP20:                  the semiprimitive shortcut for e | p^l + 1, emitted
                           only on explicit request.

Every coefficient is assembled from exact integer powers q^{num/den} (the
exponent must come out integral, enforced by q_power); there is no rounding
anywhere. B- and D-values enter only in +/- paired factors or squared, so the
emitted factorization is independent of the generator that fixed their signs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cyclotomic import IntPoly, expand_factor_list, linear
from .fields import FieldCtx, is_irreducible
from .intmath import is_prime, ord2
from .partitions import PartitionRecord, partition_a, partition_c, partition_records


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
    factors: tuple[tuple[IntPoly, int], ...]
    partitions: tuple[PartitionRecord, ...] = ()
    irreducible: bool = False  # set when the polynomial is known irreducible (no factor list)

    def expand(self) -> IntPoly:
        if self.irreducible:
            raise UnsupportedCase("no closed-form factor list for this case")
        return expand_factor_list(self.factors)

    def matches(self, poly: IntPoly) -> bool:
        """Is the oracle polynomial poly the one this factorization describes?

        For an irreducible case: poly is monic of degree 2^m and has an
        irreducibility witness, which proves the claim over Q.
        """
        if not self.irreducible:
            return self.expand() == poly
        return poly.is_monic() and poly.degree == 1 << self.case.m and irreducibility_witness(poly) is not None

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


_WITNESS_BOUND = 100


def irreducibility_witness(poly: IntPoly) -> int | None:
    """Smallest prime l < _WITNESS_BOUND modulo which the monic poly is irreducible.

    A monic integer polynomial that is irreducible mod l is irreducible over Q.
    None means no witness below the bound, not that poly is reducible.
    """
    for ell in range(2, _WITNESS_BOUND):
        if is_prime(ell) and is_irreducible(tuple(c % ell for c in poly.coeffs), ell):
            return ell
    return None


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


def _canonical_factors(
    factors: list[tuple[IntPoly, int]],
) -> tuple[tuple[IntPoly, int], ...]:
    """Merge coincident factors and order by (degree, coefficient list)."""
    merged: dict[tuple[int, ...], int] = {}
    for poly, mult in factors:
        if mult <= 0:
            continue
        merged[poly.coeffs] = merged.get(poly.coeffs, 0) + mult
    ordered = sorted(merged.items(), key=lambda kv: (len(kv[0]), kv[0]))
    return tuple((IntPoly(coeffs), mult) for coeffs, mult in ordered)


# ---------------------------------------------------------------------------
# p = 3 (mod 8)
# ---------------------------------------------------------------------------


def factorization_3mod8(
    ctx: FieldCtx, m: int, records: dict[int, PartitionRecord] | None = None
) -> Factorization:
    """Factor list for degree 2^m, p = 3 (mod 8), m >= 4."""
    p, s = ctx.p, ctx.s
    tag = classify(p, s, m)
    if tag.case not in ("T1a", "T1b", "T1c"):
        raise UnsupportedCase(f"m={m} routes to {tag.case}, outside the 3-mod-8 large-m cases")
    if records is None:
        records = partition_records(ctx, list(range(3, m + 1)))
    A = {r: records[r].first for r in records}
    B = {r: records[r].second for r in records}

    def qp(num: int, den: int) -> int:
        return q_power(p, s, num, den)

    q2 = qp(1, 2)

    def a_term(r: int) -> int:
        # 2^{r-1} A_r q^{(2^{r-2}-1)/2^{r-1}}
        return (1 << (r - 1)) * A[r] * qp((1 << (r - 2)) - 1, 1 << (r - 1))

    def a_sum(upper: int) -> int:
        return sum(a_term(r) for r in range(3, upper + 1))

    factors: list[tuple[IntPoly, int]] = []
    if tag.case == "T1c":
        q4 = qp(1, 4)
        q34 = qp(3, 4)
        factors += [
            (linear(3 * q2 + 4 * A[3] * q4), 2),
            (linear(-q2 + 4 * abs(B[3]) * q4), 4),
            (linear(-q2 - 4 * abs(B[3]) * q4), 4),
            (_shifted_sq(3 * q2 - 4 * A[3] * q4, 64 * A[4] ** 2 * q34), 1),
            (_shifted_sq(-q2, 64 * B[4] ** 2 * q34), 2),
        ]
    else:
        q4 = qp(1, 4)
        q38 = qp(3, 8)
        factors += [
            (linear(-q2 + 4 * abs(B[3]) * q4), 1 << (m - 2)),
            (linear(-q2 - 4 * abs(B[3]) * q4), 1 << (m - 2)),
            (linear(-q2 + 8 * abs(B[4]) * q38), 1 << (m - 3)),
            (linear(-q2 - 8 * abs(B[4]) * q38), 1 << (m - 3)),
            (linear(3 * q2 - a_sum(m - 2) + (1 << (m - 2)) * A[m - 1] * qp((1 << (m - 3)) - 1, 1 << (m - 2))), 2),
        ]
        if tag.case == "T1a":
            factors += [
                (linear(3 * q2 - a_sum(m - 1) + (1 << (m - 1)) * A[m] * qp((1 << (m - 2)) - 1, 1 << (m - 1))), 1),
                (linear(3 * q2 - a_sum(m)), 1),
            ]
            t_hi = m - 3
        else:  # T1b
            qm2 = qp((1 << (m - 2)) - 1, 1 << (m - 2))
            factors += [
                (_shifted_sq(3 * q2 - a_sum(m - 1), (1 << (2 * (m - 1))) * A[m] ** 2 * qm2), 1),
                (
                    _shifted_sq(
                        3 * q2 - a_sum(m - 3) + (1 << (m - 3)) * A[m - 2] * qp((1 << (m - 4)) - 1, 1 << (m - 3)),
                        (1 << (2 * (m - 1))) * B[m] ** 2 * qm2,
                    ),
                    2,
                ),
            ]
            t_hi = m - 4
        for t in range(2, t_hi + 1):
            stem = 3 * q2 - a_sum(t) + (1 << t) * A[t + 1] * qp((1 << (t - 1)) - 1, 1 << t)
            wing = (1 << (t + 2)) * abs(B[t + 3]) * qp((1 << (t + 1)) - 1, 1 << (t + 2))
            factors += [
                (linear(stem + wing), 1 << (m - t - 2)),
                (linear(stem - wing), 1 << (m - t - 2)),
            ]

    out = Factorization(
        case=tag,
        q=ctx.q,
        factors=_canonical_factors(factors),
        partitions=tuple(records[r] for r in sorted(records)),
    )
    return _checked(out, 1 << m)


# ---------------------------------------------------------------------------
# p = 5 (mod 8)
# ---------------------------------------------------------------------------


def factorization_5mod8(
    ctx: FieldCtx, m: int, records: dict[int, PartitionRecord] | None = None
) -> Factorization:
    """Factor list for degree 2^m, p = 5 (mod 8), m >= 4, and m in {2, 3} with 4 | s.

    The degree-4 statement for 4 | s and the degree-8 statements for 8 | s and
    4 || s have the T2a and T2b shapes, so the branches route on ord_2(s);
    m = 2 and m = 3 keep their SMALL_M2 and SMALL_M3 tags.
    """
    p, s = ctx.p, ctx.s
    tag = classify(p, s, m)
    if tag.p_class != 5 or tag.s2 < 2:
        raise UnsupportedCase(f"m={m} routes to {tag.case}, outside the 5-mod-8 factor lists")
    r_top = m if tag.s2 >= m - 1 else m - 1  # C_m, D_m exist only when 2^{m-1} | s
    if records is None:
        records = partition_records(ctx, list(range(2, r_top + 1)))
    C = {r: records[r].first for r in records}
    D = {r: records[r].second for r in records}

    def qp(num: int, den: int) -> int:
        return q_power(p, s, num, den)

    q2 = qp(1, 2)
    q4 = qp(1, 4)

    def c_term(r: int) -> int:
        # 2^{r-1} C_r q^{(2^{r-1}-1)/2^r}
        return (1 << (r - 1)) * C[r] * qp((1 << (r - 1)) - 1, 1 << r)

    def c_sum(upper: int) -> int:
        return sum(c_term(r) for r in range(2, upper + 1))

    factors: list[tuple[IntPoly, int]] = [
        (linear(-q2 + 2 * abs(D[2]) * q4), 1 << (m - 2)),
        (linear(-q2 - 2 * abs(D[2]) * q4), 1 << (m - 2)),
    ]
    if tag.s2 >= m:  # T2a
        factors += [
            (linear(q2 + c_sum(m - 1) - (1 << (m - 1)) * C[m] * qp((1 << (m - 1)) - 1, 1 << m)), 1),
            (linear(q2 + c_sum(m)), 1),
        ]
        t_hi = m - 2
    elif tag.s2 == m - 1:  # T2b
        qm1 = qp((1 << (m - 1)) - 1, 1 << (m - 1))
        factors += [
            (_shifted_sq(q2 + c_sum(m - 1), -(1 << (2 * (m - 1))) * C[m] ** 2 * qm1), 1),
            (
                _shifted_sq(
                    q2 + c_sum(m - 2) - (1 << (m - 2)) * C[m - 1] * qp((1 << (m - 2)) - 1, 1 << (m - 1)),
                    -(1 << (2 * (m - 1))) * D[m] ** 2 * qm1,
                ),
                1,
            ),
        ]
        t_hi = m - 3
    else:  # T2c
        qm2 = qp((1 << (m - 2)) - 1, 1 << (m - 2))
        factors.append(
            (
                _shifted_sq(
                    q2 + c_sum(m - 3) - (1 << (m - 3)) * C[m - 2] * qp((1 << (m - 3)) - 1, 1 << (m - 2)),
                    -(1 << (2 * (m - 2))) * D[m - 1] ** 2 * qm2,
                ),
                2,
            )
        )
        inner = _shifted_sq(q2 + c_sum(m - 2), (1 << (2 * (m - 2))) * C[m - 1] ** 2 * qm2 + (1 << (2 * m - 3)) * ctx.q)
        wing = linear(((1 << (m - 2)) + 1) * q2 + c_sum(m - 2))
        quartic = inner * inner - (1 << (2 * (m - 1))) * C[m - 1] ** 2 * qm2 * (wing * wing)
        factors.append((quartic, 1))
        t_hi = m - 4

    for t in range(1, t_hi + 1):
        stem = q2 + c_sum(t) - (1 << t) * C[t + 1] * qp((1 << t) - 1, 1 << (t + 1))
        wing = (1 << (t + 1)) * abs(D[t + 2]) * qp((1 << (t + 1)) - 1, 1 << (t + 2))
        factors += [
            (linear(stem + wing), 1 << (m - t - 2)),
            (linear(stem - wing), 1 << (m - t - 2)),
        ]

    out = Factorization(
        case=tag,
        q=ctx.q,
        factors=_canonical_factors(factors),
        partitions=tuple(records[r] for r in sorted(records)),
    )
    return _checked(out, 1 << m)


def _shifted_sq(c: int, k: int) -> IntPoly:
    """(X + c)^2 + k."""
    return IntPoly((c * c + k, 2 * c, 1))


# ---------------------------------------------------------------------------
# m = 2 and m = 3
# ---------------------------------------------------------------------------


def small_order_factorization(ctx: FieldCtx, m: int) -> Factorization:
    """Degree-4 and degree-8 closed forms (m = 2 only for p = 5 mod 8)."""
    p, s = ctx.p, ctx.s
    tag = classify(p, s, m)
    if tag.case not in ("SMALL_M2", "SMALL_M3"):
        raise UnsupportedCase(f"m={m} is not a small-order case")
    s2 = tag.s2

    def qp(num: int, den: int) -> int:
        return q_power(p, s, num, den)

    if p % 8 == 3:
        if m == 2:
            raise UnsupportedCase("no closed form for degree 4 with p = 3 (mod 8)")
        # m = 3
        rec = partition_a(ctx, 3)
        a3, b3 = rec.first, abs(rec.second)
        q2 = qp(1, 2)
        if s2 >= 2:
            q4 = qp(1, 4)
            factors = [
                (linear(-q2), 2),
                (linear(-q2 + 4 * b3 * q4), 2),
                (linear(-q2 - 4 * b3 * q4), 2),
                (linear(3 * q2 + 4 * a3 * q4), 1),
                (linear(3 * q2 - 4 * a3 * q4), 1),
            ]
        else:  # 2 || s
            factors = [
                (linear(-3 * q2), 2),
                (_shifted_sq(q2, 16 * a3 * a3 * q2), 1),
                (_shifted_sq(q2, 16 * b3 * b3 * q2), 2),
            ]
    elif s2 >= 2:  # p = 5 (mod 8), 4 | s: the T2a / T2b shapes
        return factorization_5mod8(ctx, m)
    elif m == 2:  # p = 5 (mod 8), s odd or 2 || s
        if s2 == 0:
            return Factorization(tag, ctx.q, (), (), irreducible=True)
        rec = partition_c(ctx, 2)
        c2, d2 = rec.first, abs(rec.second)
        q2 = qp(1, 2)
        factors = [
            (_shifted_sq(q2, -4 * c2 * c2 * q2), 1),
            (_shifted_sq(-q2, -4 * d2 * d2 * q2), 1),
        ]
    else:  # m = 3, p = 5 (mod 8), 2 || s
        rec = partition_c(ctx, 2)
        c2, d2 = rec.first, abs(rec.second)
        q2 = qp(1, 2)
        inner = _shifted_sq(q2, 4 * c2 * c2 * q2 + 8 * ctx.q)
        wing = linear(3 * q2)
        quartic = inner * inner - 16 * c2 * c2 * q2 * (wing * wing)
        factors = [(_shifted_sq(-q2, -4 * d2 * d2 * q2), 2), (quartic, 1)]
    return _checked(Factorization(tag, ctx.q, _canonical_factors(factors), (rec,)), 1 << m)


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
    factors = _canonical_factors(
        [(linear(sign * (e - 1) * q2), 1), (linear(-sign * q2), e - 1)]
    )
    return _checked(Factorization(tag, p**s, factors), e)


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def closed_form_factorization(ctx: FieldCtx, m: int) -> Factorization:
    """The factorization of the reduced period polynomial of degree 2^m for ctx."""
    tag = classify(ctx.p, ctx.s, m)
    if tag.case.startswith("T1"):
        return factorization_3mod8(ctx, m)
    if tag.case.startswith("T2"):
        return factorization_5mod8(ctx, m)
    return small_order_factorization(ctx, m)
