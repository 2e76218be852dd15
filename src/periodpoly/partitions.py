"""Quadratic partitions p^k = A^2 + 2B^2 and p^k = C^2 + D^2, normalized.

Both families run through one path, parametrised by a table keyed by p mod 8:
the A type (p = 3 mod 8) has d = 2, first r = 3 and first coordinate = 3
(mod 4); the C type (p = 5 mod 8) has d = 1, first r = 2 and first
coordinate = 1 (mod 4). The record for r has k = s/2^{r - r_min + 1}.

The base prime representation comes from Cornacchia's algorithm seeded with
the closed-form square root of -d mod p that each family has; powers are
taken exactly in Z[sqrt(-d)], which keeps the first coordinate coprime to p.
The first coordinate is signed by its residue mod 4, the second by the
congruence second * w = first (mod p), where w is a square root of -d taken
from the field generator gamma: w = -(gamma^{(q-1)/8} + gamma^{3(q-1)/8}) for
the A type, w = gamma^{(q-1)/4} for the C type. w is evaluated in F_q and
checked to land in the prime field (a deliberate runtime tripwire on the field
arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import FieldCtx, FieldError
from .intmath import power


@dataclass(frozen=True)
class PartitionRecord:
    r: int
    exponent: int  # k with first^2 + d*second^2 = p^k
    first: int  # A_r or C_r, sign canonical mod 4
    second: int  # B_r or D_r, sign fixed by the gamma congruence
    p: int  # p mod 8 fixes the kind, A or C, and d
    gamma_fingerprint: str

    @property
    def kind(self) -> str:
        return _family(self.p)[0]

    @property
    def d(self) -> int:
        return _family(self.p)[1]

    @property
    def pk(self) -> int:
        return self.p**self.exponent

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "first": str(self.first),
            "second": str(self.second),
            "pk": str(self.pk),
            "gamma": self.gamma_fingerprint,
        }


def cornacchia(p: int) -> tuple[int, int]:
    """Positive (a, b) with a^2 + d*b^2 = p, for the two families: d = 2 for
    p = 3 (mod 8), d = 1 for p = 5 (mod 8); any other p raises ValueError.

    There the square root of -d mod p has a closed form (Cohen, A Course in
    Computational Algebraic Number Theory, 1.5): (-2)^{(p+1)/4} since
    p = 3 (mod 4), and 2^{(p-1)/4} since 2 is a non-residue mod p.
    """
    d = _family(p)[1]
    t = pow(p - 2, (p + 1) // 4, p) if d == 2 else pow(2, (p - 1) // 4, p)
    if 2 * t < p:
        t = p - t  # standard Cornacchia wants the root in (p/2, p)
    r0, r1 = p, t
    bound = math.isqrt(p)
    while r1 > bound:
        r0, r1 = r1, r0 % r1
    b2, rem = divmod(p - r1 * r1, d)
    if rem:
        raise ArithmeticError(f"no representation of {p} with d={d}")  # can't happen
    b = math.isqrt(b2)
    if b * b != b2:
        raise ArithmeticError(f"no representation of {p} with d={d}")  # can't happen
    a = r1
    if d == 1 and a % 2 == 0:
        a, b = b, a  # keep the odd coordinate first
    return a, b


def power_representation(p: int, k: int) -> tuple[int, int]:
    """(a_k, b_k) with a_k^2 + d*b_k^2 = p^k and p not dividing a_k, d = 2 or 1 as in cornacchia.

    Computed as (a + b*sqrt(-d))^k in exact integers; signs are not yet
    normalized (a_k is returned with whatever sign the power produces).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    d = _family(p)[1]

    def mul(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
        return u[0] * v[0] - d * u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    ak, bk = power(cornacchia(p), k, mul, (1, 0))
    if ak * ak + d * bk * bk != p**k or ak % p == 0:
        raise ArithmeticError(f"({ak}, {bk}) is not a representation of {p}^{k} with p not dividing a")
    return ak, bk


# p mod 8 -> kind, d, smallest r, and the residue of the first coordinate mod 4
_FAMILIES = {3: ("A", 2, 3, 3), 5: ("C", 1, 2, 1)}


def _family(p: int) -> tuple[str, int, int, int]:
    family = _FAMILIES.get(p % 8)
    if family is None:
        raise ValueError(f"p mod 8 = {p % 8}, need 3 (A type) or 5 (C type)")
    return family


def _exponent(ctx: FieldCtx, r: int) -> int:
    """k = s/2^{r - r_min + 1} with p^k = first^2 + d*second^2, after checking that the record exists."""
    r_min = _family(ctx.p)[2]
    if r < r_min:
        raise ValueError(f"r must be >= {r_min}")
    shift = r - r_min + 1
    if ctx.s % (1 << shift):
        raise ValueError(f"2^{shift} does not divide s={ctx.s}")
    return ctx.s >> shift


def _signing_root(ctx: FieldCtx) -> int:
    """w in F_p with w^2 = -d: -(zeta8 + zeta8^3) for the A type, zeta4 for the C type.

    zeta_n = gamma^{(q-1)/n}; since (zeta8 + zeta8^3)^2 = -2, the A-type
    congruence 2B = A(zeta8 + zeta8^3) is B*w = A, the same form as D*w = C.
    """
    kind = _family(ctx.p)[0]
    zeta = ctx.gamma ** ((ctx.q - 1) // (8 if kind == "A" else 4))
    w = -(zeta + zeta * zeta * zeta) if kind == "A" else zeta
    if not w.in_prime_field():
        raise FieldError(f"the {kind}-type signing root {w.coords} is not in F_p")
    return w.coords[0]


def _record(ctx: FieldCtx, r: int, k: int, w: int) -> PartitionRecord:
    first_mod4 = _family(ctx.p)[3]
    p = ctx.p
    first, second = power_representation(p, k)
    if first % 4 != first_mod4:
        first = -first
    second = abs(second)
    if (second * w - first) % p != 0:
        second = -second
    if (second * w - first) % p != 0:
        raise ArithmeticError("no sign of the second coordinate satisfies the congruence")  # can't happen
    return PartitionRecord(r, k, first, second, p, ctx.gamma_fingerprint())


def partition_records(ctx: FieldCtx, rs: list[int]) -> dict[int, PartitionRecord]:
    """The A-type (p = 3 mod 8) or C-type (p = 5 mod 8) records for the given r values.

    The signing root depends only on the field, so it is computed once for all r.
    """
    ks = {r: _exponent(ctx, r) for r in rs}
    if not ks:
        return {}
    w = _signing_root(ctx)
    return {r: _record(ctx, r, k, w) for r, k in ks.items()}


def partition_a(ctx: FieldCtx, r: int) -> PartitionRecord:
    """A-type record: p^{s/2^{r-2}} = A_r^2 + 2B_r^2, A_r = -1 (mod 4), p | A_r never,
    2B_r = A_r(gamma^{(q-1)/8} + gamma^{3(q-1)/8}) (mod p).
    """
    if ctx.p % 8 != 3:
        raise ValueError(f"p mod 8 = {ctx.p % 8}, need 3")
    return partition_records(ctx, [r])[r]


def partition_c(ctx: FieldCtx, r: int) -> PartitionRecord:
    """C-type record: p^{s/2^{r-1}} = C_r^2 + D_r^2, C_r = 1 (mod 4), p | C_r never,
    D_r * gamma^{(q-1)/4} = C_r (mod p).
    """
    if ctx.p % 8 != 5:
        raise ValueError(f"p mod 8 = {ctx.p % 8}, need 5")
    return partition_records(ctx, [r])[r]
