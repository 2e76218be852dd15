"""Quadratic partitions p^k = A^2 + 2B^2 and p^k = C^2 + D^2, normalized.

The base prime representation comes from Cornacchia's algorithm seeded with a
deterministic square root of -d mod p; powers are taken exactly in Z[sqrt(-d)]
(resp. Z[i]), which keeps the first coordinate coprime to p. Sign
normalization follows the defining congruences: the first coordinate by a
residue condition mod 4, the second through a congruence against a power of
the field generator gamma, evaluated in F_q and checked to land in the prime
field (a deliberate runtime tripwire on the field arithmetic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fields import FieldCtx, FieldError
from .intmath import sqrt_mod_prime


@dataclass(frozen=True)
class PartitionRecord:
    kind: str  # "A" or "C"
    r: int
    exponent: int  # k with first^2 + d*second^2 = p^k
    first: int  # A_r or C_r, sign canonical mod 4
    second: int  # B_r or D_r, sign fixed by the gamma congruence
    p: int
    gamma_fingerprint: str

    @property
    def d(self) -> int:
        return 2 if self.kind == "A" else 1

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


def cornacchia(p: int, d: int) -> tuple[int, int]:
    """Positive (a, b) with a^2 + d*b^2 = p, for d in {1, 2}.

    Requires p = 1 (mod 4) for d = 1 and p = 1 or 3 (mod 8) for d = 2.
    """
    if d not in (1, 2):
        raise ValueError("d must be 1 or 2")
    if d == 1 and p % 4 != 1:
        raise ValueError(f"{p} is not 1 mod 4; no a^2 + b^2 representation")
    if d == 2 and p % 8 not in (1, 3):
        raise ValueError(f"{p} is not 1 or 3 mod 8; no a^2 + 2b^2 representation")
    t = sqrt_mod_prime(-d % p, p)
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


def power_representation(p: int, d: int, k: int) -> tuple[int, int]:
    """(a_k, b_k) with a_k^2 + d*b_k^2 = p^k and p not dividing a_k.

    Computed as (a + b*sqrt(-d))^k in exact integers; signs are not yet
    normalized (a_k is returned with whatever sign the power produces).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    a, b = cornacchia(p, d)
    ak, bk = a, b
    for _ in range(k - 1):
        ak, bk = ak * a - d * bk * b, ak * b + bk * a
    if ak * ak + d * bk * bk != p**k or ak % p == 0:
        raise ArithmeticError(f"({ak}, {bk}) is not a representation of {p}^{k} with p not dividing a")
    return ak, bk


def partition_a(ctx: FieldCtx, r: int) -> PartitionRecord:
    """A-type record: p^{s/2^{r-2}} = A_r^2 + 2B_r^2, A_r = -1 (mod 4), p | A_r never,
    2B_r = A_r(gamma^{(q-1)/8} + gamma^{3(q-1)/8}) (mod p).
    """
    p, s, q = ctx.p, ctx.s, ctx.q
    if p % 8 != 3:
        raise ValueError(f"p mod 8 = {p % 8}, need 3")
    if r < 3:
        raise ValueError("r must be >= 3")
    step = 1 << (r - 2)
    if s % step:
        raise ValueError(f"2^{r - 2} does not divide s={s}")
    if (q - 1) % 8:
        raise ValueError("8 does not divide q-1")
    k = s // step
    a, b = power_representation(p, 2, k)
    if a % 4 != 3:
        a = -a
    # u = zeta8 + zeta8^3 with zeta8 = gamma^{(q-1)/8} is a square root of -2 in F_p
    zeta8 = ctx.gamma ** ((q - 1) // 8)
    u = zeta8 + zeta8 * zeta8 * zeta8
    if not u.in_prime_field():
        raise FieldError(f"gamma^((q-1)/8)+gamma^(3(q-1)/8) = {u.coords} not in F_p")
    u0 = u.coords[0]
    b = abs(b)
    if (2 * b - a * u0) % p != 0:
        b = -b
    if (2 * b - a * u0) % p != 0:
        raise ArithmeticError("no sign of B satisfies the congruence")  # can't happen
    return PartitionRecord("A", r, k, a, b, p, ctx.gamma_fingerprint())


def partition_c(ctx: FieldCtx, r: int) -> PartitionRecord:
    """C-type record: p^{s/2^{r-1}} = C_r^2 + D_r^2, C_r = 1 (mod 4), p | C_r never,
    D_r * gamma^{(q-1)/4} = C_r (mod p).
    """
    p, s, q = ctx.p, ctx.s, ctx.q
    if p % 8 != 5:
        raise ValueError(f"p mod 8 = {p % 8}, need 5")
    if r < 2:
        raise ValueError("r must be >= 2")
    step = 1 << (r - 1)
    if s % step:
        raise ValueError(f"2^{r - 1} does not divide s={s}")
    k = s // step
    c, d = power_representation(p, 1, k)
    if c % 4 != 1:
        c = -c
    # v = gamma^{(q-1)/4} is a square root of -1 in F_p
    v = ctx.gamma ** ((q - 1) // 4)
    if not v.in_prime_field():
        raise FieldError(f"gamma^((q-1)/4) = {v.coords} not in F_p")
    v0 = v.coords[0]
    d = abs(d)
    if (d * v0 - c) % p != 0:
        d = -d
    if (d * v0 - c) % p != 0:
        raise ArithmeticError("no sign of D satisfies the congruence")  # can't happen
    return PartitionRecord("C", r, k, c, d, p, ctx.gamma_fingerprint())


def partition_records(ctx: FieldCtx, rs: list[int]) -> dict[int, PartitionRecord]:
    """All A-type (p = 3 mod 8) or C-type (p = 5 mod 8) records for the given r values."""
    fn = partition_a if ctx.p % 8 == 3 else partition_c
    return {r: fn(ctx, r) for r in rs}
