import math

import pytest

from periodpoly.cyclotomic import CycElem


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
