"""Exact cyclotomic periods and 2-power-degree reduced period polynomials.

Builds F_{p^s} for p = 3 or 5 (mod 8), computes reduced cyclotomic periods
and their polynomial exactly (brute-force enumeration or the subfield lift
oracle), emits closed-form factorizations driven by quadratic partitions of
powers of p, and cross-checks everything against independent character-sum
identities. Import the submodules (periodpoly.fields, periodpoly.charsums,
periodpoly.closed_form, ...) directly.
"""

__version__ = "0.1.0"
