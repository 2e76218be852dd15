"""Command-line front end: factor, verify, periods, partition, lemmas.

Exit codes: 0 success/verified, 1 usage or classification error,
2 verification mismatch, 3 enumeration budget exceeded (or a field beyond the
sweep's exact int64 range).

`verify` appends one JSON line per run to a cache file (--cache, or the
PERIODPOLY_CACHE environment variable, default ./periodpoly-verify.jsonl);
the digest covers the mathematical content only, so reruns of the same
parameters produce identical digests regardless of timestamp or worker count.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from .charsums import identity_report, lifted_period_polynomial
from .closed_form import Factorization, closed_form_factorization, semiprimitive_factorization
from .fields import FieldCtx, build_field
from .partitions import partition_records
from .periods import (
    DEFAULT_MAX_Q,
    BudgetExceeded,
    period_polynomial,
    reduced_periods,
    trace_spectrum,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _print_factorization(fac: Factorization, fmt: str) -> None:
    if fmt == "json":
        print(_canonical_json(fac.to_json_dict()))
        return
    if fac.irreducible:
        print(f"case {fac.case.case}: irreducible over Q (no closed-form factor list)")
        return
    parts = []
    for poly, mult in fac.factors:
        terms = []
        for i, c in enumerate(poly.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(f"{c}")
            elif i == 1:
                terms.append("X" if c == 1 else f"{c}*X")
            else:
                terms.append(f"X^{i}" if c == 1 else f"{c}*X^{i}")
        body = " + ".join(reversed(terms)).replace("+ -", "- ")
        parts.append(f"({body})" + (f"^{mult}" if mult > 1 else ""))
    print(f"case {fac.case.case}, q = {fac.q}")
    print(" ".join(parts))


def _build(args) -> FieldCtx:
    return build_field(args.p, args.s)


def cmd_factor(args) -> int:
    ctx = _build(args)
    fac = closed_form_factorization(ctx, args.m)
    _print_factorization(fac, args.format)
    return EXIT_OK


def cmd_semiprimitive(args) -> int:
    fac = semiprimitive_factorization(args.p, args.s, args.e)
    _print_factorization(fac, args.format)
    return EXIT_OK


def cmd_periods(args) -> int:
    ctx = _build(args)
    spectrum = trace_spectrum(ctx, args.e, max_q=args.max_q, threads=args.threads)
    periods = reduced_periods(spectrum)
    poly = period_polynomial(periods)
    if args.format == "json":
        out = periods.to_json_dict()
        out["polynomial"] = poly.to_json_list()
        print(_canonical_json(out))
    else:
        print(f"e = {args.e}, q = {ctx.q}")
        for k, v in enumerate(periods.eta_star):
            print(f"eta*_{k} = {list(v.canonical())}")
        print(f"P* coefficients (little-endian): {list(poly.coeffs)}")
    return EXIT_OK


def cmd_partition(args) -> int:
    ctx = _build(args)
    rec = partition_records(ctx, [args.r])[args.r]
    if args.format == "json":
        print(_canonical_json(rec.to_json_dict()))
    else:
        print(
            f"{rec.kind}_{rec.r} = {rec.first}, second = {rec.second}: "
            f"{rec.first}^2 + {rec.d}*{rec.second}^2 = {rec.pk} (gamma {rec.gamma_fingerprint})"
        )
    return EXIT_OK


def cmd_lemmas(args) -> int:
    ctx = _build(args)
    only = None
    if args.only:
        only = {item.strip().removeprefix("lemma") for item in args.only.split(",")}
        only = {o for o in only if o}
    checks = identity_report(ctx, args.m, only=only, max_q=args.max_q, threads=args.threads)
    all_pass = all(c.passed for c in checks)
    if args.format == "json":
        for c in checks:
            print(_canonical_json(c.to_json_dict()))
    else:
        for c in checks:
            status = "pass" if c.passed else "FAIL"
            print(f"lemma {c.lemma} {c.params}: {status}")
        print(f"{sum(c.passed for c in checks)}/{len(checks)} identities hold")
    return EXIT_OK if all_pass else EXIT_MISMATCH


def _cache_path(args) -> str:
    if args.cache:
        return args.cache
    return os.environ.get("PERIODPOLY_CACHE", "periodpoly-verify.jsonl")


def cmd_verify(args) -> int:
    ctx = _build(args)
    fac = closed_form_factorization(ctx, args.m)
    e = 1 << args.m

    oracle = args.oracle
    if oracle == "auto":
        oracle = "brute" if ctx.q <= args.max_q else "lift"

    status = "verified"
    oracle_poly = None
    try:
        if oracle == "brute":
            oracle_poly = period_polynomial(reduced_periods(trace_spectrum(ctx, e, max_q=args.max_q, threads=args.threads)))
        else:
            oracle_poly, _, _ = lifted_period_polynomial(ctx, args.m, max_q=args.max_q, threads=args.threads)
    except BudgetExceeded:
        status = "skipped"

    # an irreducible case has no factor list to expand: its content is the oracle's polynomial
    polynomial = oracle_poly if fac.irreducible else fac.expand()
    if status != "skipped":
        status = "verified" if fac.matches(oracle_poly) else "failed"

    content = {
        "p": ctx.p,
        "s": ctx.s,
        "m": args.m,
        "case": fac.case.case,
        "factorization": fac.to_json_dict(),
        "polynomial": None if polynomial is None else polynomial.to_json_list(),
    }
    digest = hashlib.sha256(_canonical_json(content).encode()).hexdigest()
    record = {
        "p": ctx.p,
        "s": ctx.s,
        "m": args.m,
        "case": fac.case.case,
        "oracle": oracle,
        "status": status,
        "factorization": fac.to_json_dict(),
        "digest": digest,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    path = _cache_path(args)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(_canonical_json(record) + "\n")

    if args.format == "json":
        print(_canonical_json(record))
    else:
        print(f"p={ctx.p} s={ctx.s} m={args.m} case={fac.case.case} oracle={oracle}: {status} (digest {digest[:12]})")
    if status == "verified":
        return EXIT_OK
    if status == "skipped":
        return EXIT_BUDGET
    return EXIT_MISMATCH


def _add_common(sub, *, m=False, e=False, r=False, oracle=False, sweep=False):
    sub.add_argument("--p", type=int, required=True, help="odd prime characteristic")
    sub.add_argument("--s", type=int, required=True, help="extension degree")
    if m:
        sub.add_argument("--m", type=int, required=True, help="degree exponent: e = 2^m")
    if e:
        sub.add_argument("--e", type=int, required=True, help="order e dividing q-1")
    if r:
        sub.add_argument("--r", type=int, required=True, help="partition index r")
    if oracle:
        sub.add_argument("--oracle", choices=("auto", "brute", "lift"), default="auto")
        sub.add_argument("--cache", default=None, help="JSONL cache path (or env PERIODPOLY_CACHE)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--json", dest="format", action="store_const", const="json", help="shorthand for --format json")
    if sweep:
        sub.add_argument("--max-q", dest="max_q", type=int, default=DEFAULT_MAX_Q, help="enumeration budget (elements)")
        sub.add_argument("--threads", type=int, default=None, help="sweep worker count (default: all cores)")


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="periodpoly", description="Exact reduced period polynomials of degree 2^m over F_{p^s}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_factor = subs.add_parser("factor", help="closed-form factorization of P*_{2^m}")
    _add_common(p_factor, m=True)
    p_factor.set_defaults(fn=cmd_factor)

    p_semi = subs.add_parser("semiprimitive", help="two-factor form for e | p^l + 1 (explicit request)")
    _add_common(p_semi, e=True)
    p_semi.set_defaults(fn=cmd_semiprimitive)

    p_verify = subs.add_parser("verify", help="factor and check against an independent oracle")
    _add_common(p_verify, m=True, oracle=True, sweep=True)
    p_verify.set_defaults(fn=cmd_verify)

    p_periods = subs.add_parser("periods", help="brute-force reduced periods and P*_e")
    _add_common(p_periods, e=True, sweep=True)
    p_periods.set_defaults(fn=cmd_periods)

    p_part = subs.add_parser("partition", help="normalized quadratic partition record")
    _add_common(p_part, r=True)
    p_part.set_defaults(fn=cmd_partition)

    p_lem = subs.add_parser("lemmas", help="classical identity checks on Gauss/Jacobi sums")
    _add_common(p_lem, m=True, sweep=True)
    p_lem.add_argument("--only", default=None, help="comma list, e.g. lemma2a,lemma15 or bare ids 2a,15")
    p_lem.set_defaults(fn=cmd_lemmas)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.fn(args)
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:  # UnsupportedCase and FieldError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
