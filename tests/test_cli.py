import hashlib
import json
import re
import shlex
import sys
from pathlib import Path

import pytest

from periodpoly.cli import EXIT_BUDGET, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main
from periodpoly.closed_form import classify


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_ok(capsys):
    code, out, _ = run(capsys, "factor", "--p", "3", "--s", "4", "--m", "4")
    assert code == EXIT_OK
    assert "T1c" in out
    code, out, _ = run(capsys, "factor", "--p", "5", "--s", "1", "--m", "2")
    assert code == EXIT_OK
    assert out == "case SMALL_M2: irreducible over Q (no closed-form factor list)\n"


def test_factor_json(capsys):
    code, out, _ = run(capsys, "factor", "--p", "3", "--s", "8", "--m", "4", "--format", "json")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["case"] == "T1a"
    assert {"coeffs": ["-225", "1"], "mult": 5} in d["factors"]


def test_factor_errors(capsys):
    code, _, err = run(capsys, "factor", "--p", "7", "--s", "4", "--m", "4")
    assert code == EXIT_USAGE and "p mod 8" in err
    code, _, err = run(capsys, "factor", "--p", "3", "--s", "2", "--m", "4")
    assert code == EXIT_USAGE and "does not divide" in err
    code, _, err = run(capsys, "factor", "--p", "3", "--s", "4")  # missing --m
    assert code == EXIT_USAGE and "--m" in err
    code, _, _ = run(capsys, "nonsense")
    assert code == EXIT_USAGE


def test_periods_json(capsys):
    code, out, _ = run(capsys, "periods", "--p", "5", "--s", "2", "--e", "4", "--json")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["e"] == 4 and len(d["eta_star"]) == 4
    # the reduced periods sum to zero
    total = [0] * 5
    for item in d["eta_star"]:
        canon = [int(c) for c in item["canonical"]]
        for i, c in enumerate(canon):
            total[i] += c
    assert all(c == 0 for c in total)
    assert d["polynomial"][-1] == "1"


def test_periods_text(capsys):
    code, out, _ = run(capsys, "periods", "--p", "5", "--s", "2", "--e", "4")
    assert code == EXIT_OK
    assert out.splitlines() == [
        "e = 4, q = 25",
        "eta*_0 = [-7, 0, -4, -4]",
        "eta*_1 = [9, 0, 8, 8]",
        "eta*_2 = [-3, 0, 4, 4]",
        "eta*_3 = [1, 0, -8, -8]",
        "P* coefficients (little-endian): [-275, -600, -150, 0, 1]",
    ]


def test_periods_budget(capsys):
    code, _, err = run(capsys, "periods", "--p", "3", "--s", "4", "--e", "16", "--max-q", "80")
    assert code == EXIT_BUDGET and "budget" in err.lower()
    # q = 10007 is in budget, but the e x p count table is not
    code, _, err = run(capsys, "periods", "--p", "10007", "--s", "1", "--e", "2", "--max-q", "15000")
    assert code == EXIT_BUDGET and "count table" in err


@pytest.mark.parametrize("e", ("0", "-1", "-4"))
def test_periods_rejects_e_below_one(capsys, e):
    code, _, err = run(capsys, "periods", "--p", "3", "--s", "2", "--e", e)
    assert code == EXIT_USAGE and "e must be >= 1" in err


def test_partition_cli(capsys):
    # p mod 8 picks the type: A for 3, C for 5
    code, out, _ = run(capsys, "partition", "--p", "3", "--s", "8", "--r", "3", "--json")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["kind"] == "A" and d["first"] == "7" and d["pk"] == "81"
    assert d["second"] in ("4", "-4")
    code, out, _ = run(capsys, "partition", "--p", "5", "--s", "8", "--r", "3", "--json")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["kind"] == "C" and d["pk"] == "25" and d["first"] == "-3" and d["second"] in ("4", "-4")
    code, _, err = run(capsys, "partition", "--p", "7", "--s", "2", "--r", "3")
    assert code == EXIT_USAGE and "p mod 8 = 7" in err
    # the text identity parenthesizes a negative coordinate, so both sides are equal as written
    for argv, want in (
        (("--p", "3", "--s", "4", "--r", "3"), "A_3 = -1, B_3 = 2: (-1)^2 + 2*2^2 = 9 (gamma aafc435caee4c595)"),
        (("--p", "5", "--s", "4", "--r", "2"), "C_2 = -3, D_2 = 4: (-3)^2 + 1*4^2 = 25 (gamma a49b3825aff76f73)"),
        (("--p", "3", "--s", "8", "--r", "3"), "A_3 = 7, B_3 = -4: 7^2 + 2*(-4)^2 = 81 (gamma fbd886eaffd5711d)"),
    ):
        code, out, _ = run(capsys, "partition", *argv)
        assert code == EXIT_OK and out == want + "\n"
    code, _, err = run(capsys, "partition", "--p", "5", "--s", "8", "--type", "C", "--r", "3")
    assert code == EXIT_USAGE and "unrecognized arguments: --type C" in err


def test_lemmas_cli(capsys):
    code, out, _ = run(capsys, "lemmas", "--p", "5", "--s", "4", "--m", "4", "--json", "--only", "lemma15,lemma16,lemma9")
    assert code == EXIT_OK
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert lines and all(rec["pass"] for rec in lines)
    assert {rec["lemma"] for rec in lines} <= {"15", "16", "9"}
    assert any(rec["lemma"] == "16" for rec in lines)


@pytest.mark.parametrize("m", ("0", "-1"))
def test_lemmas_rejects_m_below_one(capsys, m):
    code, out, err = run(capsys, "lemmas", "--p", "5", "--s", "1", "--m", m)
    assert code == EXIT_USAGE and out == "" and "m must be >= 1" in err


def test_lemmas_m_one(capsys):
    code, out, _ = run(capsys, "lemmas", "--p", "5", "--s", "4", "--m", "1")
    assert code == EXIT_OK and out.endswith(" identities hold\n")


@pytest.mark.parametrize("only", ("99", "2a,lemma17", "lemma3x"))
def test_lemmas_rejects_unknown_ids(capsys, only):
    code, out, err = run(capsys, "lemmas", "--p", "5", "--s", "4", "--m", "2", "--only", only)
    bad = only.split(",")[-1].removeprefix("lemma")
    assert code == EXIT_USAGE and out == "" and f"unknown identity id '{bad}'" in err
    # a known id that does not apply to the field selects nothing and is rejected too
    code, out, err = run(capsys, "lemmas", "--p", "5", "--s", "4", "--m", "2", "--only", "15")
    assert code == EXIT_USAGE and out == "" and "no selected identity check applies" in err


@pytest.mark.parametrize("only", (",", "lemma", "4"))
def test_lemmas_rejects_an_empty_selection(capsys, only):
    # empty items name nothing, and lemma 4 is for p = 3 (mod 8) only: no check would run
    code, out, err = run(capsys, "lemmas", "--p", "5", "--s", "4", "--m", "2", "--only", only)
    assert code == EXIT_USAGE and out == ""
    assert "no selected identity check applies to p=5, s=4, m=2" in err


@pytest.mark.parametrize(
    "argv",
    (
        ("periods", "--p", "3", "--s", "4", "--e", "16", "--threads", "0"),
        ("verify", "--p", "3", "--s", "4", "--m", "4", "--oracle", "brute", "--threads", "-1"),
        ("verify", "--p", "3", "--s", "8", "--m", "4", "--oracle", "lift", "--threads", "0"),
        ("lemmas", "--p", "5", "--s", "4", "--m", "2", "--threads", "-2"),
    ),
)
def test_threads_below_one_rejected(tmp_path, capsys, argv):
    cache = tmp_path / "cache.jsonl"
    extra = ("--cache", str(cache)) if argv[0] == "verify" else ()
    code, out, err = run(capsys, *argv, *extra)
    assert code == EXIT_USAGE and out == "" and "threads must be >= 1" in err
    assert not cache.exists()


def test_verify_and_cache(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "3", "--s", "4", "--m", "4", "--cache", str(cache), "--format", "json")
    assert code == EXIT_OK
    rec1 = json.loads(out)
    assert rec1["status"] == "verified" and rec1["oracle"] == "brute"
    code, out, _ = run(capsys, "verify", "--p", "3", "--s", "4", "--m", "4", "--cache", str(cache), "--format", "json", "--threads", "3")
    rec2 = json.loads(out)
    assert rec2["digest"] == rec1["digest"]
    lines = cache.read_text().strip().splitlines()
    assert len(lines) == 2  # append-only
    assert json.loads(lines[0])["digest"] == json.loads(lines[1])["digest"]


def test_verify_lift(tmp_path, capsys, monkeypatch):
    import periodpoly.closed_form as closed_form

    expansions = []
    expand = closed_form.expand_factor_list
    monkeypatch.setattr(closed_form, "expand_factor_list", lambda factors: expansions.append(1) or expand(factors))
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", "16", "--m", "4", "--oracle", "lift", "--cache", str(cache), "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["status"] == "verified" and rec["case"] == "T2a"
    assert expansions == []  # the record's polynomial is the oracle's, multiplied out from an equal list


def test_verify_lift_m2(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", "4", "--m", "2", "--oracle", "lift", "--cache", str(cache), "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["status"] == "verified" and rec["case"] == "SMALL_M2"


@pytest.mark.parametrize("s, oracle", (("1", "brute"), ("3", "lift")))
def test_verify_small_m2_irreducible(tmp_path, capsys, s, oracle):
    # odd s: the closed form claims irreducibility; the oracle's periods must be one Galois orbit
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", s, "--m", "2", "--oracle", oracle, "--cache", str(cache), "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["status"] == "verified" and rec["case"] == "SMALL_M2" and rec["factorization"]["factors"] == []


def test_verify_auto_picks_lift(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    # force brute out of budget; auto must fall back to the lift oracle
    code, out, _ = run(
        capsys, "verify", "--p", "5", "--s", "8", "--m", "4",
        "--cache", str(cache), "--format", "json", "--max-q", "10000",
    )
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["oracle"] == "lift" and rec["status"] == "verified"


def test_verify_skipped_when_budget_too_small(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(
        capsys, "verify", "--p", "5", "--s", "8", "--m", "4",
        "--cache", str(cache), "--format", "json", "--max-q", "100",
    )
    assert code == EXIT_BUDGET
    assert json.loads(out)["status"] == "skipped"


def test_verify_prints_a_digest_past_the_int_str_digit_cap(tmp_path, capsys):
    # (5, 64, 8): the expanded T2c list has coefficients of 5,826 digits, past the interpreter's int/str
    # digit cap (4,300 by default, 1,000 here), which main lifts for the command only and then restores
    has_cap = hasattr(sys, "set_int_max_str_digits")
    cap = sys.get_int_max_str_digits() if has_cap else None
    try:
        if has_cap:
            sys.set_int_max_str_digits(1000)
        code, out, err = run(capsys, "verify", "--p", "5", "--s", "64", "--m", "8", "--cache", str(tmp_path / "c.jsonl"), "--format", "json")
        assert not has_cap or sys.get_int_max_str_digits() == 1000
    finally:
        if has_cap:
            sys.set_int_max_str_digits(cap)
    assert (code, err) == (EXIT_BUDGET, "")
    rec = json.loads(out)
    assert rec["status"] == "skipped" and rec["digest"].startswith("80a3c91601987a78")


def test_periods_beyond_int64_range(capsys):
    # (p-1)^2 >= 2^63: the sweep refuses before it starts, as a budget failure
    code, _, err = run(capsys, "periods", "--p", "3037000507", "--s", "1", "--e", "2", "--max-q", str(10**10))
    assert code == EXIT_BUDGET and "2^63" in err


def test_cache_env_var(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env-cache.jsonl"
    monkeypatch.setenv("PERIODPOLY_CACHE", str(cache))
    code, _, _ = run(capsys, "verify", "--p", "5", "--s", "2", "--m", "2")
    assert code == EXIT_OK
    assert cache.exists() and len(cache.read_text().strip().splitlines()) == 1


@pytest.mark.parametrize("where", ("missing directory", "directory"))
def test_verify_unwritable_cache_keeps_the_verdict(tmp_path, capsys, where):
    # the record is printed before the append, and a failed append is one line on stderr
    cache = tmp_path / "missing" / "x.jsonl" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, "verify", "--p", "3", "--s", "4", "--m", "4", "--cache", str(cache), "--format", "json")
    assert code == EXIT_USAGE and json.loads(out)["status"] == "verified"
    reason = "No such file or directory" if where == "missing directory" else "Is a directory"
    assert err == f"error: cannot append to {cache}: {reason}\n"
    code, out, err = run(capsys, "verify", "--p", "3", "--s", "4", "--m", "4", "--cache", str(cache))
    assert code == EXIT_USAGE and out.startswith("p=3 s=4 m=4 case=T1c oracle=brute: verified (digest ")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_json_byte_identical(capsys):
    # the sweep walks (q - 1)/(p - 1) = 265720 elements, enough for 4 workers of at least 2^16
    outs = set()
    for threads in ("1", "2", "4"):
        code, out, _ = run(capsys, "periods", "--p", "3", "--s", "12", "--e", "16", "--json", "--threads", threads)
        assert code == EXIT_OK
        outs.add(out)
    assert len(outs) == 1


def test_semiprimitive_cli(capsys):
    code, out, _ = run(capsys, "semiprimitive", "--p", "3", "--s", "2", "--e", "4", "--json")
    assert code == EXIT_OK
    d = json.loads(out)
    assert d["case"] == "PROP20"
    assert {"coeffs": ["3", "1"], "mult": 3} in d["factors"]
    # the same field checks as every other command: p an odd prime, s >= 1
    code, _, err = run(capsys, "semiprimitive", "--p", "4", "--s", "4", "--e", "5")
    assert code == EXIT_USAGE and "4 is not an odd prime" in err
    code, _, err = run(capsys, "semiprimitive", "--p", "3", "--s", "0", "--e", "4")
    assert code == EXIT_USAGE and "s must be >= 1" in err


def test_options_only_where_read(capsys):
    # the budget and worker count belong to the sweeping commands; semiprimitive finds l itself
    for argv in (
        ("factor", "--p", "3", "--s", "4", "--m", "4", "--threads", "2"),
        ("partition", "--p", "3", "--s", "8", "--r", "3", "--max-q", "100"),
        ("semiprimitive", "--p", "3", "--s", "4", "--e", "5", "--l", "2"),
    ):
        code, _, err = run(capsys, *argv)
        assert code == EXIT_USAGE and f"unrecognized arguments: {' '.join(argv[-2:])}" in err


def test_verify_mismatch_exit_code(tmp_path, capsys, monkeypatch):
    # force a wrong closed form to exercise the scientific-failure exit path
    import periodpoly.cli as cli
    from periodpoly.closed_form import closed_form_factorization
    from periodpoly.cyclotomic import linear

    def broken(ctx, m):
        fac = closed_form_factorization(ctx, m)
        factors = ((linear(fac.factors[0][0].coeffs[0] + 1), fac.factors[0][1]),) + fac.factors[1:]
        return type(fac)(fac.case, fac.q, factors, fac.partitions)

    monkeypatch.setattr(cli, "closed_form_factorization", broken)
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "3", "--s", "4", "--m", "4", "--cache", str(cache), "--format", "json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["status"] == "failed"


def test_verify_fails_an_irreducible_claim_that_splits(tmp_path, capsys, monkeypatch):
    # (5, 2, 2) splits into four linear factors over Q: a closed form that claims irreducible fails
    import periodpoly.cli as cli
    from periodpoly.closed_form import Factorization

    monkeypatch.setattr(cli, "closed_form_factorization", lambda ctx, m: Factorization(classify(ctx.p, ctx.s, m), ctx.q, ()))
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", "2", "--m", "2", "--cache", str(cache), "--format", "json")
    assert code == EXIT_MISMATCH
    assert json.loads(out)["status"] == "failed"


def test_verify_expands_a_factor_list_once(tmp_path, capsys, monkeypatch):
    # a verified list equals the oracle's, so the digest takes the oracle's polynomial and the
    # closed form's list is not multiplied out again; a skipped case (no oracle) and a failed
    # one (unequal lists) still expand it. Every digest is pinned
    import periodpoly.cli as cli
    from periodpoly.closed_form import Factorization, closed_form_factorization
    from periodpoly.cyclotomic import linear

    def verify(*argv):
        code, out, _ = run(capsys, "verify", *argv, "--cache", str(tmp_path / "c.jsonl"), "--format", "json")
        rec = json.loads(out)
        return code, rec["status"], rec["digest"][:16]

    def refuse(self):
        raise RuntimeError("the closed form's list was expanded")

    with monkeypatch.context() as m:
        m.setattr(Factorization, "expand", refuse)
        assert verify("--p", "3", "--s", "4", "--m", "4", "--oracle", "brute") == (EXIT_OK, "verified", "a0a7825046eee25e")
        assert verify("--p", "5", "--s", "16", "--m", "4", "--oracle", "lift") == (EXIT_OK, "verified", "3c0be325e5208aab")
        with pytest.raises(RuntimeError, match="was expanded"):
            verify("--p", "5", "--s", "8", "--m", "4", "--max-q", "100")

    def broken(ctx, m):
        fac = closed_form_factorization(ctx, m)
        factors = ((linear(fac.factors[0][0].coeffs[0] + 1), fac.factors[0][1]),) + fac.factors[1:]
        return type(fac)(fac.case, fac.q, factors, fac.partitions)

    expansions = []
    expand = Factorization.expand
    monkeypatch.setattr(Factorization, "expand", lambda self: expansions.append(self.q) or expand(self))
    assert verify("--p", "5", "--s", "8", "--m", "4", "--max-q", "100") == (EXIT_BUDGET, "skipped", "d499b167ffe087ca")
    monkeypatch.setattr(cli, "closed_form_factorization", broken)
    assert verify("--p", "3", "--s", "4", "--m", "4", "--oracle", "brute") == (EXIT_MISMATCH, "failed", "5dd95e6d2dec94b6")
    assert expansions == [5**8, 3**4]


@pytest.mark.parametrize("s, oracle", (("4", "brute"), ("1", "brute"), ("16", "lift")))
def test_verify_expands_the_orbits_once(tmp_path, capsys, monkeypatch, s, oracle):
    # the oracle's polynomial and its factors come from one orbit expansion: one ring map per verify
    import periodpoly.periods as periods

    maps = []
    ring_map = periods.root_of_unity_mod
    monkeypatch.setattr(periods, "root_of_unity_mod", lambda n, bound: maps.append(n) or ring_map(n, bound))
    m = "2" if s == "1" else "4"
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", s, "--m", m, "--oracle", oracle, "--cache", str(cache), "--format", "json")
    assert code == EXIT_OK and json.loads(out)["status"] == "verified"
    assert maps == [5]


def readme_examples():
    """(argv, expected stdout) for each `$ periodpoly ...` example in README.md."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [
        (shlex.split(command)[1:], output)
        for command, output in (chunk.split("\n", 1) for chunk in block.split("$ ")[1:])
    ]


def test_readme_examples(tmp_path, capsys):
    examples = readme_examples()
    assert [argv[0] for argv, _ in examples] == ["factor", "verify"]
    for argv, want in examples:
        if argv[0] == "verify":
            argv += ["--cache", str(tmp_path / "cache.jsonl")]
        code, out, _ = run(capsys, *argv)
        assert code == EXIT_OK and out.strip() == want.strip(), argv


# (argv, expected exit code) for the golden grid: brute and lift verifies, a skipped verify, the
# SMALL_M2 irreducible case by both oracles, identity checks, periods and partition records
GOLDEN_GRID = (
    (("verify", "--p", "3", "--s", "4", "--m", "4", "--oracle", "brute"), EXIT_OK),
    (("verify", "--p", "5", "--s", "8", "--m", "3", "--oracle", "brute"), EXIT_OK),
    (("verify", "--p", "3", "--s", "8", "--m", "5", "--oracle", "lift"), EXIT_OK),
    (("verify", "--p", "5", "--s", "8", "--m", "4", "--oracle", "lift"), EXIT_OK),
    (("verify", "--p", "5", "--s", "8", "--m", "4", "--max-q", "100"), EXIT_BUDGET),
    (("verify", "--p", "5", "--s", "1", "--m", "2", "--oracle", "brute"), EXIT_OK),
    (("verify", "--p", "13", "--s", "3", "--m", "2", "--oracle", "lift"), EXIT_OK),
    (("lemmas", "--p", "3", "--s", "4", "--m", "3"), EXIT_OK),
    (("lemmas", "--p", "5", "--s", "4", "--m", "4"), EXIT_OK),
    (("periods", "--p", "5", "--s", "2", "--e", "4"), EXIT_OK),
    (("periods", "--p", "3", "--s", "6", "--e", "8"), EXIT_OK),
    (("periods", "--p", "13", "--s", "2", "--e", "8"), EXIT_OK),
    (("partition", "--p", "3", "--s", "8", "--r", "3"), EXIT_OK),
    (("partition", "--p", "5", "--s", "8", "--r", "2"), EXIT_OK),
    (("partition", "--p", "11", "--s", "16", "--r", "5"), EXIT_OK),
)


def test_golden_output_grid(tmp_path, capsys):
    # the sha256 of every JSON output of the grid, verify's timestamp removed; pinned before
    # the core types stopped storing values that their other fields determine
    digest = hashlib.sha256()
    for argv, want in GOLDEN_GRID:
        extra = ("--cache", str(tmp_path / "cache.jsonl")) if argv[0] == "verify" else ()
        code, out, _ = run(capsys, *argv, *extra, "--format", "json")
        assert code == want, argv
        out = re.sub(r',"timestamp":"[^"]*"', "", out)
        digest.update(f"{' '.join(argv)}\n{out}".encode())
    assert digest.hexdigest()[:16] == "707c0515708bc99d"
