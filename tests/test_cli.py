import json
import shlex
from pathlib import Path

import pytest

from periodpoly.cli import EXIT_BUDGET, EXIT_MISMATCH, EXIT_OK, EXIT_USAGE, main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_factor_ok(capsys):
    code, out, _ = run(capsys, "factor", "--p", "3", "--s", "4", "--m", "4")
    assert code == EXIT_OK
    assert "T1c" in out


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


def test_verify_lift(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", "16", "--m", "4", "--oracle", "lift", "--cache", str(cache), "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["status"] == "verified" and rec["case"] == "T2a"


def test_verify_lift_m2(tmp_path, capsys):
    cache = tmp_path / "cache.jsonl"
    code, out, _ = run(capsys, "verify", "--p", "5", "--s", "4", "--m", "2", "--oracle", "lift", "--cache", str(cache), "--format", "json")
    assert code == EXIT_OK
    rec = json.loads(out)
    assert rec["status"] == "verified" and rec["case"] == "SMALL_M2"


@pytest.mark.parametrize("s, oracle", (("1", "brute"), ("3", "lift")))
def test_verify_small_m2_irreducible(tmp_path, capsys, s, oracle):
    # odd s: the closed form claims irreducibility; the oracle polynomial must carry a witness
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


def test_json_byte_identical(capsys):
    # the sweep walks (q - 1)/(p - 1) = 265720 elements, enough for 4 ranges of at least 2^16
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
