"""The command line interface: formats and exit codes."""

import os
import re
import shlex
import stat
import tracemalloc
from pathlib import Path

import pytest

import rightq.cli
import rightq.rewrite
from rightq import parse_expression
from rightq.cli import main

from _wrong_tables import WRONG_RULES, use_wrong_rules


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def kv(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "\t" in line and not line.startswith("STEP"):
            key, _, value = line.partition("\t")
            pairs[key] = value
    return pairs


# Every "$ rightq ..." block in README.md, as (command, expected stdout).
README_EXAMPLES = re.findall(
    r"^```\n\$ rightq ([^\n]*)\n(.*?)^```$",
    (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8"),
    flags=re.MULTILINE | re.DOTALL,
)


def test_readme_has_examples():
    assert len(README_EXAMPLES) >= 4


@pytest.mark.parametrize(
    "command, expected", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES]
)
def test_readme_example_output(capsys, command, expected):
    code, out, _ = run(capsys, *shlex.split(command))
    assert code == 0
    assert out == expected


GOLDEN_5 = "123/122 + 123/212 - 213/122 + 123/221 - 231/212"


def test_normalize_golden(capsys):
    code, out, _ = run(capsys, "normalize", "321/221")
    assert code == 0
    table = kv(out)
    assert parse_expression(table["normal-form"]) == parse_expression(GOLDEN_5)
    assert table["rewrite-steps"] == "4"


def test_normalize_weighted_system(capsys):
    code, out, _ = run(capsys, "normalize", "--system", "sq", "21/21")
    assert code == 0
    assert parse_expression(kv(out)["normal-form"]) == parse_expression(
        "12/12 + q*12/21 - q^-1*21/12"
    )


def test_normalize_strategies_agree(capsys):
    results = set()
    for strategy in ("leftmost", "rightmost", "random:7"):
        code, out, _ = run(capsys, "normalize", "--strategy", strategy, "321/321")
        assert code == 0
        results.add(kv(out)["normal-form"])
    assert len(results) == 1


def test_normalize_rejects_bad_strategy(capsys):
    for strategy in ("sideways", "random", "random:", "random:x", "leftmost:3"):
        with pytest.raises(SystemExit) as info:
            main(["normalize", "--strategy", strategy, "21/11"])
        assert info.value.code == 2
        assert f"random:<seed>, got {strategy!r}" in capsys.readouterr().err


def test_normalize_rejects_unknown_system(capsys):
    with pytest.raises(SystemExit) as info:
        main(["normalize", "--system", "plain", "21/21"])
    assert info.value.code == 2
    assert "invalid choice: 'plain'" in capsys.readouterr().err


def test_normalize_parse_error_exit(capsys):
    code, out, err = run(capsys, "normalize", "q^")
    assert code == 2
    assert out == ""
    assert "parse error" in err
    code, out, err = run(capsys, "normalize", "²/1")
    assert code == 2
    assert out == ""
    assert err == "parse error: offset 0: expected a token, found '²'\n"


def test_normalize_term_cap_exit(capsys):
    code, _, err = run(capsys, "normalize", "--term-cap", "3", "321/321")
    assert code == 1
    assert "exceeded" in err


def test_normalize_term_cap_covers_input(capsys):
    code, out, err = run(capsys, "normalize", "--term-cap", "0", "12/12")
    assert code == 1
    assert out == ""
    assert "exceeded" in err


_CONFLUENCE = ["check", "confluence", "--seed", "0"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["qmm", "--r", "2", "--max-degree", "-1"], "max_degree"),
        (["qmm", "--r", "0", "--max-degree", "3"], "r"),
        (_CONFLUENCE + ["--r", "3", "--max-len", "6", "--trials", "-5"], "trials"),
        (_CONFLUENCE + ["--r", "3", "--max-len", "6", "--trials", "0"], "trials"),
        (_CONFLUENCE + ["--r", "0", "--max-len", "6", "--trials", "5"], "r"),
        (_CONFLUENCE + ["--r", "1", "--max-len", "6", "--trials", "5"], "r"),
        (_CONFLUENCE + ["--r", "3", "--max-len", "-1", "--trials", "5"], "max_len"),
        (_CONFLUENCE + ["--r", "3", "--max-len", "1", "--trials", "5"], "max_len"),
        (["check", "principle", "--r", "2", "--trials", "-3", "--seed", "0"], "trials"),
        (["check", "principle", "--r", "0", "--trials", "3", "--seed", "0"], "r"),
        (["check", "principle", "--r", "1", "--trials", "3", "--seed", "0"], "r"),
        (["basis", "--r", "2", "--degree", "-1"], "degree"),
        (["basis", "--r", "0", "--degree", "2"], "r"),
        (["normalize", "--term-cap", "-5", "12/12"], "term_cap"),
        (["qmm", "--r", "2", "--max-degree", "2", "--term-cap", "-1"], "term_cap"),
    ],
)
def test_verifiers_reject_empty_checks(capsys, argv, name):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "ok\ttrue" not in out
    assert err.startswith(f"error: {name} must be at least ")


def test_trace_output(capsys):
    code, out, _ = run(capsys, "trace", "321/221")
    assert code == 0
    lines = out.splitlines()
    steps = [line for line in lines if line.startswith("STEP ")]
    assert steps == [
        "STEP 321/221 @ 1 -> 231/221",
        "STEP 231/221 @ 2 -> 213/212 + 213/221 - 231/212",
        "STEP 213/221 @ 1 -> 123/221",
        "STEP 213/212 @ 1 -> 123/122 + 123/212 - 213/122",
    ]
    table = kv(out)
    assert table["rewrite-steps"] == "4"
    assert parse_expression(table["normal-form"]) == parse_expression(GOLDEN_5)


def test_trace_irreducible_biword(capsys):
    code, out, _ = run(capsys, "trace", "12/21")
    assert code == 0
    assert "STEP" not in out
    assert kv(out)["rewrite-steps"] == "0"


def test_stats_output(capsys):
    code, out, _ = run(capsys, "stats", "321/221")
    assert code == 0
    table = kv(out)
    assert table["inv"] == "3"
    assert table["imv"] == "3"
    assert table["inv-"] == "-1"
    assert table["inv+"] == "6"
    assert table["double-descents"] == "1,2"
    assert table["irreducible"] == "false"
    assert table["circuit"] == "false"


def test_stats_irreducible_circuit(capsys):
    code, out, _ = run(capsys, "stats", "12/21")
    assert code == 0
    table = kv(out)
    assert table["double-descents"] == ""
    assert table["irreducible"] == "true"
    assert table["circuit"] == "true"


def test_phi_and_inverse(capsys):
    code, out, _ = run(capsys, "phi", "21/12")
    assert code == 0
    assert out.strip() == "q^-1*21/12"
    code, out, _ = run(capsys, "phi", "--inverse", "q^-1*21/12")
    assert code == 0
    assert out.strip() == "21/12"


def test_check_ambiguities(capsys):
    code, out, _ = run(capsys, "check", "ambiguities")
    assert code == 0
    table = kv(out)
    assert table["checked"] == "20"
    assert table["failures"] == "0"
    overlap_lines = [l for l in out.splitlines() if l.startswith("overlap\t")]
    assert len(overlap_lines) == 20
    assert all(line.endswith("ok") for line in overlap_lines)


def test_check_ambiguities_covers_every_order_pattern(capsys):
    # A rule compares letters only within a row, so an overlap 321/abc
    # resolves the same way for every (a, b, c) of one order pattern.
    code, out, _ = run(capsys, "check", "ambiguities")
    assert code == 0
    patterns = {tag: set() for tag in ("s", "sq")}
    for line in out.splitlines():
        if line.startswith("overlap\t"):
            tag, overlap, verdict = line.split("\t")[1].split()
            top, bottom = overlap.split("/")
            a, b, c = map(int, bottom)
            assert (top, verdict) == ("321", "ok") and a >= b >= c
            patterns[tag].add(("=" if a == b else ">") + ("=" if b == c else ">"))
    every = {first + second for first in "=>" for second in "=>"}
    assert every == {">>", "=>", ">=", "=="}
    assert patterns == {"s": every, "sq": every}


def test_check_ambiguities_single_system(capsys):
    code, out, _ = run(capsys, "check", "ambiguities", "--system", "sq")
    assert code == 0
    assert kv(out)["checked"] == "10"


def test_check_confluence(capsys):
    code, out, _ = run(
        capsys,
        "check",
        "confluence",
        "--r", "2",
        "--max-len", "3",
        "--trials", "25",
        "--seed", "5",
        "--system", "sq",
    )
    assert code == 0
    table = kv(out)
    assert table["trials"] == "25"
    assert 0 < int(table["reducible"]) < 25
    assert table["counterexamples"] == "0"
    assert table["ok"] == "true"
    keys = [line.split("\t")[0] for line in out.splitlines()]
    assert keys[keys.index("trials") + 1] == "reducible"


def test_check_confluence_without_a_reducible_draw_fails(capsys):
    code, out, _ = run(
        capsys, *_CONFLUENCE, "--r", "2", "--max-len", "2", "--trials", "1"
    )
    assert code == 1
    table = kv(out)
    assert table["reducible"] == "0"
    assert table["counterexamples"] == "0"
    assert table["ok"] == "false"


def test_check_principle(capsys):
    code, out, _ = run(
        capsys, "check", "principle", "--r", "2", "--trials", "10", "--seed", "3"
    )
    assert code == 0
    table = kv(out)
    assert table["trials"] == "10"
    assert table["failures"] == "0"


def test_check_principle_memory_does_not_grow_with_r(capsys):
    # Each member is drawn from one random reducible biword, so no list
    # of the r^4 length-2 biwords (810,000 at r = 30) is built.
    argv = ["check", "principle", "--r", "30", "--trials", "20", "--seed", "0"]
    tracemalloc.start()
    try:
        code, out, _ = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert kv(out)["failures"] == "0"
    assert peak < 5_000_000


@pytest.mark.parametrize("name", list(WRONG_RULES))
def test_check_principle_fails_on_a_wrong_weighted_table(capsys, monkeypatch, name):
    # The memo is keyed by SYSTEM_SQ itself, so its normal forms under the
    # real table must not reach this test, nor the wrong ones leave it.
    use_wrong_rules(monkeypatch, WRONG_RULES[name])
    rightq.rewrite.clear_caches()
    try:
        code, out, _ = run(
            capsys, "check", "principle", "--r", "2", "--trials", "200", "--seed", "0"
        )
    finally:
        rightq.rewrite.clear_caches()
    assert code == 1
    assert int(kv(out)["failures"]) > 0
    assert kv(out)["ok"] == "false"


def test_verbose_notes_go_to_stderr_only(capsys, monkeypatch):
    argv = ["check", "principle", "--r", "2", "--trials", "100", "--seed", "1"]
    monkeypatch.delenv("RIGHTQ_VERBOSE", raising=False)
    code, quiet_out, quiet_err = run(capsys, *argv)
    assert code == 0
    assert quiet_err == ""
    monkeypatch.setenv("RIGHTQ_VERBOSE", "1")
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert out == quiet_out
    assert err == "principle: 50/100 trials\nprinciple: 100/100 trials\n"
    monkeypatch.setenv("RIGHTQ_VERBOSE", "0")
    assert run(capsys, *argv) == (0, quiet_out, "")


def test_qmm_writes_no_verbose_notes(capsys, monkeypatch):
    # The table already says what each degree cost once qmm_check returns.
    monkeypatch.setenv("RIGHTQ_VERBOSE", "1")
    code, _, err = run(capsys, "qmm", "--r", "2", "--max-degree", "3")
    assert code == 0
    assert err == ""


def test_qmm_table_and_report(capsys, tmp_path):
    path = tmp_path / "qmm.tsv"
    code, out, _ = run(
        capsys,
        "qmm",
        "--r", "2",
        "--max-degree", "3",
        "--variant", "strong",
        "--report", str(path),
    )
    assert code == 0
    lines = out.splitlines()
    assert "degree\tterms\tsteps\tok" in lines
    header_at = lines.index("degree\tterms\tsteps\tok")
    rows = lines[header_at + 1 : header_at + 5]
    assert [row.split("\t")[0] for row in rows] == ["0", "1", "2", "3"]
    assert all(row.split("\t")[3] == "true" for row in rows)
    blocks = path.read_text().split("\n\n")
    assert len(blocks) == 5
    head = dict(line.split("\t", 1) for line in blocks[0].splitlines())
    assert head["variant"] == "strong"
    assert head["ok"] == "true"
    degree_two = dict(line.split("\t", 1) for line in blocks[3].splitlines())
    assert degree_two["degree"] == "2"
    assert degree_two["normal-form"] == "0"


def test_qmm_weighted_variant(capsys):
    code, out, _ = run(capsys, "qmm", "--r", "2", "--max-degree", "3", "--variant", "q")
    assert code == 0
    assert kv(out)["system"] == "sq"


def test_basis_report(capsys, tmp_path):
    path = tmp_path / "basis.tsv"
    code, out, _ = run(
        capsys, "basis", "--r", "2", "--degree", "2", "--report", str(path)
    )
    assert code == 0
    table = kv(out)
    assert table["ambient-dim"] == "16"
    assert table["relation-rank"] == "3"
    assert table["quotient-dim"] == "13"
    assert table["irreducible-count"] == "13"
    assert table["closed-form-count"] == "13"
    assert table["match"] == "true"
    assert table["q"] == "1"
    assert list(table)[-2:] == ["closed-form-count", "match"]
    saved = dict(
        line.split("\t", 1) for line in path.read_text().splitlines() if line
    )
    assert saved["quotient-dim"] == "13"
    assert saved["closed-form-count"] == "13"
    assert list(saved)[-2:] == ["closed-form-count", "match"]


@pytest.mark.parametrize(
    "argv",
    [["qmm", "--r", "2", "--max-degree", "2"], ["basis", "--r", "2", "--degree", "2"]],
    ids=["qmm", "basis"],
)
def test_unwritable_report_is_a_usage_error(capsys, tmp_path, argv):
    code, _, err = run(capsys, *argv, "--report", str(tmp_path / "missing" / "r.txt"))
    assert code == 2
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, check",
    [
        (["qmm", "--r", "2", "--max-degree", "2"], "qmm_check"),
        (["basis", "--r", "2", "--degree", "2"], "check_basis_dimension"),
    ],
    ids=["qmm", "basis"],
)
def test_unwritable_report_is_refused_before_the_check(
    capsys, monkeypatch, tmp_path, argv, check
):
    def no_check(*args):
        raise AssertionError(f"{check} ran")

    monkeypatch.setattr(rightq.cli, check, no_check)
    before = rightq.rewrite.measure_check_count()
    code, out, err = run(capsys, *argv, "--report", str(tmp_path / "missing" / "r.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert rightq.rewrite.measure_check_count() == before


@pytest.mark.parametrize(
    "form", [["--report", ""], ["--report="]], ids=["space", "equals"]
)
@pytest.mark.parametrize(
    "argv, check",
    [
        (["qmm", "--r", "2", "--max-degree", "2"], "qmm_check"),
        (["basis", "--r", "2", "--degree", "2"], "check_basis_dimension"),
    ],
    ids=["qmm", "basis"],
)
def test_empty_report_path_is_refused_before_the_check(
    capsys, monkeypatch, tmp_path, argv, check, form
):
    def no_check(*args):
        raise AssertionError(f"{check} ran")

    monkeypatch.setattr(rightq.cli, check, no_check)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, *form)
    assert code == 2
    assert out == ""
    assert err == "error: the --report path is empty\n"
    assert list(tmp_path.iterdir()) == []


def test_report_of_a_stopped_check_leaves_no_file(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "qmm", "--r", "3", "--max-degree", "10", "--term-cap", "1000",
        "--report", "rep.txt",
    )
    assert code == 1
    assert "series exceeded 1000 terms" in err
    assert out == ""
    assert list(tmp_path.iterdir()) == []


def test_report_of_a_stopped_check_keeps_the_earlier_report(capsys, tmp_path):
    path = tmp_path / "rep.txt"
    path.write_bytes(b"earlier\treport\n")
    code, _, _ = run(
        capsys, "qmm", "--r", "3", "--max-degree", "10", "--term-cap", "1000",
        "--report", str(path),
    )
    assert code == 1
    assert path.read_bytes() == b"earlier\treport\n"
    assert list(tmp_path.iterdir()) == [path]


def test_report_gets_the_permissions_of_a_plain_open(capsys, tmp_path):
    fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
    kept.write_text("earlier\n")
    kept.chmod(0o604)
    old_umask = os.umask(0o027)
    try:
        for path in (fresh, kept):
            argv = ["basis", "--r", "2", "--degree", "2", "--report", str(path)]
            assert run(capsys, *argv)[0] == 0
    finally:
        os.umask(old_umask)
    assert stat.S_IMODE(fresh.stat().st_mode) == 0o640
    assert stat.S_IMODE(kept.stat().st_mode) == 0o604
    assert "match\ttrue" in kept.read_text()
    assert sorted(tmp_path.iterdir()) == [fresh, kept]


def test_report_is_written_through_a_symlink(capsys, tmp_path):
    shared = tmp_path / "shared"
    shared.mkdir()
    target = shared / "rep.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    argv = ["basis", "--r", "2", "--degree", "2", "--report", str(link)]
    assert run(capsys, *argv)[0] == 0
    assert link.is_symlink()
    assert os.readlink(link) == str(target)
    assert "match\ttrue" in target.read_text()
    assert sorted(tmp_path.iterdir()) == [link, shared]
    assert list(shared.iterdir()) == [target]


def test_report_path_that_is_a_directory_is_refused_before_the_check(
    capsys, monkeypatch, tmp_path
):
    def no_check(*args):
        raise AssertionError("qmm_check ran")

    monkeypatch.setattr(rightq.cli, "qmm_check", no_check)
    code, out, err = run(
        capsys, "qmm", "--r", "2", "--max-degree", "2", "--report", str(tmp_path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("through_link", [False, True], ids=["fifo", "link-to-fifo"])
def test_report_target_that_is_not_a_regular_file_is_refused_before_the_check(
    capsys, monkeypatch, tmp_path, through_link
):
    def no_check(*args):
        raise AssertionError("check_basis_dimension ran")

    monkeypatch.setattr(rightq.cli, "check_basis_dimension", no_check)
    fifo = tmp_path / "rep.fifo"
    os.mkfifo(fifo)
    path = tmp_path / "link" if through_link else fifo
    if through_link:
        path.symlink_to(fifo)
    code, out, err = run(
        capsys, "basis", "--r", "2", "--degree", "2", "--report", str(path)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.endswith("is not a regular file\n")
    assert err.count("\n") == 1
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert sorted(tmp_path.iterdir()) == sorted({fifo, path})


def test_basis_rational_q(capsys):
    code, out, _ = run(capsys, "basis", "--r", "2", "--degree", "2", "--q", "3/5")
    assert code == 0
    table = kv(out)
    assert table["q"] == "3/5"
    assert table["match"] == "true"


def test_basis_rejects_zero_q(capsys):
    with pytest.raises(SystemExit) as info:
        main(["basis", "--r", "2", "--degree", "2", "--q", "0"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["basis", "--r", "2", "--degree", "2", "--q", "1/0"])
    assert info.value.code == 2
    assert "bad q '1/0': q = 1/0 has a zero denominator" in capsys.readouterr().err


def test_basis_one_letter_high_degree(capsys):
    code, out, _ = run(capsys, "basis", "--r", "1", "--degree", "1500")
    assert code == 0
    table = kv(out)
    assert table["quotient-dim"] == table["closed-form-count"] == "1"
    assert table["match"] == "true"


def test_qmm_series_term_cap_exit(capsys):
    code, out, err = run(
        capsys, "qmm", "--r", "3", "--max-degree", "10", "--term-cap", "1000"
    )
    assert code == 1
    assert "series exceeded 1000 terms" in err
    assert "ok\t" not in out


def test_basis_budget_error(capsys):
    code, _, err = run(capsys, "basis", "--r", "2", "--degree", "11")
    assert code == 2
    assert "budget" in err


def test_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["qmm", "--r", "2"])  # missing --max-degree
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    # only a '-' before what can start a value makes that argument a value
    for argv in (["normalize", "-x"], ["normalize", "--x", "12/12"], ["basis", "--q"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2


# argparse reads an argument that starts with '-' as an option unless it
# looks like a negative number; the parser widens that to signed values.
@pytest.mark.parametrize(
    "argv, key, value",
    [
        (["normalize", "-21/12"], "normal-form", "-1*21/12"),
        (["normalize", "-2*21/12"], "normal-form", "-2*21/12"),
        (["normalize", "-(2,1)/(1,2)"], "normal-form", "-1*21/12"),
        (["normalize", "-e"], "normal-form", "-1*e"),
        (["phi", "-q*21/12"], None, "-1*21/12"),
        (["phi", "--inverse", "-q^-1*21/12"], None, "-1*21/12"),
        (["normalize", "--", "-21/12"], "normal-form", "-1*21/12"),
        (["basis", "--r", "2", "--degree", "2", "--q", "-7/2"], "q", "-7/2"),
        (["basis", "--r", "2", "--degree", "2", "--q", "-.5"], "q", "-1/2"),
        (["basis", "--r", "2", "--degree", "2", "--q=-7/2"], "q", "-7/2"),
    ],
)
def test_signed_values_are_not_options(capsys, argv, key, value):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert (kv(out)[key] if key else out.strip()) == value


@pytest.mark.parametrize("expr", ["-21/12", "-21/21", "-3*321/221 + 21/11", "-q*21/12"])
def test_normalize_output_feeds_back(capsys, expr):
    code, out, _ = run(capsys, "normalize", "--system", "sq", expr)
    assert code == 0
    first = kv(out)["normal-form"]
    code, out, _ = run(capsys, "normalize", "--system", "sq", first)
    assert code == 0
    assert kv(out)["normal-form"] == first
