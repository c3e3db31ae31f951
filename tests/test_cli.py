"""Command-line behavior: exit codes, config merging, output bytes."""

import hashlib
import json
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from rainbowlab.cli import DEFAULT_SEED, MODES, build_parser, main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _no_constant(name):
    raise ValueError(f"{name} is not valid JSON")


def strict_json(text):
    """json.loads that refuses the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_no_constant)


# ----------------------------------------------------------------------------
# exit codes

def test_spread_example(capsys):
    code, out, _ = run_cli(capsys, "spread", "--n", "5", "--k", "1", "--smax", "1")
    assert code == 0
    assert out.splitlines()[0] == "kappa_s = 2"


def test_spread_per_size_lines_print_kappa_values(capsys):
    code, out, err = run_cli(capsys, "spread", "--n", "7", "--k", "1", "--smax", "2")
    assert code == 0
    assert out.splitlines()[0] == "kappa_s = 2.73861"
    assert err.splitlines() == [
        "  s = 1: min ratio root = 3",
        "  s = 2: min ratio root = 2.73861",
    ]


def test_unknown_subcommand_is_usage_error(capsys):
    code = main(["frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_missing_config_names_path(capsys):
    code, _, err = run_cli(capsys, "threshold", "--config", "missing.json")
    assert code == 1
    assert "missing.json" in err


def test_invalid_config_json_is_input_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json{")
    code, _, err = run_cli(capsys, "threshold", "--config", str(bad))
    assert code == 1
    assert "bad.json" in err


def test_unknown_config_key_is_named(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text('{"frobs": 3}')
    code, _, err = run_cli(capsys, "spread", "--config", str(cfg))
    assert code == 1
    assert "frobs" in err


def test_a_config_that_is_not_an_object_is_refused(capsys, tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "spread", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == f"error: config {cfg} must hold a JSON object of flag values\n"


def test_missing_n_is_input_error(capsys):
    code, _, err = run_cli(capsys, "family")
    assert code == 1
    assert "--n" in err


def test_empty_reading_b_range_is_input_error(capsys):
    code, out, err = run_cli(
        capsys, "audit-prop2", "--reading", "b", "--n-min", "10", "--n-max", "9"
    )
    assert code == 1
    assert out == ""
    assert "at least one n" in err


def test_reading_b_rejects_n(capsys):
    code, out, err = run_cli(
        capsys, "audit-prop2", "--reading", "b", "--n", "30", "--n-min", "4", "--n-max", "5"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--n-min" in err and "--n-max" in err


def test_reading_b_rejects_budget(capsys):
    code, out, err = run_cli(capsys, "audit-prop2", "--reading", "b", "--budget", "5")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--budget" in err


@pytest.mark.parametrize("flag", ["--n-min", "--n-max"])
def test_reading_a_rejects_the_n_range(capsys, flag):
    code, out, err = run_cli(capsys, "audit-prop2", "--n", "7", flag, "6")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and flag in err
    code, out, _ = run_cli(capsys, "audit-prop2", "--n", "7", "--budget", "1000")
    assert code == 0 and strict_json(out)["ok"] is True


def test_audit_prop1_answers_past_the_enumeration_wall(capsys):
    # 1,814,400 canonical orders: the audit walks one member instead
    code, out, _ = run_cli(capsys, "audit-prop1", "--n", "11", "--k", "1")
    assert code == 0
    data = strict_json(out)
    # checked counts the linear forests of K_11 with t <= 3 edges (each lies
    # on a Hamilton cycle): c paths on v = t + c vertices in
    # C(11, v) v! C(t-1, c-1) / (2^c c!) ways
    forests = sum(
        math.comb(11, t + c) * math.factorial(t + c) * math.comb(t - 1, c - 1)
        // (2**c * math.factorial(c))
        for t in range(1, 4)
        for c in range(1, t + 1)
    )
    assert data["ok"] is True and data["checked"] == forests == 26290
    code, _, err = run_cli(capsys, "audit-prop1", "--n", "11", "--k", "1", "--budget", "100")
    assert code == 3 and "budget" in err


def test_reading_b_names_n_min_below_2k_plus_2(capsys):
    code, out, err = run_cli(capsys, "audit-prop2", "--reading", "b", "--k", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "--n-min" in err and "2k+2 = 6" in err
    code, out, _ = run_cli(
        capsys, "audit-prop2", "--reading", "b", "--k", "2", "--n-min", "6", "--n-max", "7"
    )
    assert code == 0
    assert strict_json(out)["checked"] == 12 + 14


def test_zero_sweep_trials_is_input_error(capsys):
    code, out, err = run_cli(
        capsys, "fragment", "--n", "7", "--k", "1", "--sweep", "1,2",
        "--sweep-trials", "0", "--seed", "3",
    )
    assert code == 1
    assert out == ""
    assert "--sweep-trials" in err


def test_negative_moment_trials_is_input_error(capsys):
    code, out, err = run_cli(
        capsys, "moments", "--n", "5", "--k", "1", "--q", "6", "--trials", "-3", "--seed", "9"
    )
    assert code == 1
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize("flag", ["--trials", "--workers"])
def test_threshold_names_the_flag_below_one(capsys, tmp_path, flag):
    code, out, err = run_cli(
        capsys, "threshold", "--n", "6", "--k", "1", "--m-grid", "8", flag, "0", "--seed", "1",
        "--out-dir", str(tmp_path / "D"),
    )
    assert (code, out) == (1, "")
    assert err == f"error: {flag} must be >= 1, got 0\n"
    assert not (tmp_path / "D").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["family", "--n", "5"],
        ["family", "--n", "5", "--write-text"],
        ["threshold", "--n", "6", "--m-grid", "8", "--trials", "2", "--seed", "1"],
    ],
)
def test_an_out_dir_that_cannot_be_made_is_refused_first(capsys, tmp_path, monkeypatch, argv):
    # a regular file stands where the directory should be
    (tmp_path / "file").write_text("")
    out_dir = tmp_path / "file" / "D"
    import rainbowlab.threshold as threshold

    def no_grid(config):
        raise AssertionError("the grid ran before the output directory was made")

    monkeypatch.setattr(threshold, "run_grid", no_grid)
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot write {out_dir}: ")
    assert len(err.splitlines()) == 1


# every command that takes --out-dir, at a small size, with the file that a
# directory blocks: each report file goes through the one writer
GRID = ["--n", "6", "--m-grid", "8", "--trials", "2", "--seed", "1", "--no-svg"]
BLOCKED_WRITES = [
    (["family", "--n", "5"], "family_n5_k1.json"),
    (["family", "--n", "5", "--write-text"], "family_n5_k1.txt"),
    (["profile", "--n", "5"], "profile.json"),
    (["audit-prop1", "--n", "6"], "audit_prop1_n6_k1.json"),
    (["audit-prop2", "--n", "6"], "audit_prop2_a_k1.json"),
    (["audit-chain", "--n", "6"], "audit_chain_n6_k1.json"),
    (["moments", "--n", "5", "--q", "6", "--trials", "0"], "moments_n5_k1_q6.json"),
    (["fragment", "--n", "6", "--seed", "1"], "fragment_n6_k1.json"),
    (["fragment", "--n", "6", "--seed", "1", "--sweep", "1,2", "--sweep-trials", "3"], "fragment_sweep_n6_k1.json"),
    (["threshold", *GRID], "summary.json"),
    (["report", "--no-svg"], "summary.json"),
]


@pytest.mark.parametrize("argv,name", BLOCKED_WRITES, ids=[f"{argv[0]}-{name}" for argv, name in BLOCKED_WRITES])
def test_a_report_file_that_cannot_be_written_is_refused_in_one_line(capsys, tmp_path, argv, name):
    if argv[0] == "report":
        assert main(["threshold", *GRID, "--out-dir", str(tmp_path / "grid")]) == 0
        capsys.readouterr()
        argv = [*argv, "--input", str(tmp_path / "grid" / "summary.json")]
    out_dir = tmp_path / "D"
    (out_dir / name).mkdir(parents=True)
    code, out, err = run_cli(capsys, *argv, "--out-dir", str(out_dir))
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert err.startswith(f"error: cannot write {out_dir / name}: ")
    if argv[0] in ("threshold", "report"):
        # the grid ran, and the file written before the refused one stays
        assert (out_dir / "results.csv").read_text().startswith("n,k,q,m,C")


@pytest.mark.parametrize(
    "argv",
    [["family", "--n", "5"], ["family", "--n", "5", "--write-text"], ["threshold", *GRID]],
    ids=["family", "family-write-text", "threshold"],
)
def test_an_empty_out_dir_is_refused_by_flag_and_by_config(capsys, tmp_path, monkeypatch, argv):
    # "" would name the current directory: nothing may land there
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": ""}))
    for given in (["--out-dir", ""], ["--config", str(cfg)]):
        code, out, err = run_cli(capsys, *argv, *given)
        assert (code, out, err) == (1, "", "error: --out-dir must name a directory\n")
        assert list(cwd.iterdir()) == []


def assert_one_error_line(code, out, err):
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert [line for line in err.splitlines() if line.startswith("error:")] == [err.splitlines()[-1]]


@pytest.mark.parametrize("flag,value", [("--C", "inf"), ("--C", "nan"), ("--epsilon1", "nan")])
def test_fragment_rejects_non_finite_numbers(capsys, flag, value):
    code, out, err = run_cli(capsys, "fragment", "--n", "6", "--k", "1", "--seed", "1", flag, value)
    assert_one_error_line(code, out, err)
    assert flag.lstrip("-") in err


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_threshold_rejects_non_finite_c(capsys, tmp_path, value):
    code, out, err = run_cli(
        capsys, "threshold", "--n", "6", "--k", "1", "--c-grid", value, "--trials", "1",
        "--seed", "1", "--no-svg", "--out-dir", str(tmp_path),
    )
    assert_one_error_line(code, out, err)
    assert list(tmp_path.iterdir()) == []


def test_threshold_saturates_a_c_past_the_float_range(capsys, tmp_path):
    # C * N overflows to inf; the exposure size is then every edge slot
    code, _, err = run_cli(
        capsys, "threshold", "--n", "6", "--k", "1", "--c-grid", "1e308", "--trials", "1",
        "--seed", "1", "--no-svg", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    rows = strict_json((tmp_path / "summary.json").read_text())["rows"]
    assert [(row["C"], row["m"]) for row in rows] == [(1e308, 15)]


def test_threshold_default_palette_is_the_exact_ceiling(capsys, tmp_path):
    # ceil(1.1 k n) at k n = 50 is 55, though 1.1 * 50 lands just above it
    code, _, err = run_cli(
        capsys, "threshold", "--n", "50", "--k", "1", "--m-grid", "10", "--trials", "1",
        "--seed", "1", "--no-svg", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    assert strict_json((tmp_path / "summary.json").read_text())["config"]["q"] == 55


def test_moments_rejects_an_infinite_epsilon1(capsys):
    code, out, err = run_cli(capsys, "moments", "--n", "6", "--k", "1", "--epsilon1", "inf", "--trials", "0")
    assert_one_error_line(code, out, err)
    assert "epsilon1" in err


def test_search_rejects_an_empty_palette_before_sampling(capsys):
    code, out, err = run_cli(capsys, "search", "--n", "6", "--k", "1", "--m", "15", "--q", "0", "--seed", "1")
    assert_one_error_line(code, out, err)
    assert "palette size q" in err


@pytest.mark.parametrize("grid", [["--c-grid", "1"], ["--m-grid", "3"]])
@pytest.mark.parametrize("palette", [[], ["--q", "5"]])
def test_threshold_names_a_power_below_one(capsys, tmp_path, grid, palette):
    code, out, err = run_cli(
        capsys, "threshold", "--n", "6", "--k", "0", *palette, *grid, "--trials", "1",
        "--seed", "1", "--no-svg", "--out-dir", str(tmp_path),
    )
    assert_one_error_line(code, out, err)
    assert "power k must be >= 1, got 0" in err
    assert list(tmp_path.iterdir()) == []


def test_search_names_a_power_below_one(capsys):
    # the default palette ceil(1.1 k n) is 0 here; k is the input at fault
    code, out, err = run_cli(capsys, "search", "--n", "6", "--k", "0", "--m", "15", "--seed", "1")
    assert_one_error_line(code, out, err)
    assert "power k must be >= 1, got 0" in err


# a negative budget is bad input, not an exhausted budget; 0 keeps its meaning
NEGATIVE_BUDGETS = [
    (["family", "--n", "7", "--budget", "-1"], "enumeration budget"),
    (["spread", "--n", "7", "--budget", "-1"], "enumeration budget"),
    (["fragment", "--n", "7", "--seed", "3", "--budget", "-1"], "enumeration budget"),
    (["audit-prop1", "--n", "8", "--budget", "-1"], "work budget"),
    (["audit-prop2", "--n", "8", "--budget", "-1"], "work budget"),
    (["audit-chain", "--n", "9", "--budget", "-1"], "enumeration budget"),
    (["profile", "--n", "7", "--pair-budget", "-1"], "pair budget"),
    (["moments", "--n", "7", "--trials", "0", "--pair-budget", "-1"], "pair budget"),
]


@pytest.mark.parametrize("argv,what", NEGATIVE_BUDGETS, ids=[" ".join(argv) for argv, _ in NEGATIVE_BUDGETS])
def test_negative_budget_is_input_error(capsys, argv, what):
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert f"{what} must be >= 0, got -1" in err


@pytest.fixture
def family_file(tmp_path):
    from rainbowlab.hampow import PowerParams, enumerate_family
    from rainbowlab.hypergraph import format_hypergraph_text

    path = tmp_path / "family.txt"
    path.write_text(format_hypergraph_text(enumerate_family(PowerParams(6, 1)).hypergraph()))
    return str(path)


def test_spread_refuses_n_beside_input(capsys, family_file):
    code, out, err = run_cli(capsys, "spread", "--input", family_file, "--n", "7")
    assert_one_error_line(code, out, err)
    assert "--n does not apply with --input" in err


def test_profile_refuses_n_beside_input(capsys, family_file):
    code, out, err = run_cli(capsys, "profile", "--n", "6", "--k", "2", "--input", family_file, "--kappa", "2")
    assert_one_error_line(code, out, err)
    assert "--n does not apply with --input" in err


# --k and --budget have defaults, so a flag is refused when the command line
# or the config gives it, even at its default value
@pytest.mark.parametrize("flag,value", [("--k", "3"), ("--budget", "5"), ("--k", "1"), ("config", "3")])
def test_spread_refuses_k_and_budget_beside_input(capsys, tmp_path, family_file, flag, value):
    given = [flag, value]
    if flag == "config":
        (tmp_path / "cfg.json").write_text(f'{{"k": {value}}}')
        flag, given = "--k", ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(capsys, "spread", "--input", family_file, *given)
    assert_one_error_line(code, out, err)
    assert f"{flag} does not apply with --input" in err


@pytest.mark.parametrize("flag,value", [("--k", "3"), ("--budget", "5")])
def test_profile_refuses_k_and_budget_beside_input(capsys, family_file, flag, value):
    code, out, err = run_cli(capsys, "profile", "--input", family_file, "--kappa", "2", flag, value)
    assert_one_error_line(code, out, err)
    assert f"{flag} does not apply with --input" in err


# the text route: a family written by `family --write-text` and read back by
# --input answers byte for byte as the --n/--k route does.  A file is never
# marked transitive, so each profile run also checks the one-row shortcut
# against the full pair scan.  (6, 2) has repeated members, kept only under
# labeled-orders.
TEXT_ROUTE = [(n, k, s) for n, k in ((7, 1), (6, 2)) for s in ("distinct-sets", "labeled-orders")]


@pytest.mark.parametrize("n,k,semantics", TEXT_ROUTE, ids=[f"n{n}-k{k}-{s}" for n, k, s in TEXT_ROUTE])
def test_a_written_family_reads_back_through_input(capsys, tmp_path, n, k, semantics):
    nk = ["--n", str(n), "--k", str(k)]
    code, out, err = run_cli(
        capsys, "family", *nk, "--write-text", "--semantics", semantics, "--out-dir", str(tmp_path)
    )
    assert code == 0, err
    path = tmp_path / f"family_n{n}_k{k}.txt"
    assert strict_json(out)["file"] == str(path) and path.is_file()
    for tail in (["spread", "--smax", "2"], ["profile", "--kappa", "2"]):
        command, *rest = tail
        via_file = run_cli(capsys, command, "--input", str(path), "--semantics", semantics, *rest)
        via_nk = run_cli(capsys, command, *nk, "--semantics", semantics, *rest)
        assert via_file[0] == 0, via_file[2]
        assert via_file[:2] == via_nk[:2]


def test_input_with_a_repeated_member_is_refused_under_distinct_sets(capsys, tmp_path):
    path = tmp_path / "twice.txt"
    path.write_text("3 2 2\n0 1\n0 1\n")
    code, out, err = run_cli(capsys, "profile", "--input", str(path), "--kappa", "2")
    assert code == 1 and out == ""
    assert err == "error: invalid family: duplicate edges are not allowed under distinct-sets semantics\n"


@pytest.mark.parametrize(
    "flag,value", [("--n", "8"), ("--m", "20"), ("--q", "9"), ("--seed", "4"), ("--k", "3")]
)
def test_search_refuses_sampling_flags_beside_input(capsys, tmp_path, flag, value):
    from rainbowlab.seeding import make_rng
    from rainbowlab.threshold import sample_instance
    from tests.test_threshold import format_instance_text

    path = tmp_path / "inst.txt"
    path.write_text(format_instance_text(sample_instance(7, 1, 30, 21, make_rng(1))))
    code, out, err = run_cli(capsys, "search", "--input", str(path), flag, value)
    assert_one_error_line(code, out, err)
    assert f"{flag} does not apply with --input" in err


def test_fragment_refuses_omega_beside_sweep(capsys):
    code, out, err = run_cli(
        capsys, "fragment", "--n", "7", "--q", "9", "--sweep", "1,2", "--sweep-trials", "5",
        "--seed", "3", "--omega", "3",
    )
    assert_one_error_line(code, out, err)
    assert "--omega does not apply with --sweep" in err


# a flag whose mode is off, given on the command line (even at its default)
# or by a config; the same run without it exits 0
FRAGMENT_ONCE = ["fragment", "--n", "7", "--q", "9", "--seed", "3"]
EXACT_MOMENTS = ["moments", "--n", "5", "--q", "6", "--trials", "0"]
IGNORED_FLAGS = [
    (FRAGMENT_ONCE, ["--sweep-trials", "5"], "--sweep-trials does not apply without --sweep"),
    (FRAGMENT_ONCE, {"sweep_trials": 5}, "--sweep-trials does not apply without --sweep"),
    (EXACT_MOMENTS, ["--seed", "4"], "--seed does not apply with --trials 0"),
    (EXACT_MOMENTS, {"seed": 4}, "--seed does not apply with --trials 0"),
    (EXACT_MOMENTS, ["--epsilon1", "3"], "--epsilon1 does not apply with --q"),
    (EXACT_MOMENTS, ["--epsilon1", "0.1"], "--epsilon1 does not apply with --q"),
    (EXACT_MOMENTS, {"epsilon1": 3}, "--epsilon1 does not apply with --q"),
]


@pytest.mark.parametrize(
    "argv,given,named", IGNORED_FLAGS, ids=[f"{a[0]} {json.dumps(g)}" for a, g, _ in IGNORED_FLAGS]
)
def test_an_ignored_flag_is_named(capsys, tmp_path, argv, given, named):
    if isinstance(given, dict):
        (tmp_path / "cfg.json").write_text(json.dumps(given))
        given = ["--config", str(tmp_path / "cfg.json")]
    code, out, err = run_cli(capsys, *argv, *given)
    assert_one_error_line(code, out, err)
    assert named in err
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err


# for each mode of the table, a command line that turns it on and gives every
# flag it needs; no file named here exists, since the check runs first
MODE_ON = {
    ("family", "without --write-text"): ["--n", "5"],
    ("spread", "in spread, which writes no report"): ["--n", "5"],
    ("spread", "with --input"): ["--input", "family.txt"],
    ("profile", "with --input"): ["--input", "family.txt", "--kappa", "2"],
    ("audit-prop2", "in reading (a)"): ["--n", "9"],
    ("audit-prop2", "in reading (b), which takes n from --n-min to --n-max"): ["--reading", "b"],
    ("moments", "with --trials 0"): ["--n", "5", "--trials", "0"],
    ("moments", "with --q"): ["--n", "5", "--q", "6"],
    ("fragment", "with --sweep"): ["--n", "7", "--sweep", "1,2"],
    ("fragment", "without --sweep"): ["--n", "7"],
    ("threshold", "with --c-grid"): ["--n", "6", "--c-grid", "1"],
    ("threshold", "without --c-grid"): ["--n", "6", "--m-grid", "3"],
    ("search", "in search, which writes no report"): ["--n", "8", "--m", "20"],
    ("search", "with --input"): ["--input", "inst.txt"],
    ("search", "without --input"): ["--n", "8", "--m", "20"],
    ("report", "in report"): ["--input", "summary.json"],
}

# a value off its default for each flag that a mode leaves unread
OFF_DEFAULT = {
    "--semantics": "labeled-orders", "--out-dir": "elsewhere", "--n": 8, "--k": 2, "--budget": 5,
    "--n-min": 5, "--n-max": 6, "--seed": 4, "--epsilon1": 0.2, "--omega": 3, "--mode": "staged",
    "--sweep-trials": 5, "--m": 20, "--q": 9, "--m-grid": "3",
}
UNREAD = [(mode, flag) for mode in MODES for flag in mode.unread]
NEEDED = [(mode, flag) for mode in MODES for flag in mode.needs]


def test_every_mode_has_a_command_line():
    assert set(MODE_ON) == {(mode.command, mode.phrase) for mode in MODES}
    assert {flag for _, flag in UNREAD} == set(OFF_DEFAULT)


@pytest.mark.parametrize("source", ["command line", "config"])
@pytest.mark.parametrize("mode,flag", UNREAD, ids=[f"{m.command} {f} {m.phrase}" for m, f in UNREAD])
def test_the_table_refuses_each_unread_flag(capsys, tmp_path, monkeypatch, mode, flag, source):
    # on the command line at its default value where it has one; a config
    # counts only when it moves the flag off its default
    monkeypatch.chdir(tmp_path)
    default = next(a.default for a in build_parser()[1][mode.command]._actions if flag in a.option_strings)
    if source == "config":
        (tmp_path / "cfg.json").write_text(json.dumps({flag[2:]: OFF_DEFAULT[flag]}))
        given = ["--config", str(tmp_path / "cfg.json")]
    else:
        given = [flag, str(default if default is not None else OFF_DEFAULT[flag])]
    code, out, err = run_cli(capsys, mode.command, *MODE_ON[mode.command, mode.phrase], *given)
    assert_one_error_line(code, out, err)
    assert f"{flag} does not apply {mode.phrase}" in err


@pytest.mark.parametrize("mode,flag", NEEDED, ids=[f"{m.command} {f} {m.phrase}" for m, f in NEEDED])
def test_the_table_requires_each_needed_flag(capsys, mode, flag):
    argv = MODE_ON[mode.command, mode.phrase]
    at = argv.index(flag)
    code, out, err = run_cli(capsys, mode.command, *argv[:at], *argv[at + 2:])
    assert_one_error_line(code, out, err)
    assert f"{flag} is required {mode.phrase} (as a flag or a config key)" in err


# every command with --n needs it, unless a mode that is on leaves it unread
# (a file given with --input, reading (b)); MODE_ON runs those without --n
WITH_N = sorted(name for name, p in build_parser()[1].items() if "--n" in p._option_string_actions)


@pytest.mark.parametrize("name", WITH_N)
def test_every_command_with_n_requires_it(capsys, name):
    code, out, err = run_cli(capsys, name)
    assert_one_error_line(code, out, err)
    where = "without --input" if name in ("spread", "profile", "search") else f"in {name}"
    assert f"--n is required {where} (as a flag or a config key)" in err


# a flag counts as given however argparse lets it be spelled
SPELLINGS = [
    (EXACT_MOMENTS + ["--see", "4"], "--seed does not apply with --trials 0"),
    (EXACT_MOMENTS + ["--epsilon1=0.1"], "--epsilon1 does not apply with --q"),
    (FRAGMENT_ONCE + ["--sweep-tr=100"], "--sweep-trials does not apply without --sweep"),
]


@pytest.mark.parametrize("argv,named", SPELLINGS, ids=[argv[-1] for argv, _ in SPELLINGS])
def test_an_abbreviated_or_joined_flag_is_given(capsys, argv, named):
    code, out, err = run_cli(capsys, *argv)
    assert_one_error_line(code, out, err)
    assert named in err


# one refused run per command, each with --out-dir: the check runs before
# the handler, so nothing is printed, read or written
REFUSED_RUNS = {
    "family": ["--n", "5", "--semantics", "labeled-orders"],
    "spread": ["--n", "6"],
    "profile": ["--input", "family.txt"],
    "audit-prop1": ["--k", "2"],
    "audit-prop2": ["--reading", "b", "--n", "30"],
    "audit-chain": ["--k", "2"],
    "moments": ["--n", "5", "--q", "6", "--trials", "0", "--seed", "4"],
    "fragment": ["--n", "7", "--sweep", "1,2", "--omega", "3"],
    "threshold": ["--m-grid", "10"],
    "search": ["--n", "8", "--m", "20", "--seed", "1"],
    "report": ["--no-svg"],
}


@pytest.mark.parametrize("name", sorted(build_parser()[1]))
def test_a_refused_run_does_no_work(capsys, tmp_path, name):
    code, out, err = run_cli(capsys, name, *REFUSED_RUNS[name], "--out-dir", str(tmp_path / "D"))
    assert_one_error_line(code, out, err)
    assert not (tmp_path / "D").exists()


@pytest.mark.parametrize(
    "header,named",
    [
        ("5 0 3", "power k must be >= 1, got 0"),
        ("5 2 3", "need n >= 2k+2 = 6 so the power is not complete, got n=5"),
        ("5 1 0", "palette size q must be >= 1, got 0"),
    ],
)
def test_search_input_names_bad_instance_parameters(capsys, tmp_path, header, named):
    path = tmp_path / "inst.txt"
    path.write_text(header + "\n")
    code, out, err = run_cli(capsys, "search", "--input", str(path))
    assert_one_error_line(code, out, err)
    assert f"invalid instance: {named}" in err


EMPTY_LISTS = [
    (["fragment", "--n", "6", "--seed", "1"], "--sweep"),
    (["threshold", "--n", "6", "--m-grid", "10", "--trials", "1", "--seed", "1"], "--c-grid"),
]


@pytest.mark.parametrize("argv,flag", EMPTY_LISTS, ids=[flag for _, flag in EMPTY_LISTS])
def test_an_empty_list_is_refused_by_flag_and_by_config(capsys, tmp_path, argv, flag):
    out_dir = ["--out-dir", str(tmp_path / "out")]
    code, out, err = run_cli(capsys, *argv, flag, "", *out_dir)
    assert code == 2 and out == ""
    assert f"argument {flag}: expected comma-separated" in err
    key = flag[2:].replace("-", "_")
    (tmp_path / "cfg.json").write_text(json.dumps({key: []}))
    code, out, err = run_cli(capsys, *argv, "--config", str(tmp_path / "cfg.json"), *out_dir)
    assert_one_error_line(code, out, err)
    assert f"config key '{key}': expected comma-separated" in err
    assert not (tmp_path / "out").exists()


# every subcommand that prints JSON, at a small size, with the exit code it
# must give; stdout must parse without the NaN and Infinity extensions, and a
# non-finite kappa is refused rather than printed
JSON_RUNS = [
    (["family", "--n", "5"], 0),
    (["profile", "--n", "5"], 0),
    (["profile", "--n", "5", "--kappa", "2.5"], 0),
    (["profile", "--n", "5", "--kappa", "nan"], 1),
    (["profile", "--n", "5", "--kappa", "inf"], 1),
    (["audit-prop1", "--n", "8", "--k", "1"], 0),
    (["audit-prop2", "--reading", "a", "--n", "9", "--k", "1"], 0),
    (["audit-prop2", "--reading", "b", "--k", "1", "--n-min", "20", "--n-max", "23"], 0),
    (["audit-chain", "--n", "7", "--k", "1"], 0),
    (["moments", "--n", "5", "--k", "1", "--q", "6", "--trials", "200", "--seed", "3"], 0),
    (["fragment", "--n", "7", "--k", "1", "--q", "9", "--C", "4", "--seed", "3"], 0),
    (["fragment", "--n", "7", "--k", "1", "--q", "9", "--sweep", "1,2", "--sweep-trials", "5", "--seed", "3"], 0),
]


@pytest.mark.parametrize("argv,want", JSON_RUNS, ids=[" ".join(argv) for argv, _ in JSON_RUNS])
def test_json_output_parses_strictly(capsys, argv, want):
    code, out, err = run_cli(capsys, *argv)
    data = strict_json(out) if out else None
    if want:
        assert_one_error_line(code, out, err)
    else:
        assert code == 0, err
        assert isinstance(data, dict)


# stdout of small runs of the commands that read a power family's views,
# rainbow subfamilies or Monte Carlo colorings, and of audits that walk
# classes of member subgraphs past enumeration, pinned byte for byte
CLI_DIGESTS = {
    "profile --n 7 --k 1": "8f071fa3b9d1462237a8f3c903b4917dbb4846102720fc1bd241160bbec9dbd5",
    "profile --n 7 --k 2 --semantics labeled-orders": "c28b0dbd70e103baf1844e5086cb0162602efd6bb03fc92b8d989d0346c6b5a2",
    "moments --n 7 --k 2 --semantics labeled-orders --trials 0": "9e9244f14e0c02dae88a3c558221302d1b354f46f91f72a9d6d96dd3b45316bd",
    "moments --n 6 --k 1 --q 7 --trials 3000 --seed 3": "79b0486ee49c596a89d8283ec4b4ed1bf99f58404e3b2b1b9a0fa41b31e7ed6f",
    "audit-chain --n 9 --k 1": "baa5617884aba665c844d5877a31ca9076dc77fbc16ec82f5cee97be9f0ff594",
    "audit-chain --n 8 --k 2": "001cd4e2c0ca978d917f5dbc17f7b147e7271020a9bf68a1ccee48005837bfa1",
    "audit-prop1 --n 20 --k 1": "1dd6c450f9ab0917a77c804797ef299e249b97d4332f5e5dfb4c472cdc1758ee",
    "audit-prop1 --n 17 --k 2": "5589fb0af084666d6d01e869d49ad918d671d615af452065e9801ced7daa8d8d",
    "audit-prop2 --n 18 --k 1": "ddee9395614f631b01f68fa5be2efd8d2f8b3c5bd15f55a20aed47d2a21842d2",
    "spread --n 7 --k 2 --smax 2": "2d06a61a542d4e66fac07adcfd72f2ce3e3beee939309b76261a5b9276e46a3a",
    "fragment --n 7 --k 1 --mode staged": "abf7bfacc267c802f6049e4b2218e4b0e56801e7f3001f4493f6f8152cd1860a",
    "fragment --n 7 --k 1 --sweep 1,2,3 --sweep-trials 50": "50c557429e6ac49188755977b5666a5573740b2dec07832a953257eb3bd5ab04",
    "fragment --n 8 --k 1 --C 4 --sweep 1,2,3,4,5,6,7 --sweep-trials 100 --seed 3": "93e0213ebba6d277a09e2d8152ae06bd127ad02e9cd2791ec0a4cecb1868223f",
    "fragment --n 8 --k 2 --C 3 --sweep 2,4,6,8,10,12 --sweep-trials 100 --seed 3": "00ceea37602a5f9b700614871eab071038e6ce06e44d036d581cad30db73a9c3",
    "fragment --n 9 --k 1 --C 3 --sweep 1,2,3,4 --sweep-trials 60 --seed 3": "fdc3f840f78bee12173af2ccc13033cfddb342261a8f627f487132ebc0d5ca7d",
    # about 260 rainbow members per trial, so ties between minimum fragments occur
    "fragment --n 10 --k 1 --C 4 --sweep 1,2,3,4 --sweep-trials 20 --seed 3": "704db6ffda5f554fb633e6f48f19f240dd59bccbb6bc23b555004a2d3bcc090d",
    "fragment --n 7 --k 1 --q 9 --C 4 --epsilon1 0.5 --sweep 1,2,3 --sweep-trials 20 --seed 3": "8727c9d2c6dc37aff79dd3d1d773d34b60044f168eed84d1f0192d85f455e076",
}


@pytest.mark.parametrize("command", CLI_DIGESTS)
def test_cli_stdout_digests(capsys, command):
    code, out, err = run_cli(capsys, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == CLI_DIGESTS[command]


def test_audit_chain_exact_ratios_by_hand(capsys):
    # f_t / |H|: the share of the 360 orders of [7] whose power meets the
    # identity cycle in exactly t edges, counted over raw permutations
    from tests.test_hampow import itertools_orders, power_edge_set

    code, out, err = run_cli(capsys, "audit-chain", "--n", "7", "--k", "1")
    assert code == 0, err
    base = set(power_edge_set(tuple(range(7)), 1))
    meets = Counter(len(base & set(power_edge_set(o, 1))) for o in itertools_orders(7))
    rows = strict_json(out)["rows"]
    assert [row["t"] for row in rows] == [1, 2]
    for row in rows:
        assert row["exact_ratio"] == pytest.approx(meets[row["t"]] / 360)


def test_audit_chain_takes_one_profile_row(capsys, monkeypatch):
    # every t reads the same labeled-orders profile row, scanned once; the
    # name is counted in each module that has called it
    from rainbowlab import hypergraph

    calls = []

    def counting(hg, base):
        calls.append(base)
        return hypergraph.intersection_profile(hg, base)

    for module in ("rainbowlab.cli", "rainbowlab.hampow"):
        monkeypatch.setattr(f"{module}.intersection_profile", counting, raising=False)
    code, out, err = run_cli(capsys, "audit-chain", "--n", "9", "--k", "1")
    assert code == 0, err
    assert len(strict_json(out)["rows"]) == 3
    assert calls == [0]


@pytest.mark.parametrize("budget,enumerates", [(0, False), (20159, False), (20160, True)])
def test_audit_chain_exact_ratios_need_the_whole_family(capsys, monkeypatch, budget, enumerates):
    # [9] has 8!/2 = 20160 canonical orders: one fewer in the budget and no
    # order is enumerated, no profile is taken, and every exact ratio is null
    from rainbowlab import hypergraph

    calls = []

    def counting(hg, base):
        calls.append(base)
        return hypergraph.intersection_profile(hg, base)

    monkeypatch.setattr("rainbowlab.cli.intersection_profile", counting)
    code, out, err = run_cli(capsys, "audit-chain", "--n", "9", "--k", "1", "--budget", str(budget))
    assert code == 0, err
    ratios = [row["exact_ratio"] for row in strict_json(out)["rows"]]
    assert len(ratios) == 3
    assert calls == ([0] if enumerates else [])
    assert [r is None for r in ratios] == [not enumerates] * 3


def test_audit_chain_past_the_enumeration_kernel_is_null(capsys):
    # n = 17 cannot be enumerated whatever the budget, so the ratios are null
    code, out, err = run_cli(capsys, "audit-chain", "--n", "17", "--k", "1", "--budget", str(10**14))
    assert code == 0, err
    assert [row["exact_ratio"] for row in strict_json(out)["rows"]] == [None] * 5


def test_audit_chain_below_one_subgraph_size_is_empty(capsys):
    # n/3k < 1 admits no t; like audit-prop1, the default range is empty
    code, out, err = run_cli(capsys, "audit-chain", "--n", "8", "--k", "3")
    assert code == 0, err
    assert strict_json(out) == {"k": 3, "n": 8, "rows": []}


def test_audit_chain_t_max_below_one_subgraph_size_names_the_ratio(capsys):
    code, out, err = run_cli(capsys, "audit-chain", "--n", "8", "--k", "3", "--t-max", "1")
    assert_one_error_line(code, out, err)
    assert "n/3k < 1" in err and "1..0" not in err


def test_search_budget_exhaustion_exits_3(capsys):
    code, out, _ = run_cli(
        capsys, "search", "--n", "12", "--k", "2", "--m", "66",
        "--seed", "2", "--budget", "3",
    )
    assert code == 3
    assert "unknown" in out


def test_help_exits_zero(capsys):
    assert main(["spread", "--help"]) == 0
    capsys.readouterr()


# ----------------------------------------------------------------------------
# config merging

def test_config_supplies_defaults_and_flags_override(capsys, tmp_path):
    cfg = tmp_path / "grid.json"
    cfg.write_text(json.dumps({
        "n": 6, "k": 1, "q": 8, "m_grid": [6, 10], "trials": 6, "seed": 2,
        "budget": 200,
    }))
    out1 = tmp_path / "a"
    code, _, _ = run_cli(capsys, "threshold", "--config", str(cfg), "--out-dir", str(out1))
    assert code == 0
    rows = strict_json((out1 / "summary.json").read_text())["rows"]
    assert [r["trials"] for r in rows] == [6, 6]

    out2 = tmp_path / "b"
    code, _, _ = run_cli(
        capsys, "threshold", "--config", str(cfg), "--out-dir", str(out2),
        "--trials", "3",
    )
    assert code == 0
    rows = strict_json((out2 / "summary.json").read_text())["rows"]
    assert [r["trials"] for r in rows] == [3, 3]


CONFIG_REPROS = [
    (["audit-prop1"], {"n": 7.5}, "'n'"),
    (["audit-prop1"], {"n": [7]}, "'n'"),
    (["audit-prop1"], {"n": 7, "k": 1.0}, "'k'"),
    # an integer flag takes a JSON integer, as `--budget 1e6` is refused
    (["audit-prop1"], {"n": 7, "budget": 1e6}, "'budget'"),
    (["threshold", "--seed", "1", "--trials", "2"], {"n": 6, "c_grid": 1}, "'c_grid'"),
    (["threshold", "--seed", "1", "--trials", "2"], {"n": 6, "c_grid": [True]}, "'c_grid'"),
    (["threshold", "--seed", "1", "--trials", "2"], {"n": 6, "m_grid": "6,x"}, "'m_grid'"),
    (["audit-prop2"], {"n": 7, "reading": "c"}, "'reading'"),
    (["fragment", "--seed", "1"], {"n": 7, "mode": 3}, "'mode'"),
    (["family"], {"n": 6, "semantics": None, "out_dir": 5}, "'out_dir'"),
    (["threshold", "--seed", "1", "--trials", "2", "--c-grid", "1"], {"n": 6, "no_svg": "no"}, "'no_svg'"),
    # a wrong-reading flag from the config is refused as on the command line
    (["audit-prop2"], {"n": 7, "n_min": 30}, "--n-min"),
    (["audit-prop2", "--reading", "b"], {"budget": 5}, "--budget"),
]


@pytest.mark.parametrize("argv,config,named", CONFIG_REPROS, ids=[json.dumps(c) for _, c, _ in CONFIG_REPROS])
def test_config_values_get_the_flag_checks(capsys, tmp_path, argv, config, named):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, *argv, "--config", str(cfg), "--out-dir", str(tmp_path / "out"))
    assert_one_error_line(code, out, err)
    assert named in err
    assert not (tmp_path / "out").exists()


def test_config_matches_the_command_line_spelling(capsys, tmp_path):
    # a list as JSON or as the comma string, numbers through the flag's type
    grid = ["threshold", "--n", "6", "--q", "8", "--trials", "3", "--seed", "2"]
    files = []
    for i, c_grid in enumerate([None, [1, 2.5], "1,2.5"]):
        if c_grid is None:
            extra = ["--c-grid", "1,2.5"]
        else:
            cfg = tmp_path / f"c{i}.json"
            cfg.write_text(json.dumps({"c_grid": c_grid}))
            extra = ["--config", str(cfg)]
        code, _, err = run_cli(capsys, *grid, *extra, "--out-dir", str(tmp_path / str(i)))
        assert code == 0, err
        files.append({p.name: p.read_bytes() for p in (tmp_path / str(i)).iterdir()})
    assert files[0] == files[1] == files[2]


def _grid_summary(capsys, tmp_path):
    grid = tmp_path / "grid"
    code, _, err = run_cli(
        capsys, "threshold", "--n", "6", "--q", "8", "--m-grid", "6,10",
        "--trials", "4", "--seed", "2", "--out-dir", str(grid),
    )
    assert code == 0, err
    return str(grid / "summary.json")


def test_report_takes_input_from_the_config(capsys, tmp_path):
    summary = _grid_summary(capsys, tmp_path)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"input": summary}))
    code, _, err = run_cli(capsys, "report", "--config", str(cfg), "--out-dir", str(tmp_path / "a"))
    assert code == 0, err
    assert (tmp_path / "a" / "results.csv").read_bytes() == (tmp_path / "grid" / "results.csv").read_bytes()
    code, out, err = run_cli(capsys, "report", "--out-dir", str(tmp_path / "b"))
    assert_one_error_line(code, out, err)
    assert "--input" in err


SMALL_RUNS = {
    "family": ["--n", "6"],
    "spread": ["--n", "5", "--smax", "2"],
    "profile": ["--n", "5"],
    "audit-prop1": ["--n", "8"],
    "audit-prop2": ["--n", "9"],
    "audit-chain": ["--n", "7"],
    "moments": ["--n", "5", "--q", "6", "--trials", "200", "--seed", "3"],
    "fragment": ["--n", "7", "--q", "9", "--C", "4", "--seed", "3"],
    "threshold": ["--n", "6", "--q", "8", "--m-grid", "6,10", "--trials", "4", "--seed", "2"],
    "search": ["--n", "7", "--m", "21", "--seed", "1"],
    "report": [],
}


@pytest.mark.parametrize("name", sorted(build_parser()[1]))
def test_config_of_every_default_changes_no_output(capsys, tmp_path, name):
    sub = build_parser()[1][name]
    defaults = {a.dest: a.default for a in sub._actions if a.dest not in ("help", "config")}
    cfg = tmp_path / "defaults.json"
    cfg.write_text(json.dumps(defaults))
    argv = [name, *SMALL_RUNS[name]]
    if name == "report":
        argv += ["--input", _grid_summary(capsys, tmp_path)]
    outputs = []
    for i, extra in enumerate([[], ["--config", str(cfg)]]):
        out_dir = tmp_path / f"out{i}"
        # spread and search write no report, so they refuse --out-dir
        if name not in ("spread", "search"):
            extra = [*extra, "--out-dir", str(out_dir)]
        code, out, err = run_cli(capsys, *argv, *extra)
        assert code == 0, err
        files = {p.name: p.read_bytes() for p in out_dir.iterdir()} if out_dir.exists() else {}
        outputs.append((out, files))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] or outputs[0][1]


def test_seed_fallback_is_announced(capsys):
    code, out, err = run_cli(capsys, "moments", "--n", "5", "--k", "1",
                             "--q", "6", "--trials", "50")
    assert code == 0
    assert str(DEFAULT_SEED) in err
    assert strict_json(out)["seed"] == DEFAULT_SEED


# runs without --seed that a value check refuses once the handler has begun
SEEDLESS_REFUSALS = [
    ["moments", "--n", "5", "--k", "1", "--q", "0", "--trials", "5"],
    ["threshold", "--n", "6", "--k", "1", "--m-grid", "8", "--trials", "2", "--workers", "0"],
    ["threshold", "--n", "6", "--k", "1", "--m-grid", "8", "--trials", "0"],
    ["fragment", "--n", "6", "--sweep", "0"],
    ["search", "--n", "6", "--k", "1", "--m", "15", "--q", "0"],
]


@pytest.mark.parametrize("argv", SEEDLESS_REFUSALS, ids=" ".join)
def test_a_refused_run_announces_no_seed(capsys, tmp_path, argv):
    extra = [] if argv[0] == "search" else ["--out-dir", str(tmp_path / "D")]
    code, out, err = run_cli(capsys, *argv, *extra)
    assert (code, out) == (1, "")
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert not (tmp_path / "D").exists()


def test_exact_moments_need_no_seed(capsys):
    code, out, err = run_cli(capsys, "moments", "--n", "5", "--k", "1",
                             "--q", "6", "--trials", "0")
    assert code == 0
    assert err == ""
    assert "seed" not in strict_json(out)


def test_power_family_moments_and_profile_answer_at_n9(capsys):
    # one base row of 20,160 pairs, where every pair (406,425,600) was over
    # the default 4M pair budget
    code, out, _ = run_cli(capsys, "moments", "--n", "9", "--k", "1", "--q", "12", "--trials", "0")
    assert code == 0
    data = strict_json(out)
    assert data["M"] == 20160
    assert data["E_Z_exact"] == "67375/216"  # 20160 (12)_9 / 12^9
    code, out, _ = run_cli(capsys, "profile", "--n", "9", "--k", "1")
    assert code == 0
    fmax = strict_json(out)["fmax"]
    assert sum(fmax) == 20160 and fmax[9] == 1


def test_explicit_seed_is_not_announced(capsys):
    _, out, err = run_cli(capsys, "moments", "--n", "5", "--k", "1",
                          "--q", "6", "--trials", "50", "--seed", "4")
    assert str(DEFAULT_SEED) not in err
    assert strict_json(out)["seed"] == 4


# ----------------------------------------------------------------------------
# outputs

def test_logs_go_to_stderr_and_json_to_stdout(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "threshold", "--n", "6", "--k", "1", "--q", "8",
        "--m-grid", "6", "--trials", "2", "--seed", "1",
        "--out-dir", str(tmp_path / "o"),
    )
    assert code == 0
    assert out == ""  # files are the primary output here
    assert "results.csv" in err


def test_out_dir_receives_json_copy(capsys, tmp_path):
    code, out, _ = run_cli(capsys, "family", "--n", "5", "--out-dir", str(tmp_path))
    assert code == 0
    copied = strict_json((tmp_path / "family_n5_k1.json").read_text())
    assert copied == strict_json(out)
    assert copied["orders"] == 12


def test_identical_invocations_produce_identical_bytes(capsys):
    argv = ["moments", "--n", "5", "--k", "1", "--q", "6", "--trials", "200", "--seed", "9"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2


def test_report_round_trips_grid_outputs(capsys, tmp_path):
    first = tmp_path / "first"
    code, _, _ = run_cli(
        capsys, "threshold", "--n", "6", "--k", "1", "--q", "8",
        "--m-grid", "6,10", "--trials", "4", "--seed", "2", "--out-dir", str(first),
    )
    assert code == 0
    second = tmp_path / "second"
    code, _, _ = run_cli(
        capsys, "report", "--input", str(first / "summary.json"), "--out-dir", str(second),
    )
    assert code == 0
    assert (second / "results.csv").read_bytes() == (first / "results.csv").read_bytes()


def report_error(capsys, tmp_path, summary):
    path = tmp_path / "summary.json"
    path.write_text(json.dumps(summary))
    code, out, err = run_cli(
        capsys, "report", "--input", str(path), "--out-dir", str(tmp_path / "out")
    )
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error:")
    return err


GRID_ROW = {
    "n": 6, "k": 1, "q": 8, "m": 6, "C": 0.5, "trials": 4, "decided": 4,
    "successes": 0, "unknown": 0, "mean_nodes": 0.0, "mean_ms": 0.0, "seed": 2,
}


def test_report_names_a_missing_field(capsys, tmp_path):
    row = {key: value for key, value in GRID_ROW.items() if key != "k"}
    assert "missing field 'k'" in report_error(capsys, tmp_path, {"rows": [row]})
    assert "missing field 'rows'" in report_error(capsys, tmp_path, {"config": {}})


def test_report_names_a_mistyped_field(capsys, tmp_path):
    err = report_error(capsys, tmp_path, {"rows": [dict(GRID_ROW, decided="10")]})
    assert "row 0 field 'decided' must be int, got str" in err
    err = report_error(capsys, tmp_path, {"rows": [[1, 2]]})
    assert "row 0 must be a JSON object, got list" in err
    assert "missing" not in err


def test_report_of_no_rows_is_refused_and_writes_nothing(capsys, tmp_path):
    assert report_error(capsys, tmp_path, {"rows": []}) == "error: no results to report\n"
    assert not (tmp_path / "out").exists()


def test_a_grid_of_budget_exits_draws_no_curve(capsys, tmp_path):
    # one node per search decides none of the three trials
    code, _, err = run_cli(
        capsys, "threshold", "--n", "8", "--k", "1", "--m-grid", "28", "--trials", "3",
        "--budget", "1", "--seed", "1", "--out-dir", str(tmp_path),
    )
    assert code == 0, err
    header, row = (tmp_path / "results.csv").read_text().splitlines()
    cells = dict(zip(header.split(","), row.split(",")))
    assert cells["decided"] == "0" and cells["unknown"] == "3"
    assert cells["rate"] == cells["wilson_lo"] == cells["wilson_hi"] == ""
    svg = (tmp_path / "curves.svg").read_text()
    assert "<svg" in svg and "<polyline" not in svg and "<circle" not in svg


def test_fragment_sweep_reports_rates_and_fit(capsys):
    code, out, _ = run_cli(
        capsys, "fragment", "--n", "7", "--k", "1", "--q", "9", "--C", "4",
        "--epsilon1", "0.5", "--sweep", "1,2,3",
        "--sweep-trials", "20", "--seed", "3",
    )
    assert code == 0
    data = strict_json(out)
    assert [row["omega"] for row in data["rows"]] == [1, 2, 3]
    assert all(0.0 <= row["failure_rate"] <= 1.0 for row in data["rows"])
    assert "fit" in data


def test_search_reads_instance_files(capsys, tmp_path):
    from rainbowlab.seeding import make_rng
    from rainbowlab.threshold import sample_instance
    from tests.test_threshold import format_instance_text

    inst = sample_instance(7, 1, 30, 21, make_rng(1))
    path = tmp_path / "inst.txt"
    path.write_text(format_instance_text(inst))
    code, out, _ = run_cli(capsys, "search", "--input", str(path))
    assert code == 0
    assert out.splitlines()[0] == "verdict: found"
    assert out.splitlines()[2].startswith("witness: 0 ")


# ----------------------------------------------------------------------------
# help surface

def test_flag_snapshot_matches():
    import argparse

    _, registry = build_parser()
    snap = strict_json((DATA / "cli_flags.json").read_text())
    got = {}
    for name, sub in registry.items():
        flags = {}
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            flags[action.option_strings[0]] = repr(action.default)
        got[name] = flags
    assert got == snap


def test_every_flag_is_listed_in_help_with_default():
    import argparse

    _, registry = build_parser()
    for name, sub in registry.items():
        text = sub.format_help()
        assert "(default:" in text
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            assert action.option_strings[0] in text
            assert action.help, f"{name} {action.option_strings[0]} lacks help text"


def test_console_entry_point_works():
    proc = subprocess.run(
        [sys.executable, "-m", "rainbowlab.cli", "spread", "--n", "5", "--k", "1"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "kappa_s = 2"
