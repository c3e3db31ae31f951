"""Command-line behavior: exit codes, config merging, output bytes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from rainbowlab.cli import DEFAULT_SEED, build_parser, main

DATA = Path(__file__).parent / "data"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
    rows = json.loads((out1 / "summary.json").read_text())["rows"]
    assert [r["trials"] for r in rows] == [6, 6]

    out2 = tmp_path / "b"
    code, _, _ = run_cli(
        capsys, "threshold", "--config", str(cfg), "--out-dir", str(out2),
        "--trials", "3",
    )
    assert code == 0
    rows = json.loads((out2 / "summary.json").read_text())["rows"]
    assert [r["trials"] for r in rows] == [3, 3]


def test_seed_fallback_is_announced(capsys):
    code, out, err = run_cli(capsys, "moments", "--n", "5", "--k", "1",
                             "--q", "6", "--trials", "50")
    assert code == 0
    assert str(DEFAULT_SEED) in err
    assert json.loads(out)["seed"] == DEFAULT_SEED


def test_explicit_seed_is_not_announced(capsys):
    _, out, err = run_cli(capsys, "moments", "--n", "5", "--k", "1",
                          "--q", "6", "--trials", "50", "--seed", "4")
    assert str(DEFAULT_SEED) not in err
    assert json.loads(out)["seed"] == 4


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
    copied = json.loads((tmp_path / "family_n5_k1.json").read_text())
    assert copied == json.loads(out)
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


def test_fragment_sweep_reports_rates_and_fit(capsys):
    code, out, _ = run_cli(
        capsys, "fragment", "--n", "7", "--k", "1", "--q", "9", "--C", "4",
        "--epsilon1", "0.5", "--mode", "staged", "--sweep", "1,2,3",
        "--sweep-trials", "20", "--seed", "3",
    )
    assert code == 0
    data = json.loads(out)
    assert [row["omega"] for row in data["rows"]] == [1, 2, 3]
    assert all(0.0 <= row["failure_rate"] <= 1.0 for row in data["rows"])
    assert "fit" in data


def test_search_reads_instance_files(capsys, tmp_path):
    from rainbowlab.seeding import make_rng
    from rainbowlab.threshold import format_instance_text, sample_instance

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
    snap = json.loads((DATA / "cli_flags.json").read_text())
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
