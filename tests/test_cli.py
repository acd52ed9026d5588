"""Command-line interface: subcommands, flags from a file, exit codes, CSV out."""

import csv
import io
import os
import subprocess
import sys
import types
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from nldemix import cli, harness
from nldemix.cli import main
from nldemix.diagnostics import cross_coherence, mutual_coherence
from nldemix.harness import TrialSpec
from nldemix.measurement import sample_operator
from nldemix.solvers import SolverConfig
from nldemix.transforms import Basis, Dictionary

FAST_TRIAL = [
    "--n", "128", "--s", "3", "--m", "160", "--algorithm", "oneshot",
    "--seed", "42",
]


PHASE_FLAGS = ["--n", "64", "--algorithm", "oneshot", "--s-list", "2", "--m-list", "60",
               "--trials", "1"]


# Each list setting: its command, the flags it is given after, and its flag.
LIST_SETTINGS = {
    "s_list": ("phase", PHASE_FLAGS, "--s-list"),
    "m_list": ("phase", PHASE_FLAGS, "--m-list"),
    "algorithms": ("bench", ["--n", "64", "--s", "2", "--m", "60", "--repeats", "1"],
                   "--algorithms"),
}
DISTINCT = "must be distinct and non-empty, got"
UNKNOWN_OMP = "unknown algorithm 'omp'; expected one of ('oneshot', 'dht', 'dst', 'nlcdlasso')"
# id: (key, flag text, message).
LIST_RULE = {
    "s_list-flag-repeat": ("s_list", "2,2", f"s_values {DISTINCT} [2, 2]; entry 1 repeats entry 0"),
    "m_list-flag-repeat": ("m_list", "60,80,60",
                           f"m_values {DISTINCT} [60, 80, 60]; entry 2 repeats entry 0"),
    "algorithms-flag-repeat": ("algorithms", "dht,dht",
                               f"algorithms {DISTINCT} ['dht', 'dht']; entry 1 repeats entry 0"),
    "algorithms-flag-repeat-spaced": (
        "algorithms", "oneshot, dht,oneshot",
        f"algorithms {DISTINCT} ['oneshot', 'dht', 'oneshot']; entry 2 repeats entry 0"),
    "s_list-flag-comma": ("s_list", ",", f"s_values {DISTINCT} []"),
    "m_list-flag-empty": ("m_list", "", f"m_values {DISTINCT} []"),
    "algorithms-flag-comma": ("algorithms", ",", f"algorithms {DISTINCT} []"),
    "algorithms-flag-empty": ("algorithms", "", f"algorithms {DISTINCT} []"),
    "algorithms-flag-unknown": ("algorithms", "omp", UNKNOWN_OMP),
}


def rows_from(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


@pytest.fixture(params=["typed", "file"])
def given(request, tmp_path):
    """Maps a command line to itself, typed, or to its command and an @file
    holding its flags, one per line: a file's flags pass the same checks."""
    def as_given(argv: list[str]) -> list[str]:
        if request.param == "typed":
            return argv
        words = 2 if argv[0] == "diag" else 1
        path = tmp_path / "flags.txt"
        path.write_text("".join(f"{arg}\n" for arg in argv[words:]))
        return [*argv[:words], f"@{path}"]
    return as_given


class TestTrialCommand:
    def test_stdout_csv(self, capsys):
        assert main(["trial", *FAST_TRIAL]) == 0
        out = capsys.readouterr().out
        rows = rows_from(out)
        assert len(rows) == 1
        row = rows[0]
        assert row["algorithm"] == "oneshot"
        assert (int(row["n"]), int(row["s"]), int(row["m"])) == (128, 3, 160)
        assert row["success"] in ("true", "false")
        assert -1.0 <= float(row["cosine"]) <= 1.0

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "trial.csv"
        assert main(["trial", *FAST_TRIAL, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        raw = path.read_bytes()
        assert b"\r" not in raw
        rows = rows_from(raw.decode("utf-8"))
        assert len(rows) == 1

    def test_deterministic_output(self, capsys):
        main(["trial", *FAST_TRIAL])
        first = capsys.readouterr().out
        main(["trial", *FAST_TRIAL])
        second = capsys.readouterr().out
        # wall time varies between runs; everything else must not
        r1 = first.splitlines()[1].split(",")
        r2 = second.splitlines()[1].split(",")
        time_col = first.splitlines()[0].split(",").index("time_ms")
        r1[time_col] = r2[time_col] = ""
        assert r1 == r2

    def test_solver_flags_flow_through(self, capsys):
        args = ["trial", "--n", "128", "--s", "3", "--m", "160",
                "--algorithm", "dht", "--max-iters", "4", "--seed", "1"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert int(row["iters"]) <= 4

    def test_step_size_auto_is_the_default(self, capsys):
        assert main(["trial", *FAST_TRIAL, "--algorithm", "dht"]) == 0
        default = rows_from(capsys.readouterr().out)[0]
        assert main(["trial", *FAST_TRIAL, "--algorithm", "dht", "--step-size", "auto"]) == 0
        auto = rows_from(capsys.readouterr().out)[0]
        assert {**auto, "time_ms": ""} == {**default, "time_ms": ""}

    @pytest.mark.parametrize("text", ["fast", "", "AUTO"])
    def test_step_size_that_is_not_a_number_is_usage_error(self, capsys, given, text):
        assert main(given(["trial", *FAST_TRIAL, "--step-size", text])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"argument --step-size: step size must be a number or 'auto', got {text!r}")

    def test_sign_link_l2_is_nan(self, capsys):
        args = ["trial", "--n", "128", "--s", "2", "--m", "800",
                "--algorithm", "oneshot", "--link", "sign"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert row["l2_err"] == "nan"


class TestPhaseCommand:
    def test_grid_csv(self, capsys):
        args = ["phase", "--n", "128", "--algorithm", "oneshot",
                "--s-list", "2,3", "--m-list", "80,160", "--trials", "2",
                "--seed", "0"]
        assert main(args) == 0
        rows = rows_from(capsys.readouterr().out)
        assert len(rows) == 4
        assert [(int(r["s"]), int(r["m"])) for r in rows] == [
            (2, 80), (2, 160), (3, 80), (3, 160)
        ]
        for r in rows:
            assert int(r["trials"]) == 2
            assert 0 <= int(r["successes"]) <= 2
            assert float(r["prob"]) == int(r["successes"]) / 2.0

    def test_workers_is_a_phase_flag_only(self, capsys):
        assert main(["trial", *FAST_TRIAL, "--workers", "2"]) == 1
        assert "--workers" in capsys.readouterr().err
        args = ["phase", "--n", "128", "--algorithm", "oneshot",
                "--s-list", "2", "--m-list", "80,160", "--trials", "2", "--seed", "0"]
        assert main(args) == 0
        serial = capsys.readouterr().out
        assert main(args + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    @pytest.mark.parametrize("lists, missing", [
        ([], "--s-list, --m-list"),
        (["--s-list", "2"], "--m-list"),
        (["--m-list", "60"], "--s-list"),
    ], ids=["neither", "no-m-list", "no-s-list"])
    def test_missing_lists_is_usage_error(self, capsys, given, lists, missing):
        assert main(given(["phase", "--n", "64", *lists])) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"nldemix phase: error: the following arguments are required: {missing}")

    @pytest.mark.parametrize("flag", ["--s-list", "--m-list"])
    @pytest.mark.parametrize("text", ["2,x", "2.5", "2;3"])
    def test_malformed_list_is_usage_error(self, capsys, given, flag, text):
        lists = {"--s-list": "2", "--m-list": "60", flag: text}
        argv = ["phase", "--n", "64", *(part for item in lists.items() for part in item)]
        assert main(given(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"argument {flag}: expected comma-separated integers, got {text!r}")

    def test_base_spec_comes_from_the_grid(self, capsys):
        # The default s (5) exceeds n here; phase never reads it.
        assert main(["phase", "--n", "4", "--s-list", "1", "--m-list", "10", "--trials", "1"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert [(r["s"], r["m"]) for r in rows_from(captured.out)] == [("1", "10")]


class TestBenchCommand:
    def test_multiple_algorithms(self, capsys):
        args = ["bench", "--n", "128", "--s", "3", "--m", "160",
                "--algorithms", "oneshot,nlcdlasso", "--repeats", "2"]
        assert main(args) == 0
        rows = rows_from(capsys.readouterr().out)
        assert [r["algorithm"] for r in rows] == ["oneshot", "nlcdlasso"]
        for r in rows:
            assert float(r["median_ms"]) > 0
            assert int(r["repeats"]) == 2

    @pytest.mark.parametrize("flags", [
        ["--algorithm", "dht", "--algorithms", "oneshot"],
        ["@{file}", "--algorithms", "oneshot"],
    ], ids=["flags", "file-and-flag"])
    def test_algorithm_and_algorithms_together_is_usage_error(self, tmp_path, capsys, flags):
        path = tmp_path / "flags.txt"
        path.write_text("--algorithm=dht\n")
        argv = ["bench", "--n", "64", "--s", "2", "--m", "60", "--repeats", "1",
                *(flag.format(file=path) for flag in flags)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "nldemix bench: error: bench takes --algorithm or --algorithms, not both")

    def test_default_algorithm_is_the_spec_default(self, capsys):
        # Neither --algorithm nor --algorithms: bench times the algorithm
        # every other command defaults to.
        assert main(["bench", "--n", "64", "--s", "2", "--m", "60", "--repeats", "1"]) == 0
        rows = rows_from(capsys.readouterr().out)
        assert [r["algorithm"] for r in rows] == [TrialSpec().algorithm] == ["dht"]


class TestDiagCommand:
    def test_coherence_matches_library(self, capsys):
        args = ["diag", "coherence", "--n", "64", "--s", "4",
                "--phi", "identity", "--psi", "dct"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        d = Dictionary(Basis("identity", 64), Basis("dct", 64))
        gamma = mutual_coherence(d)
        assert float(row["gamma"]) == pytest.approx(gamma, rel=1e-12)
        assert float(row["epsilon_bound"]) == pytest.approx(4 * gamma, rel=1e-12)
        assert row["vartheta"] == ""

    def test_coherence_includes_vartheta_with_operator(self, capsys):
        args = ["diag", "coherence", "--n", "64", "--s", "4",
                "--ensemble", "gaussian", "--m", "32", "--seed", "7"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        # --seed 7 names the operator that `trial` and `diag rscrss` build.
        problem = harness._build_instance(TrialSpec(n=64, m=32, seed=7))[0]
        assert float(row["vartheta"]) == cross_coherence(problem.A, problem.dictionary)

    @pytest.mark.parametrize("flags, kind, m", [
        (["--ensemble", "rademacher"], "rademacher", TrialSpec().m),
        (["--m", "32"], TrialSpec().ensemble, 32),
    ], ids=["ensemble-alone", "m-alone"])
    def test_coherence_reads_ensemble_or_m_alone(self, capsys, flags, kind, m):
        # Either setting draws the operator; the spec defaults the other.
        assert main(["diag", "coherence", "--n", "64", "--s", "4", *flags]) == 0
        row = rows_from(capsys.readouterr().out)[0]
        d = Dictionary(Basis("identity", 64), Basis("dct", 64))
        A = sample_operator(kind, m, 64, harness.child_seed(TrialSpec().seed, 1))
        assert float(row["vartheta"]) == cross_coherence(A, d)

    @pytest.mark.parametrize("flags, message", [
        (["--ensemble", "subfast"], "subfast requires m <= n, got m=500, n=64"),
        (["--ensemble", "subfast", "--m", "65"], "subfast requires m <= n, got m=65, n=64"),
    ], ids=["subfast-default-m", "subfast-m"])
    def test_coherence_checks_the_ensemble(self, capsys, given, flags, message):
        assert main(given(["diag", "coherence", "--n", "64", *flags])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nldemix: error: {message}\n"

    def test_rscrss_interval(self, capsys):
        args = ["diag", "rscrss", "--n", "128", "--s", "3", "--m", "200",
                "--num-supports", "2", "--seed", "3"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        m_hat, big_m = float(row["m_hat"]), float(row["M_hat"])
        assert 0 < m_hat <= big_m
        assert float(row["ratio"]) == pytest.approx(big_m / m_hat, rel=1e-12)
        assert int(row["supports_probed"]) == 3
        assert int(row["sparsity_level"]) == 18

    def test_rscrss_at_s_zero_names_s(self, capsys):
        assert main(["diag", "rscrss", "--n", "64", "--s", "0", "--m", "80"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("nldemix: error: s=0 makes the default sparsity "
                                "min(6s, 2n) 0; pass sparsity >= 1\n")
        assert main(["diag", "rscrss", "--n", "64", "--s", "0", "--m", "80",
                     "--sparsity", "4"]) == 0
        assert rows_from(capsys.readouterr().out)[0]["sparsity_level"] == "4"

    def test_linkconst_sign(self, capsys):
        assert main(["diag", "linkconst", "--link", "sign"]) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert float(row["mu"]) == pytest.approx(np.sqrt(2 / np.pi), abs=1e-12)
        assert float(row["eta2"]) == 1.0


_RUN = ["seed", "out"]
_BASES = ["n", "basis_phi", "basis_psi", "ensemble"]
_SOLVE = _RUN + _BASES + ["link", "tau", "algorithm", "step_size", "max_iters", "rel_tol",
                          "init", "projection_mode", "lasso_radius", "dst_beta"]
COMMAND_DESTS = {  # every flag of each command, by dest: 19 + 21 + 20 + 8 + 11 + 2 = 81
    "trial": _SOLVE + ["s", "m", "success_threshold"],
    "phase": _SOLVE + ["success_threshold", "s_list", "m_list", "trials", "workers"],
    "bench": _SOLVE + ["s", "m", "algorithms", "repeats"],
    "diag coherence": _RUN + _BASES + ["s", "m"],
    "diag rscrss": _RUN + _BASES + ["s", "m", "link", "sparsity", "num_supports"],
    "diag linkconst": ["out", "link"],
}
# The settings each command used to take and does not read, by flag.
IGNORED = [
    ("phase", "--s", "3"),
    ("phase", "--m", "80"),
    ("bench", "--threshold", "0.5"),
    ("diag coherence", "--link", "sign"),
    ("diag coherence", "--tau", "3"),
    ("diag rscrss", "--tau", "0.5"),
    ("diag linkconst", "--seed", "0"),
    ("diag linkconst", "--trials", "1000"),
]
# The flags a command cannot run without.
REQUIRED = {"phase": ["--s-list", "2", "--m-list", "60"]}


def command_line(command: str, *flags: str) -> list[str]:
    """`command`'s words, then its required flags, then `flags`."""
    return [*command.split(), *REQUIRED.get(command, []), *flags]


class TestFlags:
    @pytest.mark.parametrize("command", list(COMMAND_DESTS))
    def test_each_command_takes_only_the_flags_it_reads(self, command):
        args = cli.build_parser().parse_args(command_line(command))
        assert sorted(set(vars(args)) - {"command"}) == sorted(COMMAND_DESTS[command])

    @pytest.mark.parametrize("command", list(COMMAND_DESTS))
    def test_link_radius_is_gone(self, capsys, given, command):
        assert main(given(command_line(command, "--link-radius", "20"))) == 1
        assert "unrecognized arguments: --link-radius 20" in capsys.readouterr().err

    @pytest.mark.parametrize("command", list(COMMAND_DESTS))
    def test_config_is_gone(self, capsys, given, command):
        # Settings come from a file as @FILE, read as flags.
        assert main(given(command_line(command, "--config", "x.json"))) == 1
        assert "unrecognized arguments: --config x.json" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["diag", "linkconst", "--s", "5000"],
        ["diag", "linkconst", "--n", "64"],
        ["diag", "coherence", "--step-size", "0"],
        ["diag", "rscrss", "--algorithm", "dht"],
        *([*command.split(), flag, value] for command, flag, value in IGNORED),
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, given, argv):
        # Never a prefix of another flag either: --s is not --seed, nor --s-list.
        words = 2 if argv[0] == "diag" else 1
        flags = argv[words:]
        assert main(given(command_line(" ".join(argv[:words]), *flags))) == 1
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    def test_every_spec_and_solver_field_reaches_the_spec(self, capsys, monkeypatch, given):
        # Each value differs from its default, so reaching the spec is visible;
        # a field added later without a value here or a trial flag fails with its name.
        values = dict(
            n=64, s=2, m=48, basis_phi="haar", basis_psi="identity", ensemble="rademacher",
            link="logistic", tau=0.25, algorithm="dst", seed=11, success_threshold=0.5,
            step_size=0.125, max_iters=3, rel_tol=1e-3, init="zero",
            projection_mode="perblocks", lasso_radius=2.5, dst_beta=0.75,
        )
        spec_names = [f.name for f in fields(TrialSpec) if f.name != "solver"]
        solver_names = [f.name for f in fields(SolverConfig) if f.name != "keep_iterates"]
        trial_dests = cli._COMMANDS["trial"][1].split()
        argv = ["trial"]
        for name in spec_names + solver_names:
            assert name in trial_dests, name
            argv += [cli._FLAGS[name][0], str(values[name])]
        seen = []

        def capture(spec):
            seen.append(spec)
            return harness.run_trial(spec)

        monkeypatch.setattr(cli, "run_trial", capture)
        assert main(given(argv)) == 0
        capsys.readouterr()
        (spec,) = seen
        for name in spec_names:
            assert getattr(spec, name) == values[name] != getattr(TrialSpec(), name), name
        for name in solver_names:
            assert getattr(spec.solver, name) == values[name] != getattr(SolverConfig(), name), name


class TestFlagsFromFile:
    @pytest.mark.parametrize("lines", [
        FAST_TRIAL,
        [f"{flag}={value}" for flag, value in zip(FAST_TRIAL[::2], FAST_TRIAL[1::2])],
    ], ids=["flag-and-value-lines", "flag-equals-value"])
    def test_file_gives_the_bytes_of_the_flags_typed_out(self, tmp_path, monkeypatch, lines):
        # A fixed clock, so time_ms is the same bytes too.
        monkeypatch.setattr(harness, "time", types.SimpleNamespace(perf_counter=lambda: 0.0))
        path = tmp_path / "flags.txt"
        path.write_text("\n".join(lines) + "\n")
        typed, read = tmp_path / "typed.csv", tmp_path / "read.csv"
        assert main(["trial", *FAST_TRIAL, "--out", str(typed)]) == 0
        assert main(["trial", f"@{path}", "--out", str(read)]) == 0
        assert read.read_bytes() == typed.read_bytes()

    def test_a_later_flag_overrides_the_file(self, tmp_path, capsys):
        path = tmp_path / "flags.txt"
        path.write_text("\n".join(FAST_TRIAL) + "\n")
        assert main(["trial", f"@{path}", "--n", "256"]) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert (row["n"], row["s"], row["m"], row["seed"]) == ("256", "3", "160", "42")

    def test_unreadable_file_is_a_usage_error_before_the_command(self, tmp_path, capsys,
                                                                  monkeypatch):
        # Files are read before the command is chosen: the root usage.
        monkeypatch.chdir(tmp_path)
        assert main(["trial", "@missing.txt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0] == "usage: nldemix [-h] {trial,phase,bench,diag} ..."
        assert lines[-1].startswith("nldemix: error: ")
        assert "missing.txt" in lines[-1]

    def test_an_argument_is_a_file_only_when_it_starts_with_at(self, tmp_path, capsys,
                                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trial", *FAST_TRIAL, "--out=@x.csv"]) == 0
        assert rows_from((tmp_path / "@x.csv").read_text())[0]["n"] == "128"
        assert main(["trial", *FAST_TRIAL, "--out", "@x.csv"]) == 1  # reads x.csv as flags
        assert capsys.readouterr().err.splitlines()[-1].startswith("nldemix: error: ")


# id: argv.
COMMAND_USAGE_ERRORS = {
    "bench-algorithm-and-algorithms": ["bench", "--algorithm", "dht", "--algorithms", "dst"],
    "phase-missing-s-list": ["phase", "--n", "64", "--m-list", "40"],
    "bench-unknown-flag": ["bench", "--n", "64", "--bogus", "1"],
    "trial-abbreviated-flag": ["trial", *FAST_TRIAL, "--thr", "0.5"],
    "diag-rscrss-unknown-flag": ["diag", "rscrss", "--n", "64", "--tau", "1"],
}


class TestExitCodes:
    def test_usage_error_bad_choice(self):
        assert main(["trial", "--algorithm", "omp"]) == 1

    def test_usage_error_no_subcommand(self):
        assert main([]) == 1

    @pytest.mark.parametrize("argv", list(COMMAND_USAGE_ERRORS.values()),
                             ids=list(COMMAND_USAGE_ERRORS))
    def test_usage_error_prints_the_commands_usage(self, capsys, given, argv):
        # From argparse or a handler alike.
        command = " ".join(argv[:2] if argv[0] == "diag" else argv[:1])
        assert main(given(argv)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines[0].startswith(f"usage: nldemix {command} [-h]")
        assert lines[-1].startswith(f"nldemix {command}: error: ")

    @pytest.mark.parametrize("argv", [[], ["bogus"]], ids=["no-command", "unknown-command"])
    def test_usage_error_before_a_command_prints_the_root_usage(self, capsys, argv):
        assert main(argv) == 1
        lines = capsys.readouterr().err.splitlines()
        assert lines[0] == "usage: nldemix [-h] {trial,phase,bench,diag} ..."
        assert lines[-1].startswith("nldemix: error: ")

    def test_help_exits_0(self, capsys):
        assert main(["bench", "-h"]) == 0
        assert capsys.readouterr().out.startswith("usage: nldemix bench [-h]")

    def test_capability_error_exits_2(self, capsys):
        args = ["trial", "--n", "64", "--s", "2", "--m", "80",
                "--algorithm", "dht", "--link", "sign"]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_output_path_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing_dir" / "x.csv")
        assert main(["trial", *FAST_TRIAL, "--out", out]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("setting, flags", [
        ("tau", ["--tau", "nan"]),
        ("rel_tol", ["--rel-tol", "nan"]),
        ("step_size", ["--step-size", "nan"]),
        ("dst_beta", ["--algorithm", "dst", "--dst-beta", "nan"]),
        ("lasso_radius", ["--algorithm", "nlcdlasso", "--lasso-radius", "nan"]),
    ])
    def test_non_finite_setting_exits_2(self, capsys, given, setting, flags):
        assert main(given(["trial", "--n", "64", "--s", "2", "--m", "80", *flags])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"nldemix: error: {setting} must be finite")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, flag, text, kind", [
        ("trial", "--max-iters", "2.5", "int"),
        ("trial", "--n", "nan", "int"),
        ("trial", "--seed", "abc", "int"),
        ("phase", "--trials", "2.5", "int"),
        ("phase", "--workers", "2.5", "int"),
        ("bench", "--repeats", "2.5", "int"),
        ("diag rscrss", "--sparsity", "2.5", "int"),
        ("diag rscrss", "--num-supports", "2.5", "int"),
        ("trial", "--tau", "abc", "float"),
        ("trial", "--threshold", "x", "float"),
        ("trial", "--rel-tol", "", "float"),
        ("trial", "--lasso-radius", "[1]", "float"),
        ("trial", "--dst-beta", "true", "float"),
    ])
    def test_value_that_does_not_parse_is_usage_error(self, capsys, given, command, flag, text,
                                                      kind):
        # Read from a file or typed, a value is text that argparse converts.
        assert main(given([*command.split(), flag, text])) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            f"nldemix {command}: error: argument {flag}: invalid {kind} value: {text!r}")

    @pytest.mark.parametrize("command, message", [
        (["bench", "--n", "64", "--s", "2", "--m", "60", "--algorithm", "oneshot",
          "--repeats", "0"], "repeats must be >= 1, got 0"),
        (["phase", "--n", "64", "--algorithm", "oneshot", "--s-list", "2", "--m-list", "60",
          "--trials", "1", "--workers", "0"], "workers must be >= 1, got 0"),
        (["trial", "--n", "64", "--s", "2", "--m", "80", "--seed", "-1"],
         "seed must be >= 0, got -1"),
        # The noise overflows: observe rejects the y it would return, without a warning.
        (["trial", "--n", "64", "--s", "2", "--m", "40", "--tau", "1e308"],
         "y must be finite; it holds NaN or infinite entries"),
    ], ids=["bench-repeats", "phase-workers", "trial-seed-flag", "trial-tau-overflow"])
    def test_rejected_setting_exits_2_with_one_line(self, capsys, given, command, message):
        assert main(given(command)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nldemix: error: {message}\n"

    @pytest.mark.parametrize("key, value, message", list(LIST_RULE.values()),
                             ids=list(LIST_RULE))
    def test_one_list_rule(self, capsys, monkeypatch, given, key, value, message):
        # A list that parses and is then rejected exits 2 before any build:
        # unchecked, each repeat redid a build or a solve and wrote a second row.
        command, flags, flag = LIST_SETTINGS[key]
        monkeypatch.setattr(harness, "_build_instance", None)  # any build would raise TypeError
        assert main(given([command, *flags, flag, value])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nldemix: error: {message}\n"

    def test_allocation_failure_exits_2(self, capsys, monkeypatch):
        def run_trial(spec):
            raise MemoryError("cannot allocate the operator")

        monkeypatch.setattr(cli, "run_trial", run_trial)
        assert main(["trial", *FAST_TRIAL]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "nldemix: error: cannot allocate the operator\n"

    def test_invalid_dimension_exits_2(self, capsys):
        # passes parsing, fails dataclass validation at runtime
        assert main(["trial", "--n", "64", "--s", "100", "--m", "80"]) == 2


# Header lines and one phase CSV as recorded with numpy 2.4.6 and scipy 1.17.1.
GOLDEN_HEADERS = {
    "trial": "algorithm,n,s,m,basis_phi,basis_psi,ensemble,link,tau,seed,"
             "cosine,cos_w,cos_z,l2_err,iters,time_ms,success",
    "phase": "s,m,trials,successes,prob",
    "bench": "algorithm,n,s,m,link,repeats,median_ms,iters",
    "diag coherence": "basis_phi,basis_psi,n,s,gamma,epsilon_bound,vartheta",
    "diag rscrss": "n,s,m,link,sparsity_level,supports_probed,m_hat,M_hat,ratio",
    "diag linkconst": "link,mu,sigma2,eta2",
}
GOLDEN_ARGS = {
    "trial": FAST_TRIAL,
    "phase": ["--n", "64", "--algorithm", "oneshot", "--s-list", "2", "--m-list", "60",
              "--trials", "1"],
    "bench": ["--n", "64", "--s", "2", "--m", "60", "--algorithm", "oneshot", "--repeats", "1"],
    "diag coherence": ["--n", "64", "--s", "2"],
    "diag rscrss": ["--n", "64", "--s", "2", "--m", "80"],
    "diag linkconst": ["--link", "sign"],
}
# A grid whose cells include 0, some and all of their trials.
GOLDEN_PHASE_ARGS = ["phase", "--n", "256", "--s-list", "2,4,8", "--m-list", "40,80,160",
                     "--trials", "4", "--algorithm", "dht", "--seed", "5"]
GOLDEN_PHASE_CSV = """\
s,m,trials,successes,prob
2,40,4,3,0.75
2,80,4,4,1.0
2,160,4,4,1.0
4,40,4,0,0.0
4,80,4,1,0.25
4,160,4,4,1.0
8,40,4,0,0.0
8,80,4,0,0.0
8,160,4,1,0.25
"""


class TestGoldenBytes:
    @pytest.mark.parametrize("command", sorted(GOLDEN_HEADERS))
    def test_header_line(self, capsys, command):
        assert main([*command.split(), *GOLDEN_ARGS[command]]) == 0
        assert capsys.readouterr().out.split("\n", 1)[0] == GOLDEN_HEADERS[command]

    def test_phase_csv(self, tmp_path):
        path = tmp_path / "phase.csv"
        assert main([*GOLDEN_PHASE_ARGS, "--out", str(path)]) == 0
        assert path.read_bytes() == GOLDEN_PHASE_CSV.encode()


def _checkout_env() -> dict:
    """The environment with this checkout's src/ on PYTHONPATH, so a child
    interpreter imports nldemix without an install."""
    return {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


class TestEntryPoint:
    def test_cli_import_loads_no_scipy(self):
        # Nor the modules only some commands use: concurrent.futures and
        # multiprocessing (phase --workers > 1) and numpy.polynomial (the
        # quadrature nodes of link_constants).  Nor json or sysconfig, which
        # no path in nldemix imports.
        code = (
            "import sys; before = set(sys.modules); import nldemix.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted(m for m in ('scipy', 'json', 'concurrent.futures', 'multiprocessing', "
            "'sysconfig', 'numpy.polynomial') "
            "if any(k == m or k.startswith(m + '.') for k in new)))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
            env=_checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nldemix.cli", "trial", *FAST_TRIAL],
            capture_output=True, text=True, timeout=120, env=_checkout_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[0].startswith("algorithm,")
