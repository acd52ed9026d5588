"""Command-line interface: subcommands, config merging, exit codes, CSV out."""

import csv
import io
import json
import os
import subprocess
import sys
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


PHASE_CONFIG = {"n": 64, "algorithm": "oneshot", "s_list": [2], "m_list": [60], "trials": 1}


# Each list setting: its command, a config it overrides, and its flag.
LIST_SETTINGS = {
    "s_list": ("phase", PHASE_CONFIG, "--s-list"),
    "m_list": ("phase", PHASE_CONFIG, "--m-list"),
    "algorithms": ("bench", {"n": 64, "s": 2, "m": 60, "repeats": 1}, "--algorithms"),
}
DISTINCT = "must be distinct and non-empty, got"
UNKNOWN_OMP = "unknown algorithm 'omp'; expected one of ('oneshot', 'dht', 'dst', 'nlcdlasso')"
# id: (source, key, flag text or config value, message).
LIST_RULE = {
    "s_list-flag-repeat": ("flag", "s_list", "2,2",
                           f"s_values {DISTINCT} [2, 2]; entry 1 repeats entry 0"),
    "s_list-config-repeat": ("config", "s_list", [2, 2],
                             f"s_values {DISTINCT} [2, 2]; entry 1 repeats entry 0"),
    "m_list-flag-repeat": ("flag", "m_list", "60,80,60",
                           f"m_values {DISTINCT} [60, 80, 60]; entry 2 repeats entry 0"),
    "m_list-config-repeat": ("config", "m_list", [60, 80, 60],
                             f"m_values {DISTINCT} [60, 80, 60]; entry 2 repeats entry 0"),
    "algorithms-flag-repeat": ("flag", "algorithms", "dht,dht",
                               f"algorithms {DISTINCT} ['dht', 'dht']; entry 1 repeats entry 0"),
    "algorithms-flag-repeat-spaced": (
        "flag", "algorithms", "oneshot, dht,oneshot",
        f"algorithms {DISTINCT} ['oneshot', 'dht', 'oneshot']; entry 2 repeats entry 0"),
    "algorithms-config-repeat": ("config", "algorithms", ["dht", "dht"],
                                 f"algorithms {DISTINCT} ['dht', 'dht']; entry 1 repeats entry 0"),
    "s_list-flag-comma": ("flag", "s_list", ",", f"s_values {DISTINCT} []"),
    "s_list-config-empty": ("config", "s_list", [], f"s_values {DISTINCT} []"),
    "m_list-flag-empty": ("flag", "m_list", "", f"m_values {DISTINCT} []"),
    "m_list-config-empty": ("config", "m_list", [], f"m_values {DISTINCT} []"),
    "algorithms-flag-comma": ("flag", "algorithms", ",", f"algorithms {DISTINCT} []"),
    "algorithms-flag-empty": ("flag", "algorithms", "", f"algorithms {DISTINCT} []"),
    "algorithms-config-empty": ("config", "algorithms", [], f"algorithms {DISTINCT} []"),
    "s_list-config-str": ("config", "s_list", "2,3",
                          "s_values must be a sequence of integers, got '2,3'"),
    "m_list-config-str": ("config", "m_list", "60,80",
                          "m_values must be a sequence of integers, got '60,80'"),
    "algorithms-config-str": ("config", "algorithms", "dht,dst",
                              "algorithms must be a sequence of names, got 'dht,dst'"),
    "algorithms-flag-unknown": ("flag", "algorithms", "omp", UNKNOWN_OMP),
    "algorithms-config-unknown": ("config", "algorithms", ["omp"], UNKNOWN_OMP),
}


def rows_from(text: str) -> list[dict]:
    reader = csv.DictReader(io.StringIO(text))
    return list(reader)


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
    def test_step_size_that_is_not_a_number_is_usage_error(self, capsys, text):
        assert main(["trial", *FAST_TRIAL, "--step-size", text]) == 1
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

    @pytest.mark.parametrize("lists", [[], ["--s-list", "2"], ["--m-list", "60"]],
                             ids=["neither", "no-m-list", "no-s-list"])
    def test_missing_lists_is_usage_error(self, capsys, lists):
        assert main(["phase", "--n", "64", *lists]) == 1
        assert capsys.readouterr().err.splitlines()[-1] == (
            "nldemix phase: error: phase requires --s-list and --m-list "
            "(or config keys s_list/m_list)")

    @pytest.mark.parametrize("flag", ["--s-list", "--m-list"])
    @pytest.mark.parametrize("text", ["2,x", "2.5", "2;3"])
    def test_malformed_list_is_usage_error(self, capsys, flag, text):
        lists = {"--s-list": "2", "--m-list": "60", flag: text}
        assert main(["phase", "--n", "64", *(part for item in lists.items() for part in item)]) == 1
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

    @pytest.mark.parametrize("flags, config", [
        (["--algorithm", "dht", "--algorithms", "oneshot"], {}),
        (["--algorithms", "oneshot"], {"algorithm": "dht"}),
        ([], {"algorithm": "dht", "algorithms": ["oneshot"]}),
    ], ids=["flags", "flag-and-config", "config"])
    def test_algorithm_and_algorithms_together_is_usage_error(self, tmp_path, capsys, flags,
                                                              config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "s": 2, "m": 60, "repeats": 1, **config}))
        assert main(["bench", "--config", str(cfg), *flags]) == 1
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

    @pytest.mark.parametrize("flags, config, message", [
        (["--ensemble", "subfast"], None, "subfast requires m <= n, got m=500, n=64"),
        (["--ensemble", "subfast", "--m", "65"], None, "subfast requires m <= n, got m=65, n=64"),
        ([], {"ensemble": "bogus"}, "unknown ensemble kind 'bogus'; expected one of "
                                    "('gaussian', 'rademacher', 'subfast')"),
    ], ids=["subfast-default-m", "subfast-m", "config-unknown"])
    def test_coherence_checks_the_ensemble(self, tmp_path, capsys, flags, config, message):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            flags = [*flags, "--config", str(cfg)]
        assert main(["diag", "coherence", "--n", "64", *flags]) == 2
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
        args = ["diag", "linkconst", "--link", "sign", "--trials", "50000",
                "--seed", "0"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert float(row["mu"]) == pytest.approx(np.sqrt(2 / np.pi), abs=0.02)
        assert float(row["eta2"]) == 1.0


_RUN = ["config", "seed", "out"]
_BASES = ["n", "basis_phi", "basis_psi", "ensemble"]
_SOLVE = _RUN + _BASES + ["link", "tau", "algorithm", "step_size", "max_iters", "rel_tol",
                          "init", "projection_mode", "lasso_radius", "dst_beta"]
COMMAND_DESTS = {  # every flag of each command, by dest: 20 + 22 + 21 + 9 + 12 + 5 = 89
    "trial": _SOLVE + ["s", "m", "success_threshold"],
    "phase": _SOLVE + ["success_threshold", "s_list", "m_list", "trials", "workers"],
    "bench": _SOLVE + ["s", "m", "algorithms", "repeats"],
    "diag coherence": _RUN + _BASES + ["s", "m"],
    "diag rscrss": _RUN + _BASES + ["s", "m", "link", "sparsity", "num_supports"],
    "diag linkconst": _RUN + ["link", "trials"],
}
# The settings each command used to take but never read, by flag and dest.
IGNORED = [
    ("phase", "--s", "s", "3"),
    ("phase", "--m", "m", "80"),
    ("bench", "--threshold", "success_threshold", "0.5"),
    ("diag coherence", "--link", "link", "sign"),
    ("diag coherence", "--tau", "tau", "3"),
    ("diag rscrss", "--tau", "tau", "0.5"),
]


class TestFlags:
    @pytest.mark.parametrize("command", list(COMMAND_DESTS))
    def test_each_command_takes_only_the_flags_it_reads(self, command):
        args = cli.build_parser().parse_args(command.split())
        assert sorted(set(vars(args)) - {"command"}) == sorted(COMMAND_DESTS[command])

    @pytest.mark.parametrize("command", list(COMMAND_DESTS))
    def test_link_radius_is_gone(self, tmp_path, capsys, command):
        assert main([*command.split(), "--link-radius", "20"]) == 1
        assert "unrecognized arguments: --link-radius 20" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"link_radius": 20.0}))
        assert main([*command.split(), "--config", str(cfg)]) == 1
        assert "unknown config keys: ['link_radius']" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["diag", "linkconst", "--s", "5000"],
        ["diag", "linkconst", "--n", "64"],
        ["diag", "coherence", "--step-size", "0"],
        ["diag", "rscrss", "--algorithm", "dht"],
        *([*command.split(), flag, value] for command, flag, _, value in IGNORED),
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, capsys, argv):
        # Never a prefix of another flag either: --s is not --seed, nor --s-list.
        flags = argv[2:] if argv[0] == "diag" else argv[1:]
        assert main(argv) == 1
        assert f"unrecognized arguments: {' '.join(flags)}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        (command, key, value) for command, _, key, value in IGNORED])
    def test_keys_a_command_does_not_read_are_unknown(self, tmp_path, capsys, command, key,
                                                      value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        assert main([*command.split(), "--config", str(cfg)]) == 1
        assert f"unknown config keys: ['{key}']" in capsys.readouterr().err


class TestConfigFile:
    def test_config_supplies_fields(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"n": 128, "s": 2, "m": 120, "algorithm": "oneshot", "seed": 5}
        ))
        assert main(["trial", "--config", str(cfg)]) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert (int(row["n"]), int(row["s"]), int(row["m"])) == (128, 2, 120)
        assert int(row["seed"]) == 5

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "s": 2, "m": 80, "algorithm": "oneshot"}))
        assert main(["trial", "--config", str(cfg), "--n", "128", "--m", "160"]) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert (int(row["n"]), int(row["s"]), int(row["m"])) == (128, 2, 160)

    def test_nested_solver_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 128, "s": 3, "m": 160, "algorithm": "dht",
            "solver": {"max_iters": 3},
        }))
        assert main(["trial", "--config", str(cfg)]) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert int(row["iters"]) <= 3

    def test_unknown_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "sparsity_target": 3}))
        assert main(["trial", "--config", str(cfg)]) == 1
        assert "unknown config keys" in capsys.readouterr().err

    def test_keys_the_command_ignores_are_usage_errors(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "n": 128, "s": 3, "m": 160, "algorithm": "oneshot",
            "workers": 4, "trials": 9, "s_list": [1],
        }))
        assert main(["trial", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "['s_list', 'trials', 'workers']" in captured.err

    @pytest.mark.parametrize("command, keys", [
        (["phase"], {"n": 64, "algorithm": "oneshot",
                     "s_list": [2], "m_list": [120], "trials": 1, "workers": 1}),
        (["bench"], {"n": 64, "s": 2, "m": 120, "algorithms": ["oneshot"], "repeats": 1}),
        (["diag", "rscrss"], {"n": 64, "s": 2, "m": 120, "sparsity": 4, "num_supports": 2}),
        (["diag", "linkconst"], {"link": "sign", "trials": 1000}),
    ])
    def test_keys_the_command_uses_are_accepted(self, tmp_path, capsys, command, keys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(keys))
        assert main([*command, "--config", str(cfg)]) == 0
        for key in ("workers", "repeats", "num_supports", "trials", "n", "algorithm"):
            if key not in keys:
                cfg.write_text(json.dumps({**keys, key: 1}))
                assert main([*command, "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_every_spec_and_solver_field_reaches_the_spec(self, tmp_path, capsys, monkeypatch):
        # Each value differs from its default, so reaching the spec is visible;
        # a field added later without a value here fails with its name.
        spec_values = dict(
            n=64, s=2, m=48, basis_phi="haar", basis_psi="identity", ensemble="rademacher",
            link="logistic", tau=0.25, algorithm="dst", seed=11, success_threshold=0.5,
        )
        solver_values = dict(
            step_size=0.125, max_iters=3, rel_tol=1e-3, init="zero",
            projection_mode="perblocks", lasso_radius=2.5, dst_beta=0.75,
        )
        cfg = {f.name: spec_values[f.name] for f in fields(TrialSpec) if f.name != "solver"}
        cfg["solver"] = {f.name: solver_values[f.name] for f in fields(SolverConfig)
                         if f.name != "keep_iterates"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        seen = []

        def capture(spec):
            seen.append(spec)
            return harness.run_trial(spec)

        monkeypatch.setattr(cli, "run_trial", capture)
        assert main(["trial", "--config", str(path)]) == 0
        capsys.readouterr()
        (spec,) = seen
        solver = cfg.pop("solver")
        for name, value in cfg.items():
            assert getattr(spec, name) == value != getattr(TrialSpec(), name), name
        for name, value in solver.items():
            assert getattr(spec.solver, name) == value != getattr(SolverConfig(), name), name

    def test_solver_keys_belong_in_the_solver_object(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "max_iters": 3, "solver": {"seed": 1}}))
        assert main(["trial", "--config", str(cfg)]) == 1
        assert "unknown config keys: ['max_iters', 'seed']" in capsys.readouterr().err

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["trial", "--config", str(cfg)]) == 1

    @pytest.mark.parametrize("config, message", [
        ([1, 2], "config {path!r} must be a JSON object"),
        ("n=64", "config {path!r} must be a JSON object"),
        ({"n": 64, "solver": [1]}, "config key 'solver' must be an object"),
        ({"n": 64, "solver": "dht"}, "config key 'solver' must be an object"),
    ], ids=["list", "string", "solver-list", "solver-string"])
    def test_config_that_is_not_an_object_is_usage_error(self, tmp_path, capsys, config,
                                                         message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["trial", "--config", str(cfg)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(message.format(path=str(cfg)))

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["trial", "--config", str(tmp_path / "absent.json")]) == 1


# id: (argv, config file content or None).
COMMAND_USAGE_ERRORS = {
    "bench-algorithm-and-algorithms": (["bench", "--algorithm", "dht", "--algorithms", "dst"],
                                       None),
    "phase-missing-s-list": (["phase", "--n", "64", "--m-list", "40"], None),
    "trial-unknown-config-key": (["trial"], {"n": 64, "bogus": 1}),
    "bench-unknown-flag": (["bench", "--n", "64", "--bogus", "1"], None),
    "trial-abbreviated-flag": (["trial", *FAST_TRIAL, "--thr", "0.5"], None),
    "diag-rscrss-unknown-flag": (["diag", "rscrss", "--n", "64", "--tau", "1"], None),
    "trial-config-not-an-object": (["trial"], [1, 2]),
}


class TestExitCodes:
    def test_usage_error_bad_choice(self):
        assert main(["trial", "--algorithm", "omp"]) == 1

    def test_usage_error_no_subcommand(self):
        assert main([]) == 1

    @pytest.mark.parametrize("argv, config", list(COMMAND_USAGE_ERRORS.values()),
                             ids=list(COMMAND_USAGE_ERRORS))
    def test_usage_error_prints_the_commands_usage(self, tmp_path, capsys, argv, config):
        # From argparse, the config check or a handler alike.
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = [*argv, "--config", str(cfg)]
        command = " ".join(argv[:2] if argv[0] == "diag" else argv[:1])
        assert main(argv) == 1
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
    def test_non_finite_setting_exits_2(self, capsys, setting, flags):
        assert main(["trial", "--n", "64", "--s", "2", "--m", "80", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"nldemix: error: {setting} must be finite")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, setting, config", [
        (["trial"], "max_iters", {"n": 64, "s": 2, "m": 80, "solver": {"max_iters": 2.5}}),
        (["trial"], "n", {"n": float("nan"), "s": 2, "m": 80}),
        (["trial"], "seed", {"n": 64, "s": 2, "m": 80, "seed": "abc"}),
        (["phase"], "trials", {**PHASE_CONFIG, "trials": 2.5}),
        (["phase"], "workers", {**PHASE_CONFIG, "workers": 2.5}),
        (["phase"], "s", {**PHASE_CONFIG, "s_list": [2.5]}),
        (["bench"], "repeats", {"n": 64, "s": 2, "m": 60, "algorithm": "oneshot", "repeats": 2.5}),
        (["diag", "rscrss"], "sparsity", {"n": 64, "s": 2, "m": 60, "sparsity": 2.5}),
        (["diag", "rscrss"], "num_supports", {"n": 64, "s": 2, "m": 60, "num_supports": 2.5}),
        (["diag", "linkconst"], "trials", {"trials": 2.5}),
    ], ids=lambda v: "-".join(v) if isinstance(v, list) else None)
    def test_non_integer_config_value_exits_2(self, tmp_path, capsys, command, setting, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([*command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"nldemix: error: {setting} must be an integer")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("setting, config", [
        ("tau", {"tau": "abc"}),
        ("tau", {"tau": None}),
        ("tau", {"tau": True}),
        ("success_threshold", {"success_threshold": "x"}),
        ("rel_tol", {"solver": {"rel_tol": "1e-6"}}),
        ("lasso_radius", {"solver": {"lasso_radius": [1]}}),
        ("lasso_radius", {"solver": {"lasso_radius": True}}),
        ("step_size", {"solver": {"step_size": True}}),
        ("dst_beta", {"solver": {"dst_beta": True}}),
    ], ids=lambda v: json.dumps(v) if isinstance(v, dict) else None)
    def test_non_real_config_value_exits_2(self, tmp_path, capsys, setting, config):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "s": 2, "m": 80, **config}))
        assert main(["trial", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"nldemix: error: {setting} must be finite and")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("command, config, message", [
        (["bench", "--n", "64", "--s", "2", "--m", "60", "--algorithm", "oneshot",
          "--repeats", "0"], None, "repeats must be >= 1, got 0"),
        (["phase", "--n", "64", "--algorithm", "oneshot", "--s-list", "2", "--m-list", "60",
          "--trials", "1", "--workers", "0"], None, "workers must be >= 1, got 0"),
        (["trial", "--n", "64", "--s", "2", "--m", "80", "--seed", "-1"], None,
         "seed must be >= 0, got -1"),
        (["diag", "linkconst", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["trial"], {"n": 64, "s": 2, "m": 80, "seed": -1}, "seed must be >= 0, got -1"),
        (["trial"], {"n": 64, "s": 2, "m": 80, "link": ["linsin"]},
         "unknown link ['linsin']; expected one of "
         "('sign', 'linsin', 'logistic', 'shifted-logistic')"),
        # The noise overflows: observe rejects the y it would return, without a warning.
        (["trial", "--n", "64", "--s", "2", "--m", "40", "--tau", "1e308"], None,
         "y must be finite; it holds NaN or infinite entries"),
    ], ids=["bench-repeats", "phase-workers", "trial-seed-flag", "linkconst-seed-flag",
            "trial-seed-config", "trial-link-list", "trial-tau-overflow"])
    def test_rejected_setting_exits_2_with_one_line(self, tmp_path, capsys, command, config,
                                                    message):
        if config is not None:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps(config))
            command = [*command, "--config", str(cfg)]
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nldemix: error: {message}\n"

    @pytest.mark.parametrize("command, config, message", [
        (["phase"], {**PHASE_CONFIG, "s_list": 2}, "s_values must be a sequence of integers, got 2"),
        (["phase"], {**PHASE_CONFIG, "s_list": 0}, "s_values must be a sequence of integers, got 0"),
        (["bench"], {"n": 64, "s": 2, "m": 60, "algorithms": 5},
         "algorithms must be a sequence of names, got 5"),
        (["bench"], {"n": 64, "s": 2, "m": 60, "algorithms": {"dht": 1}},
         "algorithms must be a sequence of names, got {'dht': 1}"),
    ], ids=["phase-s_list-int", "phase-s_list-zero", "bench-algorithms-int",
            "bench-algorithms-object"])
    def test_list_setting_of_wrong_type_fails_cleanly(self, tmp_path, capsys, command, config,
                                                      message):
        # A list that is given but bad gets the list rule; only an absent
        # phase list is reported as missing.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert main([*command, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"nldemix: error: {message}\n"

    @pytest.mark.parametrize("source, key, value, message", list(LIST_RULE.values()),
                             ids=list(LIST_RULE))
    def test_one_list_rule(self, tmp_path, capsys, monkeypatch, source, key, value, message):
        # A list that parses and is then rejected exits 2, from a flag or the
        # file alike, before any build: unchecked, each repeat redid a build
        # or a solve and wrote a second row.
        command, config, flag = LIST_SETTINGS[key]
        flags = [flag, value] if source == "flag" else []
        if source == "config":
            config = {**config, key: value}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        monkeypatch.setattr(harness, "_build_instance", None)  # any build would raise TypeError
        assert main([command, "--config", str(cfg), *flags]) == 2
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
    "diag linkconst": "link,trials,seed,mu,sigma2,eta2",
}
GOLDEN_ARGS = {
    "trial": FAST_TRIAL,
    "phase": ["--n", "64", "--algorithm", "oneshot", "--s-list", "2", "--m-list", "60",
              "--trials", "1"],
    "bench": ["--n", "64", "--s", "2", "--m", "60", "--algorithm", "oneshot", "--repeats", "1"],
    "diag coherence": ["--n", "64", "--s", "2"],
    "diag rscrss": ["--n", "64", "--s", "2", "--m", "80"],
    "diag linkconst": ["--link", "sign", "--trials", "1000"],
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
        # Nor the modules only some commands use: json (--config),
        # concurrent.futures (phase --workers > 1) and sysconfig (the first
        # operator refill).
        code = (
            "import sys; before = set(sys.modules); import nldemix.cli; "
            "new = set(sys.modules) - before; "
            "print(sorted(m for m in ('scipy', 'json', 'concurrent.futures', 'sysconfig') "
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
