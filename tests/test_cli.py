"""Command-line interface: subcommands, config merging, exit codes, CSV out."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nldemix.cli import main
from nldemix.diagnostics import mutual_coherence
from nldemix.transforms import Basis, Dictionary

FAST_TRIAL = [
    "--n", "128", "--s", "3", "--m", "160", "--algorithm", "oneshot",
    "--seed", "42",
]


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
        rows = rows_from(path.read_text(encoding="utf-8"))
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

    def test_missing_lists_is_usage_error(self, capsys):
        assert main(["phase", "--n", "64"]) == 1
        assert "s-list" in capsys.readouterr().err


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

    def test_unknown_algorithm_is_usage_error(self, capsys):
        args = ["bench", "--n", "64", "--algorithms", "omp"]
        assert main(args) == 1
        assert "unknown algorithm" in capsys.readouterr().err


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
                "--ensemble", "gaussian", "--m", "32"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert float(row["vartheta"]) > 0

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

    def test_linkconst_sign(self, capsys):
        args = ["diag", "linkconst", "--link", "sign", "--trials", "50000",
                "--seed", "0"]
        assert main(args) == 0
        row = rows_from(capsys.readouterr().out)[0]
        assert float(row["mu"]) == pytest.approx(np.sqrt(2 / np.pi), abs=0.02)
        assert float(row["eta2"]) == 1.0


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

    @pytest.mark.parametrize("command, extra", [
        (["phase"], {"s_list": [2], "m_list": [120], "trials": 1, "workers": 1}),
        (["bench"], {"algorithms": "oneshot", "repeats": 1}),
        (["diag", "rscrss"], {"sparsity": 4, "num_supports": 2}),
        (["diag", "linkconst"], {"trials": 1000}),
    ])
    def test_keys_the_command_uses_are_accepted(self, tmp_path, capsys, command, extra):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 64, "s": 2, "m": 120, "algorithm": "oneshot", **extra}))
        assert main([*command, "--config", str(cfg)]) == 0
        for key in ("workers", "repeats", "num_supports", "trials"):
            if key not in extra:
                cfg.write_text(json.dumps({"n": 64, "s": 2, "m": 120, **extra, key: 1}))
                assert main([*command, "--config", str(cfg)]) == 1
        capsys.readouterr()

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["trial", "--config", str(cfg)]) == 1

    def test_missing_config_file_is_usage_error(self, tmp_path):
        assert main(["trial", "--config", str(tmp_path / "absent.json")]) == 1


class TestExitCodes:
    def test_usage_error_bad_choice(self):
        assert main(["trial", "--algorithm", "omp"]) == 1

    def test_usage_error_no_subcommand(self):
        assert main([]) == 1

    def test_capability_error_exits_2(self, capsys):
        args = ["trial", "--n", "64", "--s", "2", "--m", "80",
                "--algorithm", "dht", "--link", "sign"]
        assert main(args) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_output_path_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "missing_dir" / "x.csv")
        assert main(["trial", *FAST_TRIAL, "--out", out]) == 2
        assert "error" in capsys.readouterr().err

    def test_invalid_dimension_exits_2(self, capsys):
        # passes parsing, fails dataclass validation at runtime
        assert main(["trial", "--n", "64", "--s", "100", "--m", "80"]) == 2


class TestEntryPoint:
    def test_cli_import_loads_no_scipy(self):
        code = (
            "import nldemix.cli, sys; "
            "print(any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "nldemix.cli", "trial", *FAST_TRIAL],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0].startswith("algorithm,")
