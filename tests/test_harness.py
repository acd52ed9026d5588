"""Experiment harness: seeding discipline, trials, grids, CSV round trips."""

import io
import math
import os
import weakref
from dataclasses import replace

import numpy as np
import pytest

from nldemix import harness
from nldemix.harness import (
    ALGORITHMS,
    PHASE_CSV_FIELDS,
    TRIAL_CSV_FIELDS,
    PhaseGrid,
    TrialSpec,
    child_seed,
    export_csv,
    generate_signal,
    run_benchmark,
    run_phase_grid,
    run_trial,
    write_csv,
)
from nldemix.links import CapabilityError
from nldemix.solvers import SolverConfig
from nldemix.transforms import Basis, Dictionary, basis_apply


class TestChildSeed:
    def test_deterministic(self):
        assert child_seed(7, 3, 200, 1) == child_seed(7, 3, 200, 1)

    def test_distinct_keys_distinct_streams(self):
        seeds = {
            child_seed(0, s, m, k)
            for s in range(5)
            for m in (100, 200, 300)
            for k in range(10)
        }
        assert len(seeds) == 5 * 3 * 10

    def test_depends_on_base(self):
        assert child_seed(0, 1) != child_seed(1, 1)


class TestGenerateSignal:
    def test_shapes_sparsity_and_values(self):
        d = Dictionary(Basis("identity", 64), Basis("dct", 64))
        w, z, x = generate_signal(64, 5, seed=3, dictionary=d)
        assert w.shape == z.shape == x.shape == (64,)
        assert np.count_nonzero(w) == 5
        assert np.count_nonzero(z) == 5
        assert set(np.unique(w[w != 0])) <= {-1.0, 1.0}
        assert set(np.unique(z[z != 0])) <= {-1.0, 1.0}

    def test_mixture_consistency(self):
        d = Dictionary(Basis("haar", 32), Basis("dct", 32))
        w, z, x = generate_signal(32, 4, seed=5, dictionary=d)
        np.testing.assert_allclose(
            x, basis_apply(d.phi, w) + basis_apply(d.psi, z), atol=1e-12
        )

    def test_deterministic_in_seed(self):
        d = Dictionary(Basis("identity", 32), Basis("dct", 32))
        a = generate_signal(32, 3, seed=9, dictionary=d)
        b = generate_signal(32, 3, seed=9, dictionary=d)
        for u, v in zip(a, b):
            np.testing.assert_array_equal(u, v)
        c = generate_signal(32, 3, seed=10, dictionary=d)
        assert not np.array_equal(a[0], c[0]) or not np.array_equal(a[1], c[1])

    def test_zero_sparsity(self):
        d = Dictionary(Basis("identity", 16), Basis("dct", 16))
        w, z, x = generate_signal(16, 0, seed=0, dictionary=d)
        assert not w.any() and not z.any() and not x.any()

    def test_validation(self):
        d = Dictionary(Basis("identity", 16), Basis("dct", 16))
        with pytest.raises(ValueError):
            generate_signal(16, 17, seed=0, dictionary=d)
        with pytest.raises(ValueError):
            generate_signal(32, 3, seed=0, dictionary=d)


class TestTrialSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrialSpec(n=0)
        with pytest.raises(ValueError):
            TrialSpec(m=0)
        with pytest.raises(ValueError):
            TrialSpec(n=16, s=17)
        with pytest.raises(ValueError):
            TrialSpec(success_threshold=0.0)
        with pytest.raises(ValueError):
            TrialSpec(algorithm="omp")
        with pytest.raises(ValueError):
            TrialSpec(tau=-0.1)


def small_spec(**kw):
    base = dict(
        n=128, s=3, m=160, algorithm="dht",
        solver=SolverConfig(max_iters=200, rel_tol=1e-8), seed=42,
    )
    base.update(kw)
    return TrialSpec(**base)


class TestRunTrial:
    def test_easy_instance_succeeds(self):
        rec = run_trial(small_spec())
        assert rec.success
        assert rec.cosine >= 0.99
        assert rec.cos_w > 0.9 and rec.cos_z > 0.9
        assert rec.l2_err < 1e-3
        assert rec.iterations >= 1
        assert rec.wall_time_ms > 0

    def test_scores_are_reproducible(self):
        a = run_trial(small_spec())
        b = run_trial(small_spec())
        assert (a.cosine, a.cos_w, a.cos_z, a.l2_err, a.iterations, a.success) == (
            b.cosine, b.cos_w, b.cos_z, b.l2_err, b.iterations, b.success
        )

    def test_seed_changes_instance(self):
        a = run_trial(small_spec())
        b = run_trial(small_spec(seed=43))
        assert (a.l2_err, a.iterations) != (b.l2_err, b.iterations)

    def test_sign_link_reports_nan_l2(self):
        rec = run_trial(small_spec(algorithm="oneshot", link="sign", m=3000))
        assert math.isnan(rec.l2_err)
        assert np.isfinite(rec.cosine)

    def test_capability_mismatch_propagates(self):
        with pytest.raises(CapabilityError):
            run_trial(small_spec(link="sign"))

    def test_noisy_trial_runs(self):
        rec = run_trial(small_spec(tau=0.1, m=400))
        assert np.isfinite(rec.cosine)
        assert np.isfinite(rec.l2_err)

    def test_success_threshold_applied(self):
        strict = run_trial(small_spec(algorithm="oneshot", success_threshold=0.999))
        lax = run_trial(small_spec(algorithm="oneshot", success_threshold=0.05))
        assert not strict.success
        assert lax.success

    @pytest.mark.parametrize("algorithm", ["oneshot", "dht", "dst", "nlcdlasso"])
    def test_all_algorithms_run(self, algorithm):
        rec = run_trial(small_spec(algorithm=algorithm))
        assert -1.0 <= rec.cosine <= 1.0
        assert rec.spec.algorithm == algorithm


@pytest.fixture
def builds(monkeypatch):
    """Empties the instance cache and records the spec of every build."""
    specs = []
    build = harness._build_instance

    def counting(spec):
        specs.append(spec)
        return build(spec)

    monkeypatch.setattr(harness, "_last_instance", None)
    monkeypatch.setattr(harness, "_build_instance", counting)
    return specs


class TestInstanceReuse:
    @staticmethod
    def _untimed(rec):
        return replace(rec, wall_time_ms=0.0)

    def test_warm_cache_matches_cold_build(self, builds, monkeypatch):
        base = small_spec()
        warm = [run_trial(replace(base, algorithm=a)) for a in ALGORITHMS]
        assert len(builds) == 1
        for rec in warm:
            monkeypatch.setattr(harness, "_last_instance", None)
            cold = run_trial(rec.spec)
            assert self._untimed(cold) == self._untimed(rec)
        assert len(builds) == 1 + len(ALGORITHMS)

    def test_cached_arrays_are_read_only(self, builds):
        run_trial(small_spec())
        problem, w, z, x = harness._last_instance[1]
        for array in (problem.y, w, z, x, problem.A.dense()):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_old_instance_freed_before_next_draw(self, builds, monkeypatch):
        run_trial(small_spec(algorithm="oneshot"))
        old = weakref.ref(harness._last_instance[1][0].A)
        alive_at_draw = []
        draw = harness.sample_operator

        def checking(*args):
            alive_at_draw.append(old() is not None)
            return draw(*args)

        monkeypatch.setattr(harness, "sample_operator", checking)
        run_trial(small_spec(algorithm="oneshot", seed=43))
        assert alive_at_draw == [False]

    def test_only_instance_fields_cause_a_build(self, builds):
        base = small_spec(algorithm="oneshot")
        run_trial(base)
        for kw in (
            dict(algorithm="dst"),
            dict(solver=SolverConfig(max_iters=5)),
            dict(algorithm="dht", solver=SolverConfig(init=np.zeros(2 * base.n))),
            dict(success_threshold=0.5),
        ):
            run_trial(replace(base, **kw))
        assert len(builds) == 1
        for kw in (
            dict(seed=43), dict(m=150), dict(tau=0.1), dict(link_radius=10.0),
            dict(basis_phi="haar"), dict(basis_psi="haar"),
        ):
            before = len(builds)
            run_trial(replace(base, **kw))
            assert len(builds) == before + 1, kw
            run_trial(base)
            assert len(builds) == before + 2, kw


class TestRunPhaseGrid:
    def test_counts_and_probabilities(self):
        base = small_spec(algorithm="oneshot", success_threshold=0.5)
        grid = run_phase_grid([2, 3], [80, 160], trials=3, base=base)
        assert grid.successes.shape == (2, 2)
        assert grid.prob.shape == (2, 2)
        np.testing.assert_allclose(grid.prob, grid.successes / 3.0)
        assert grid.trials == 3
        assert grid.s_values == (2, 3)
        assert grid.m_values == (80, 160)

    def test_deterministic(self):
        base = small_spec(algorithm="oneshot")
        g1 = run_phase_grid([2], [80, 160], trials=4, base=base)
        g2 = run_phase_grid([2], [80, 160], trials=4, base=base)
        np.testing.assert_array_equal(g1.successes, g2.successes)

    def test_cells_keyed_by_values_not_position(self):
        # dropping rows or columns must not change the surviving cells
        base = small_spec(algorithm="oneshot", success_threshold=0.9)
        full = run_phase_grid([2, 3], [80, 160], trials=4, base=base)
        col = run_phase_grid([2, 3], [160], trials=4, base=base)
        np.testing.assert_array_equal(full.successes[:, 1], col.successes[:, 0])
        row = run_phase_grid([3], [80, 160], trials=4, base=base)
        np.testing.assert_array_equal(full.successes[1, :], row.successes[0, :])

    def test_parallel_matches_serial(self):
        base = small_spec(algorithm="oneshot", n=64, m=60)
        serial = run_phase_grid([2], [60], trials=2, base=base, workers=1)
        parallel = run_phase_grid([2], [60], trials=2, base=base, workers=2)
        np.testing.assert_array_equal(serial.successes, parallel.successes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_algorithms_match_separate_grids(self, workers):
        base = small_spec(n=64, success_threshold=0.95,
                          solver=SolverConfig(max_iters=30, rel_tol=1e-6))
        grids = run_phase_grid([2, 4], [40, 90], trials=3, base=base,
                               workers=workers, algorithms=ALGORITHMS)
        assert list(grids) == list(ALGORITHMS)
        for algorithm, grid in grids.items():
            alone = run_phase_grid([2, 4], [40, 90], trials=3,
                                   base=replace(base, algorithm=algorithm))
            assert (grid.s_values, grid.m_values, grid.trials) == ((2, 4), (40, 90), 3)
            np.testing.assert_array_equal(grid.successes, alone.successes)
            np.testing.assert_array_equal(grid.prob, alone.prob)
        assert 0 < sum(int(g.successes.sum()) for g in grids.values()) < 4 * 4 * 3

    def test_algorithms_build_each_instance_once(self, builds):
        run_phase_grid([2, 3], [80], trials=2, base=small_spec(), algorithms=ALGORITHMS)
        assert len(builds) == 2 * 1 * 2

    def test_validation(self):
        base = small_spec()
        for algorithms in ((), ("dht", "dht"), ("omp",)):
            with pytest.raises(ValueError):
                run_phase_grid([2], [100], trials=2, base=base, algorithms=algorithms)
        with pytest.raises(ValueError):
            run_phase_grid([], [100], trials=2, base=base)
        with pytest.raises(ValueError):
            run_phase_grid([2], [], trials=2, base=base)
        with pytest.raises(ValueError):
            run_phase_grid([2], [100], trials=0, base=base)


class TestRunBenchmark:
    def test_rows_and_fields(self):
        specs = [small_spec(algorithm="oneshot"), small_spec(algorithm="dht")]
        rows = run_benchmark(specs, repeats=3)
        assert [r["algorithm"] for r in rows] == ["oneshot", "dht"]
        for row in rows:
            assert row["repeats"] == 3
            assert row["median_ms"] > 0
            assert row["n"] == 128 and row["s"] == 3 and row["m"] == 160
            assert row["iters"] >= 0

    def test_algorithms_share_one_build(self, builds):
        run_benchmark([small_spec(algorithm=a) for a in ALGORITHMS], repeats=1)
        assert len(builds) == 1


class TestCsv:
    def test_trial_csv_round_trip(self):
        recs = [
            run_trial(small_spec(algorithm="oneshot")),
            run_trial(small_spec(algorithm="oneshot", link="sign", m=500)),
        ]
        buf = io.StringIO()
        write_csv(recs, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(TRIAL_CSV_FIELDS)
        assert len(lines) == 3
        first = dict(zip(TRIAL_CSV_FIELDS, lines[1].split(",")))
        assert first["algorithm"] == "oneshot"
        assert int(first["n"]) == 128
        assert float(first["cosine"]) == recs[0].cosine  # repr round-trips
        assert first["success"] in ("true", "false")
        second = dict(zip(TRIAL_CSV_FIELDS, lines[2].split(",")))
        assert second["l2_err"] == "nan"

    def test_phase_csv_layout(self):
        base = small_spec(algorithm="oneshot")
        grid = run_phase_grid([2], [80, 160], trials=2, base=base)
        buf = io.StringIO()
        write_csv(grid, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == ",".join(PHASE_CSV_FIELDS)
        assert len(lines) == 3
        row = dict(zip(PHASE_CSV_FIELDS, lines[1].split(",")))
        assert (int(row["s"]), int(row["m"]), int(row["trials"])) == (2, 80, 2)
        assert float(row["prob"]) == grid.prob[0, 0]

    def test_benchmark_csv_uses_dict_keys(self):
        rows = run_benchmark([small_spec(algorithm="oneshot")], repeats=2)
        buf = io.StringIO()
        write_csv(rows, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "algorithm,n,s,m,link,repeats,median_ms,iters"

    def test_empty_payload_writes_header_only(self):
        buf = io.StringIO()
        write_csv([], buf)
        assert buf.getvalue() == ",".join(TRIAL_CSV_FIELDS) + "\n"

    def test_export_writes_lf_utf8(self, tmp_path):
        path = tmp_path / "out.csv"
        export_csv([run_trial(small_spec(algorithm="oneshot"))], str(path))
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8").count("\n") == 2

    def test_export_is_byte_stable(self, tmp_path):
        base = small_spec(algorithm="oneshot")
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        export_csv(run_phase_grid([2], [80], trials=2, base=base), str(p1))
        export_csv(run_phase_grid([2], [80], trials=2, base=base), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_export_bad_path_raises(self, tmp_path):
        missing = os.path.join(str(tmp_path), "no_such_dir", "out.csv")
        with pytest.raises(OSError):
            export_csv([], missing)
