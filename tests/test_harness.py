"""Experiment harness: seeding discipline, trials, grids, CSV round trips."""

import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from nldemix import diagnostics, harness, measurement, solvers
from nldemix.harness import (
    ALGORITHMS,
    PHASE_CSV_FIELDS,
    TRIAL_CSV_FIELDS,
    PhaseGrid,
    TrialSpec,
    child_seed,
    generate_signal,
    run_benchmark,
    run_phase_grid,
    run_trial,
    write_csv,
)
from nldemix.links import CapabilityError
from nldemix.measurement import sample_operator
from nldemix.solvers import SolverConfig
from nldemix.transforms import Basis, Dictionary, basis_apply
from planted import openblas_threads


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

    def test_sparsity_must_be_a_nonnegative_integer(self):
        # Unchecked, -1 would draw zero signals and 2.5 would reach rng.choice.
        d = Dictionary(Basis("identity", 16), Basis("dct", 16))
        with pytest.raises(ValueError, match="s must be >= 0, got -1"):
            generate_signal(16, -1, seed=0, dictionary=d)
        for bad in (2.5, True, np.nan):
            with pytest.raises(ValueError, match="s must be an integer"):
                generate_signal(16, bad, seed=0, dictionary=d)


class TestBuildInstance:
    @pytest.mark.parametrize("bases", [("identity", "dct"), ("haar", "dct"), ("dct", "haar")],
                             ids="-".join)
    def test_planted_truth_is_the_stacked_signal(self, bases):
        # t* = [w; z] of the signal drawn from stream 0, and x = Gamma t*.
        spec = TrialSpec(n=32, s=3, m=20, basis_phi=bases[0], basis_psi=bases[1], seed=11)
        _, t_star, x = harness._build_instance(spec)
        d = Dictionary(Basis(bases[0], 32), Basis(bases[1], 32))
        w, z, x_drawn = generate_signal(32, 3, child_seed(11, 0), d)
        assert t_star.shape == (64,)
        np.testing.assert_array_equal(t_star[:32], w)
        np.testing.assert_array_equal(t_star[32:], z)
        np.testing.assert_array_equal(x, x_drawn)
        np.testing.assert_array_equal(x, harness.dict_apply(d, t_star))


class TestTrialSpecValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            TrialSpec(n=0)
        with pytest.raises(ValueError):
            TrialSpec(m=0)
        with pytest.raises(ValueError):
            TrialSpec(n=16, s=17)
        with pytest.raises(ValueError):
            TrialSpec(algorithm="omp")
        with pytest.raises(ValueError):
            TrialSpec(tau=-0.1)
        for bad in (np.nan, np.inf, -np.inf, True, "0.1", None, 10**400, np.longdouble("1e400")):
            with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
                TrialSpec(tau=bad)
        for name in ("n", "s", "m", "seed"):
            for bad in (2.5, 3.0, np.nan, True, "abc"):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    TrialSpec(**{name: bad})
        spec = TrialSpec(n=np.int64(16), s=np.int32(2), m=np.uint16(8), seed=np.uint64(7))
        assert (spec.n, spec.s, spec.m, spec.seed) == (16, 2, 8, 7)

    def test_success_rule_is_a_constant(self):
        # A class constant, not a field: perfbench reads it off a default spec.
        assert "success_threshold" not in {f.name for f in fields(TrialSpec)}
        assert TrialSpec().success_threshold == 0.99
        with pytest.raises(TypeError):
            TrialSpec(success_threshold=0.5)
        with pytest.raises(TypeError):
            replace(TrialSpec(), success_threshold=0.5)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(link="foo"), "unknown link 'foo'; expected one of"),
        (dict(ensemble="bar"), "unknown ensemble kind 'bar'; expected one of"),
        (dict(basis_phi="baz"), "unknown basis kind 'baz'; expected one of"),
        (dict(n=100, basis_psi="haar"), "haar basis requires n to be a power of two, got 100"),
        (dict(n=64, m=5000, ensemble="subfast"), "subfast requires m <= n, got m=5000, n=64"),
    ], ids=["link", "ensemble", "basis", "haar-n", "subfast-m"])
    def test_rejects_what_its_build_would_reject(self, kwargs, message):
        # Unchecked, each would fail only inside run_trial, in a worker process
        # when workers > 1; the message is the build's own.
        with pytest.raises(ValueError, match=f"^{message}"):
            TrialSpec(**kwargs)

    @pytest.mark.parametrize("solver", [{}, None, "dht"], ids=["dict", "None", "str"])
    def test_solver_must_be_a_solver_config(self, solver):
        # A dict used to construct, then fail inside run_trial (or be ignored by oneshot).
        message = f"^solver must be a SolverConfig, got {type(solver).__name__}$"
        for algorithm in ("dht", "oneshot"):
            with pytest.raises(ValueError, match=message):
                TrialSpec(n=16, s=1, m=20, algorithm=algorithm, solver=solver)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_array_init_must_have_length_2n(self, algorithm):
        # Unchecked, a bad init failed inside run_trial (dht, dst) or was
        # ignored (oneshot, nlcdlasso).
        solver = SolverConfig(init=np.zeros(5))
        message = r"^init must be a vector of length 32, got shape \(5,\)$"
        with pytest.raises(ValueError, match=message):
            TrialSpec(n=16, s=1, m=20, algorithm=algorithm, solver=solver)

    def test_spec_with_array_init_compares_and_hashes(self):
        def spec(init):
            return TrialSpec(n=16, s=1, m=8, solver=SolverConfig(init=init))

        assert spec(np.zeros(32)) == spec(np.zeros(32))
        assert hash(spec(np.zeros(32))) == hash(spec(np.zeros(32)))
        assert spec(np.zeros(32)) != spec(np.ones(32))


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

    @pytest.mark.parametrize("run", [run_trial, lambda spec: run_benchmark([spec], repeats=1)],
                             ids=["trial", "bench"])
    def test_dst_default_beta_is_computed_outside_the_timed_solve(self, monkeypatch, run):
        # the default beta reads link_constants of the link and of linsin;
        # each is a quadrature, cached after the first dst solve per link
        calls = []
        timing = []
        quadrature, solve = diagnostics.link_constants, harness._solve

        def counted(link):
            calls.append(bool(timing))
            return quadrature(link)

        def timed(*args):
            timing.append(True)
            try:
                return solve(*args)
            finally:
                timing.clear()

        monkeypatch.setattr(diagnostics, "link_constants", counted)
        monkeypatch.setattr(harness, "_solve", timed)
        solvers._default_dst_beta.cache_clear()
        run(small_spec(algorithm="dst", link="logistic"))
        assert calls == [False, False]

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

    def test_success_is_cosine_at_least_0_99(self):
        records = [run_trial(small_spec(algorithm="oneshot", m=m)) for m in (40, 80, 120, 160)]
        cosines = [rec.cosine for rec in records]
        assert min(cosines) < 0.99 <= max(cosines)  # both sides of the rule
        for rec in records:
            assert rec.success == (rec.cosine >= 0.99)

    @pytest.mark.parametrize("algorithm", ["oneshot", "dht", "dst", "nlcdlasso"])
    def test_all_algorithms_run(self, algorithm):
        rec = run_trial(small_spec(algorithm=algorithm))
        assert -1.0 <= rec.cosine <= 1.0
        assert rec.spec.algorithm == algorithm


# The paper's headline against the convex baseline at its best swept radius,
# not only at the default 2 sqrt(s).  Cells, seeds and radii are fixed.
HEADLINE_CELLS = (
    (2, 100), (3, 150),
    pytest.param(5, 200, marks=pytest.mark.xfail(strict=True, reason=(
        "nlcd_lasso at 2x the default radius has mean cosine 0.8285 over 8 trials, "
        "above oneshot's 0.8207"))),
    (5, 400), (10, 400), (10, 800),
)
HEADLINE_TRIALS = 8
HEADLINE_RADII = (1, 2, 4, 8)  # multiples of the default radius 2 sqrt(s)


@pytest.mark.parametrize("s, m", HEADLINE_CELLS)
def test_oneshot_beats_nlcd_lasso_at_its_best_radius(s, m):
    base = TrialSpec(n=1024, s=s, m=m, link="linsin", algorithm="oneshot")
    oneshot_cos, lasso_cos = [], []
    for k in range(HEADLINE_TRIALS):  # trial-major, so each instance is built once
        spec = replace(base, seed=child_seed(0, s, m, k))
        oneshot_cos.append(run_trial(spec).cosine)
        lasso_cos.append([run_trial(replace(
            spec, algorithm="nlcdlasso",
            solver=SolverConfig(lasso_radius=a * 2.0 * math.sqrt(s)))).cosine
            for a in HEADLINE_RADII])
    lasso_means = np.mean(lasso_cos, axis=0)
    assert np.mean(oneshot_cos) > lasso_means.max(), (
        f"oneshot {np.mean(oneshot_cos):.4f} vs nlcd_lasso "
        f"{dict(zip(HEADLINE_RADII, lasso_means.round(4)))} by radius multiple")


# The paper's sample-complexity claim where dht's transitions are: the first m
# at which at least half the trials succeed (m50) grows like s ln(n/s).  The
# band was fixed from base seeds 11-20 on this grid (3.21-5.13 across
# s = 2, 4, 8), before the test's own seed was run.
COMPLEXITY_S = (2, 4, 8)
COMPLEXITY_M = (40, 48, 57, 68, 81, 97, 116, 139, 166, 199)  # about 1.2x apart
COMPLEXITY_BAND = (3.0, 5.5)


def test_sample_complexity_grows_like_s_log_n_over_s():
    n = 1024
    base = TrialSpec(n=n, link="linsin", solver=SolverConfig(max_iters=150, rel_tol=1e-6),
                     seed=1)
    grids = run_phase_grid(COMPLEXITY_S, COMPLEXITY_M, trials=8, base=base, workers=2,
                           algorithms=("dht", "oneshot"))
    m50 = {}
    for name, grid in grids.items():
        reached = [np.flatnonzero(2 * row >= grid.trials) for row in grid.successes]
        m50[name] = [COMPLEXITY_M[ok[0]] if ok.size else None for ok in reached]
    ratios = [None if m is None else m / (s * math.log(n / s))
              for s, m in zip(COMPLEXITY_S, m50["dht"])]
    lo, hi = COMPLEXITY_BAND
    assert all(r is not None and lo <= r <= hi for r in ratios), (m50, ratios)
    both = [(d, o) for d, o in zip(m50["dht"], m50["oneshot"]) if o is not None]
    assert both and all(o > d for d, o in both), m50


@pytest.fixture
def builds(monkeypatch):
    """Empties the instance cache and the spare buffer a gaussian draw may
    refill, and records the spec of every build."""
    specs = []
    build = harness._build_instance

    def counting(spec):
        specs.append(spec)
        return build(spec)

    monkeypatch.setattr(harness, "_last_instance", None)
    measurement._spare.clear()  # after the evicted instance has released its buffer
    monkeypatch.setattr(harness, "_build_instance", counting)
    return specs


def _cached_matrix() -> np.ndarray:
    return harness._last_instance[1][0].A.dense()


def _address(array: np.ndarray) -> int:
    return array.__array_interface__["data"][0]


def _memory(matrix: np.ndarray) -> np.ndarray:
    """The array that owns a matrix's memory: a gaussian one's private buffer."""
    return matrix if matrix.base is None else matrix.base.base.obj


def _watch_pages(monkeypatch) -> list[bool]:
    """Records, at each operator draw, whether the memory of the cached
    matrix is still alive where the draw allocates: right after measurement
    has taken the spare it may refill, or dropped it.  The list holds no
    reference to it."""
    memory = weakref.ref(_memory(_cached_matrix()))
    alive = []
    take = measurement._take_spare

    def checking(*args):
        refill = take(*args)
        alive.append(memory() is not None)
        return refill

    monkeypatch.setattr(measurement, "_take_spare", checking)
    return alive


_HOLDERS = {  # what a caller keeps of an instance, and how to read its matrix back
    "problem": (lambda problem: problem, lambda held: held.A.dense()),
    "operator": (lambda problem: problem.A, lambda held: held.dense()),
    "matrix": (lambda problem: problem.A.dense(), lambda held: held),
    "view": (lambda problem: problem.A.dense()[:10], lambda held: held),
    "view of a view": (lambda problem: problem.A.dense()[:10][:, :5], lambda held: held),
    "memoryview": (lambda problem: memoryview(problem.A.dense()), lambda held: np.asarray(held)),
    "pages": (lambda problem: problem.A.dense().base, lambda held: held),
}


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
        run_trial(small_spec(algorithm="oneshot", seed=43))  # refills the evicted matrix
        problem, t_star, x = harness._last_instance[1]
        refilled = problem.A.dense()
        fresh = sample_operator("gaussian", 4, 8, 0).dense()
        for array in (problem.y, t_star, x, refilled, refilled.base, fresh):
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_built_arrays_are_read_only_outside_the_cache(self):
        # The diag commands read an instance from _build_instance directly.
        problem, t_star, x = harness._build_instance(small_spec())
        for array in (problem.y, problem.A.dense(), t_star, x):
            assert not array.flags.writeable

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

    @pytest.mark.parametrize("m", [80, 160])
    def test_evicted_matrix_is_refilled_with_a_cold_draw(self, builds, m):
        run_trial(small_spec(algorithm="oneshot"))
        owner = weakref.ref(_memory(_cached_matrix()))  # holds no reference to it
        spec = small_spec(algorithm="oneshot", m=m, seed=43)
        run_trial(spec)
        warm = harness._last_instance[1]
        # the evicted buffer itself, not a fresh array at the same address
        assert _memory(warm[0].A.dense()) is owner()
        cold = harness._build_instance(spec)
        for a, b in zip((warm[0].A.dense(), warm[0].y, *warm[1:]),
                        (cold[0].A.dense(), cold[0].y, *cold[1:])):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    def test_evicted_grid_matrix_is_refilled_by_the_next_cell(self, builds, monkeypatch):
        # Two trials of one m=1600 cell at the benchmark grid's n: the
        # second cell's draw refills the buffer the first cell's eviction left.
        owners = []
        build = harness._build_instance

        def recording(spec):
            instance = build(spec)
            owners.append(weakref.ref(_memory(instance[0].A.dense())))
            return instance

        monkeypatch.setattr(harness, "_build_instance", recording)
        run_phase_grid((2,), (1600,), 2, TrialSpec(n=4096, algorithm="oneshot", seed=3))
        assert len(builds) == 2 and owners[0]() is not None and owners[1]() is owners[0]()
        warm = harness._last_instance[1]
        cold = build(builds[1])
        for a, b in zip((warm[0].A.dense(), warm[0].y, *warm[1:]),
                        (cold[0].A.dense(), cold[0].y, *cold[1:])):
            np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))

    @pytest.mark.parametrize("holder", list(_HOLDERS))
    def test_held_matrix_is_never_refilled(self, builds, holder):
        hold, read = _HOLDERS[holder]
        run_trial(small_spec(algorithm="oneshot"))
        held = hold(harness._last_instance[1][0])
        values = read(held).copy()
        address = _address(_cached_matrix())
        run_trial(small_spec(algorithm="oneshot", seed=43))
        assert _address(_cached_matrix()) != address
        np.testing.assert_array_equal(read(held), values)

    def test_larger_operator_frees_the_old_pages_before_its_draw(self, builds, monkeypatch):
        run_trial(small_spec(algorithm="oneshot", m=80))
        alive_at_draw = _watch_pages(monkeypatch)
        run_trial(small_spec(algorithm="oneshot", m=160, seed=43))
        assert alive_at_draw == [False]

    @pytest.mark.parametrize("old, new", [("gaussian", "rademacher"), ("rademacher", "gaussian"),
                                          ("gaussian", "subfast")])
    def test_only_gaussian_matrices_are_refilled(self, builds, monkeypatch, old, new):
        run_trial(small_spec(algorithm="oneshot", m=120, ensemble=old))
        alive_at_draw = _watch_pages(monkeypatch)
        run_trial(small_spec(algorithm="oneshot", m=100, ensemble=new, seed=43))
        assert alive_at_draw == [False]

    def test_only_instance_fields_cause_a_build(self, builds):
        base = small_spec(algorithm="oneshot")
        run_trial(base)
        for kw in (
            dict(algorithm="dst"),
            dict(solver=SolverConfig(max_iters=5)),
            dict(algorithm="dht", solver=SolverConfig(init=np.zeros(2 * base.n))),
        ):
            run_trial(replace(base, **kw))
        assert len(builds) == 1
        for kw in (
            dict(seed=43), dict(m=150), dict(tau=0.1),
            dict(basis_phi="haar"), dict(basis_psi="haar"),
        ):
            before = len(builds)
            run_trial(replace(base, **kw))
            assert len(builds) == before + 1, kw
            run_trial(base)
            assert len(builds) == before + 2, kw


class TestRunPhaseGrid:
    def test_counts_and_probabilities(self):
        base = small_spec(algorithm="oneshot")
        grid = run_phase_grid([2, 3], [80, 160], trials=3, base=base)
        assert grid.successes.shape == (2, 2)
        assert grid.prob.shape == (2, 2)
        np.testing.assert_allclose(grid.prob, grid.successes / 3.0)
        assert grid.trials == 3
        assert grid.s_values == (2, 3)
        assert grid.m_values == (80, 160)

    def test_prob_follows_successes_and_trials(self):
        grid = PhaseGrid(s_values=(1,), m_values=(8, 16), trials=4,
                         successes=np.array([[3, 4]]))
        np.testing.assert_array_equal(grid.prob, [[0.75, 1.0]])
        with pytest.raises(TypeError):
            PhaseGrid(s_values=(1,), m_values=(8,), trials=1,
                      successes=np.array([[1]]), prob=np.array([[1.0]]))

    def test_deterministic(self):
        base = small_spec(algorithm="oneshot")
        g1 = run_phase_grid([2], [80, 160], trials=4, base=base)
        g2 = run_phase_grid([2], [80, 160], trials=4, base=base)
        np.testing.assert_array_equal(g1.successes, g2.successes)
        # A grid holds an array: == and hash are identity, and neither raises.
        assert g1 == g1 and g1 != g2
        assert hash(g1) == hash(g1) and len({g1, g2}) == 2

    def test_successes_are_a_read_only_copy(self):
        counts = np.array([[3, 4]])
        grid = PhaseGrid(s_values=(1,), m_values=(8, 16), trials=4, successes=counts)
        counts[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            grid.successes[0, 0] = 99
        np.testing.assert_array_equal(grid.prob, [[0.75, 1.0]])
        grids = run_phase_grid([2], [80], trials=1, base=small_spec(algorithm="oneshot"),
                               algorithms=("oneshot", "dht"))
        assert not any(g.successes.flags.writeable for g in grids.values())

    def test_cells_keyed_by_values_not_position(self):
        # dropping rows or columns must not change the surviving cells
        base = small_spec(algorithm="oneshot")
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

    # A one-cell grid gets no pool at all: it runs serially.
    @pytest.mark.parametrize("trials, workers, sizes", [(2, 5000, [2]), (1, 4, [])],
                             ids=["capped", "one-cell"])
    def test_pool_has_no_more_workers_than_cells(self, monkeypatch, trials, workers, sizes):
        # A serial stand-in for the pool, looked up at call time: it records
        # the size asked for and starts no process.
        import concurrent.futures

        asked = []

        class SerialPool:
            def __init__(self, max_workers, mp_context, initializer, initargs):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables, chunksize=1):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        base = small_spec(algorithm="oneshot", n=64, m=60)
        pooled = run_phase_grid([2], [60], trials=trials, base=base, workers=workers)
        assert asked == sizes
        serial = run_phase_grid([2], [60], trials=trials, base=base)
        np.testing.assert_array_equal(pooled.successes, serial.successes)

    def test_worker_loads_openblas_paths_with_spaces(self, monkeypatch):
        # Stand-ins for the maps file and for ctypes.CDLL: no library is
        # loaded, and this process's BLAS is not touched.
        import ctypes

        path = "/home/me/py envs/numpy.libs/libscipy_openblas64_-32a4b2a6.so"
        maps = (f"7f3a1c000000-7f3a1c200000 r-xp 00000000 fd:01 4211  {path}\n"
                "7f3a1d000000-7f3a1d001000 r--p 00000000 fd:01 4212  /usr/lib/libm.so.6\n")
        monkeypatch.setattr(harness, "open", lambda *a, **k: io.StringIO(maps), raising=False)
        loaded, threads = [], []

        class Library:
            def __init__(self, name):
                loaded.append(name)
                self.scipy_openblas_set_num_threads64_ = lambda k: threads.append(k)

        monkeypatch.setattr(ctypes, "CDLL", Library)
        harness._share_cpus(2)
        assert loaded == [path]
        assert threads == [max(1, len(os.sched_getaffinity(0)) // 2)]

    def test_pool_workers_get_their_share_of_the_cpus(self, monkeypatch):
        # run_phase_grid's own pool, probed once before it maps the cells: its
        # worker's OpenBLAS runs max(1, cpus // workers) threads.
        import concurrent.futures

        if not openblas_threads():
            pytest.skip("numpy is not linked against OpenBLAS")
        seen = []

        class ProbedPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                seen.append(self.submit(openblas_threads).result(timeout=120))
                return super().map(fn, *iterables, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", ProbedPool)
        base = small_spec(algorithm="oneshot", n=64, m=60)
        pooled = run_phase_grid([2], [60], trials=2, base=base, workers=2)
        share = max(1, len(os.sched_getaffinity(0)) // 2)
        assert len(seen) == 1 and seen[0] and set(seen[0].values()) == {share}
        serial = run_phase_grid([2], [60], trials=2, base=base)
        np.testing.assert_array_equal(pooled.successes, serial.successes)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_algorithms_match_separate_grids(self, workers):
        base = small_spec(n=64, solver=SolverConfig(max_iters=30, rel_tol=1e-6))
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

    def test_unknown_algorithm_fails_before_any_build(self, builds):
        with pytest.raises(ValueError, match="^unknown algorithm 'bogus'; expected one of"):
            run_phase_grid([2], [100], trials=1, base=small_spec(),
                           algorithms=("dht", "dst", "bogus"))
        assert builds == []

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
        with pytest.raises(ValueError, match="workers must be >= 1, got 0"):
            run_phase_grid([2], [100], trials=2, base=base, workers=0)
        # Unchecked, these reach the seed derivation and fail inside numpy.
        with pytest.raises(ValueError, match="s must be >= 0, got -1"):
            run_phase_grid([-1], [100], trials=1, base=base)
        with pytest.raises(ValueError, match="m must be >= 1, got -5"):
            run_phase_grid([2], [-5], trials=1, base=base)
        with pytest.raises(ValueError, match="^algorithms must be a sequence of names, got 'dht'$"):
            run_phase_grid([2], [100], trials=1, base=base, algorithms="dht")
        for name, kw in (("s_values", dict(s_values=2)), ("s_values", dict(s_values="2,3")),
                         ("m_values", dict(m_values=100)), ("m_values", dict(m_values="100"))):
            args = {"s_values": [2], "m_values": [100], "trials": 1, **kw}
            with pytest.raises(ValueError, match=f"{name} must be a sequence of integers"):
                run_phase_grid(base=base, **args)
        for bad in (True, 2.5, np.nan, "2"):
            for name, kw in (("s", dict(s_values=[2, bad])), ("m", dict(m_values=[bad])),
                             ("trials", dict(trials=bad)), ("workers", dict(workers=bad))):
                args = {"s_values": [2], "m_values": [100], "trials": 1, **kw}
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    run_phase_grid(base=base, **args)
        grid = run_phase_grid(np.array([2]), [np.int64(80)], trials=np.int32(1),
                              base=replace(base, algorithm="oneshot"), workers=np.int64(1))
        assert (grid.s_values, grid.m_values, grid.trials) == ((2,), (80,), 1)
        assert all(type(v) is int for v in (*grid.s_values, *grid.m_values, grid.trials))

    def test_single_algorithm_grids_on_one_cell_share_one_build(self, builds):
        # The phase-grid benchmark workload makes one such call per algorithm.
        base = small_spec()
        for a in ALGORITHMS:
            run_phase_grid((3,), (160,), 1, replace(base, algorithm=a))
        assert len(builds) == 1


# Run in a child interpreter per BLAS thread count: dht, dst and nlcd_lasso
# with the auto step's GEMM, and a four-algorithm phase grid, at sizes where
# OpenBLAS threads its GEMV (m * n >= 9216).  It prints a digest of every
# estimate, trace and success count, and the thread count OpenBLAS reports.
THREAD_CHILD = """
import hashlib, json
from nldemix.harness import ALGORITHMS, TrialSpec, _build_instance, run_phase_grid
from nldemix.solvers import SolverConfig, dht, dst, nlcd_lasso
from planted import openblas_threads

config = SolverConfig(max_iters=150, rel_tol=1e-6)
digest = hashlib.sha256()
for n, s, m in ((512, 5, 256), (1024, 8, 400)):
    problem = _build_instance(TrialSpec(n=n, s=s, m=m, solver=config, seed=7))[0]
    for solve in (dht, dst, nlcd_lasso):
        result = solve(problem, config)
        digest.update(result.t_hat.tobytes())
        digest.update(repr(result.trace).encode())
grids = run_phase_grid((3, 6), (150, 300), 2, TrialSpec(n=512, solver=config, seed=7),
                       algorithms=ALGORITHMS)
for grid in grids.values():
    digest.update(grid.successes.tobytes())
print(json.dumps([digest.hexdigest(), openblas_threads()]))
"""


def test_outputs_do_not_depend_on_the_blas_thread_count():
    # The benchmark's one-thread fingerprints, the golden CSVs recorded at the
    # default thread count and the pool workers' thread cap all rely on this.
    tests = Path(__file__).resolve().parent
    digests, threads = {}, {}
    for k in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": k, "OMP_NUM_THREADS": k,
               "PYTHONPATH": os.pathsep.join([str(tests.parent / "src"), str(tests)])}
        proc = subprocess.run([sys.executable, "-c", THREAD_CHILD], capture_output=True,
                              text=True, timeout=300, env=env)
        assert proc.returncode == 0, proc.stderr
        digests[k], threads[k] = json.loads(proc.stdout)
    if not threads["1"]:
        pytest.skip("numpy is not linked against OpenBLAS")
    if min(threads["2"].values()) < 2:
        pytest.skip(f"OpenBLAS runs {threads['2']} threads when asked for 2")
    assert set(threads["1"].values()) == {1}
    assert digests["1"] == digests["2"]


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

    def test_validation(self):
        specs = [small_spec(algorithm="oneshot")]
        for bad in (0, -1):
            with pytest.raises(ValueError, match=f"repeats must be >= 1, got {bad}"):
                run_benchmark(specs, repeats=bad)
        for bad in (True, 2.5, np.nan, "3"):
            with pytest.raises(ValueError, match="repeats must be an integer"):
                run_benchmark(specs, repeats=bad)
        (row,) = run_benchmark(specs, repeats=np.int64(2))
        assert row["repeats"] == 2 and type(row["repeats"]) is int

    @pytest.mark.parametrize("specs, message", [
        ([small_spec(), "dht"], "spec must be a TrialSpec, got str"),
        ([small_spec(), small_spec(algorithm="dst"), small_spec()],
         "specs must be distinct and non-empty, got [TrialSpec(n=1...lse), seed=42), "
         "TrialSpec(n=1...lse), seed=42), TrialSpec(n=1...lse), seed=42)]; "
         "entry 2 repeats entry 0"),
    ], ids=["not-a-spec", "repeated"])
    def test_specs_are_checked_before_any_build(self, builds, specs, message):
        # Unchecked, the first spec was built and timed before the bad one
        # failed, and a repeated spec timed the same solves twice.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_benchmark(specs, repeats=1)
        assert builds == []

    def test_algorithms_share_one_build(self, builds):
        run_benchmark([small_spec(algorithm=a) for a in ALGORITHMS], repeats=1)
        assert len(builds) == 1

    def test_previous_operator_freed_before_next_draw(self, builds, monkeypatch):
        drawn, alive_at_draw = [], []
        draw = harness.sample_operator

        def checking(*args):
            alive_at_draw.append([op() is not None for op in drawn])
            A = draw(*args)
            drawn.append(weakref.ref(A))
            return A

        monkeypatch.setattr(harness, "sample_operator", checking)
        run_benchmark([small_spec(algorithm="oneshot", seed=seed) for seed in (42, 43)],
                      repeats=2)
        assert alive_at_draw == [[], [False]]

    def test_every_repeat_times_a_whole_solve(self, monkeypatch):
        estimates = []
        estimate = diagnostics.estimate_rsc_rss

        def counted(*args, **kwargs):
            estimates.append(args)
            return estimate(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "estimate_rsc_rss", counted)
        run_benchmark([small_spec(algorithm="dht")], repeats=3)
        assert len(estimates) == 3


class TestCallTimeLookups:
    """Names that are looked up when called, so that patching them reaches
    every later call; the benchmark's solve capture and tracer rely on it."""

    @staticmethod
    def spy_on(monkeypatch, module, name) -> list:
        calls = []
        fn = getattr(module, name)

        def spy(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, spy)
        return calls

    @pytest.mark.parametrize("name, algorithm", [
        ("oneshot", "oneshot"), ("dht", "dht"), ("dst", "dst"), ("nlcd_lasso", "nlcdlasso"),
    ])
    def test_run_trial_calls_the_solver_in_harness_globals(self, monkeypatch, name, algorithm):
        calls = self.spy_on(monkeypatch, harness, name)
        run_trial(small_spec(algorithm=algorithm, solver=SolverConfig(max_iters=5)))
        assert calls == [name]

    def test_auto_step_calls_the_estimate_in_diagnostics(self, monkeypatch):
        calls = self.spy_on(monkeypatch, diagnostics, "estimate_rsc_rss")
        problem = harness._build_instance(small_spec())[0]
        harness.dht(problem, SolverConfig(max_iters=5))
        assert calls == ["estimate_rsc_rss"]


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
        write_csv(grid.rows(), buf)
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

    def test_rows_are_keyed_in_column_order(self):
        rec = run_trial(small_spec(algorithm="oneshot"))
        assert tuple(rec.row()) == TRIAL_CSV_FIELDS
        grid = PhaseGrid((np.int64(2), 3), (80,), np.int64(4), np.array([[1], [4]]))
        assert grid.rows() == [{"s": 2, "m": 80, "trials": 4, "successes": 1, "prob": 0.25},
                               {"s": 3, "m": 80, "trials": 4, "successes": 4, "prob": 1.0}]
        for row in grid.rows():
            assert tuple(row) == PHASE_CSV_FIELDS
            assert [type(v) for v in row.values()] == [int, int, int, int, float]

    def test_empty_payload_is_rejected(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="^write_csv was given no rows$"):
            write_csv([], buf)
        assert buf.getvalue() == ""

    def test_rows_with_other_keys_are_rejected_before_any_write(self):
        rec = run_trial(small_spec(algorithm="oneshot"))
        buf = io.StringIO()
        message = f"row 1 has keys ['s'], row 0 has {list(TRIAL_CSV_FIELDS)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            write_csv([rec, {"s": 3}], buf)
        assert buf.getvalue() == ""
        swapped = {"b": 2, "a": 1}  # the same keys in another order follow row 0's
        write_csv([{"a": 1, "b": 2}, swapped], buf)
        assert buf.getvalue() == "a,b\n1,2\n1,2\n"

    def test_numpy_scalars_are_written_as_python_values(self):
        buf = io.StringIO()
        write_csv([{"a": np.float64(0.5), "b": np.True_, "c": np.int64(3)},
                   {"a": 0.5, "b": True, "c": 3}], buf)
        assert buf.getvalue() == "a,b,c\n0.5,true,3\n0.5,true,3\n"
