"""Solvers: thresholding primitives, loss calculus, and the four algorithms."""

import gc
import weakref

import numpy as np
import pytest

from nldemix import diagnostics, solvers
from nldemix.harness import TrialSpec, _build_instance
from nldemix.links import CapabilityError, make_link
from nldemix.measurement import sample_operator
from nldemix.solvers import (
    DemixProblem,
    SolverConfig,
    dht,
    dst,
    hard_threshold,
    loss,
    loss_gradient,
    loss_hessian_matvec,
    nlcd_lasso,
    oneshot,
    project_l1_ball,
    soft_threshold,
)
from nldemix.transforms import Basis, Dictionary, dict_adjoint, dict_apply

from planted import planted_instance


def cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def assert_bits_equal(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def stable_argsort_threshold(v, k):
    """hard_threshold oracle: the first k of a stable argsort of -|v|."""
    out = np.zeros_like(v)
    idx = np.argsort(-np.abs(v), kind="stable")[:k]
    out[idx] = v[idx]
    return out


def reference_descent(problem, config, soft, init=None):
    """dht/dst iterates from a plain loop over the public loss and gradient,
    started at `init` when given."""
    if init is not None:
        t = np.array(init, dtype=float)
    else:
        t = np.zeros(2 * problem.n) if config.init == "zero" else oneshot(problem).t_hat
    beta = config.dst_beta
    n, s = problem.n, problem.s

    def project(v):
        if config.projection_mode == "perblocks":
            return np.concatenate([hard_threshold(v[:n], s), hard_threshold(v[n:], s)])
        return hard_threshold(v, 2 * s)

    def objective(tv):
        f = loss(problem, tv)
        return f + beta * float(np.abs(tv).sum()) if soft else f

    obj = objective(t)
    iterates = [t.copy()]
    for _ in range(config.max_iters):
        grad = loss_gradient(problem, t)
        step = config.step_size
        for _ in range(30):
            if soft:
                cand = soft_threshold(t - step * grad, beta * step)
            else:
                cand = project(t - step * grad)
            cand_obj = objective(cand)
            if np.isfinite(cand_obj) and cand_obj <= obj + 1e-12:
                break
            step *= 0.5
        else:
            break
        delta = float(np.linalg.norm(cand - t))
        t, obj = cand, cand_obj
        iterates.append(t.copy())
        if delta <= config.rel_tol * max(1.0, float(np.linalg.norm(t))):
            break
    return iterates


def reference_nlcd_lasso(problem, config):
    """nlcd_lasso iterates with Gamma t recomputed for every gradient."""
    d = problem.dictionary
    x_lin = problem.A.adjoint(problem.y) / problem.A.m
    radius = config.lasso_radius or 2.0 * np.sqrt(problem.s)

    def obj(tv):
        return float(np.linalg.norm(x_lin - dict_apply(d, tv)))

    t = np.zeros(2 * problem.n)
    obj_prev = obj(t)
    iterates = [t.copy()]
    for _ in range(config.max_iters):
        grad = dict_adjoint(d, dict_apply(d, t) - x_lin)
        step = 0.5
        t_new, obj_new = t, obj_prev
        for _ in range(30):
            cand = project_l1_ball(t - step * grad, radius)
            cand_obj = obj(cand)
            if cand_obj <= obj_prev + 1e-15:
                t_new, obj_new = cand, cand_obj
                break
            step *= 0.5
        t = t_new
        iterates.append(t.copy())
        if abs(obj_prev - obj_new) <= config.rel_tol * max(1.0, obj_prev):
            break
        obj_prev = obj_new
    return iterates


class TestHardThreshold:
    def test_hand_values(self):
        v = np.array([3.0, -1.0, 2.0, -4.0])
        np.testing.assert_array_equal(
            hard_threshold(v, 2), np.array([3.0, 0.0, 0.0, -4.0])
        )

    def test_edge_cases(self):
        v = np.array([1.0, -2.0])
        np.testing.assert_array_equal(hard_threshold(v, 0), np.zeros(2))
        np.testing.assert_array_equal(hard_threshold(v, 2), v)
        np.testing.assert_array_equal(hard_threshold(v, 5), v)
        with pytest.raises(ValueError):
            hard_threshold(v, -1)

    @pytest.mark.parametrize("k", [2.5, True, np.nan, "1"])
    def test_count_must_be_an_integer(self, k):
        # Unchecked, True would run as k = 1 and 2.5 would reach np.partition.
        with pytest.raises(ValueError, match="k must be an integer"):
            hard_threshold(np.array([1.0, -2.0, 3.0]), k)
        np.testing.assert_array_equal(hard_threshold(np.array([1.0, -2.0]), np.int64(1)),
                                      [0.0, -2.0])

    def test_ties_break_toward_lowest_index(self):
        v = np.array([1.0, -1.0, 1.0, -1.0])
        np.testing.assert_array_equal(
            hard_threshold(v, 2), np.array([1.0, -1.0, 0.0, 0.0])
        )

    def test_kept_entries_are_the_largest(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            size = rng.integers(1, 12)
            v = rng.standard_normal(size)
            k = int(rng.integers(0, size + 1))
            out = hard_threshold(v, k)
            kept = out != 0
            # kept entries pass through unchanged
            np.testing.assert_array_equal(out[kept], v[kept])
            assert kept.sum() <= k
            if k < size:
                dropped = np.abs(v[~kept])
                if kept.any() and dropped.size:
                    assert np.abs(v[kept]).min() >= dropped.max() - 1e-15

    def test_error_optimality_exhaustive(self):
        # the kept support must achieve the minimal squared drop
        from itertools import combinations

        rng = np.random.default_rng(12)
        for _ in range(100):
            size = int(rng.integers(2, 8))
            v = rng.standard_normal(size)
            k = int(rng.integers(1, size))
            out = hard_threshold(v, k)
            err = np.sum((v - out) ** 2)
            best = min(
                np.sum(v[list(set(range(size)) - set(keep))] ** 2)
                for keep in combinations(range(size), k)
            )
            assert err == pytest.approx(best, abs=1e-12)

    @pytest.mark.parametrize("size", [1, 2, 7, 64, 1000, 8192])
    def test_matches_stable_argsort_bit_for_bit(self, size):
        rng = np.random.default_rng(size)
        vectors = [
            rng.integers(-3, 4, size).astype(float),  # heavy ties, +/- pairs, zeros
            rng.choice([-1.0, 1.0], size) * rng.integers(0, 2, size),
            np.zeros(size),
            rng.standard_normal(size),
        ]
        odd = rng.integers(-2, 3, size).astype(float)
        odd[rng.random(size) < 0.1] = np.nan
        odd[rng.random(size) < 0.05] = np.inf
        odd[rng.random(size) < 0.05] = -np.inf
        odd[rng.random(size) < 0.1] = -0.0
        vectors.append(odd)
        ks = range(size + 2) if size <= 64 else sorted(
            {0, 1, 2, size // 2, size - 1, size, size + 1, *rng.integers(0, size, 20).tolist()}
        )
        for v in vectors:
            for k in ks:
                assert_bits_equal(hard_threshold(v, k), stable_argsort_threshold(v, k))


class TestSoftThreshold:
    def test_hand_values(self):
        v = np.array([3.0, -2.0, 0.5, 0.0])
        np.testing.assert_array_equal(
            soft_threshold(v, 1.0), np.array([2.0, -1.0, 0.0, 0.0])
        )

    def test_zero_threshold_is_identity(self):
        v = np.random.default_rng(0).standard_normal(10)
        np.testing.assert_array_equal(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.zeros(3), -0.5)

    def test_is_prox_of_l1(self):
        # minimizer of 0.5||x - v||^2 + lam ||x||_1, checked against a grid
        rng = np.random.default_rng(5)
        for _ in range(50):
            v = float(rng.uniform(-3, 3))
            lam = float(rng.uniform(0, 2))
            xs = np.linspace(-4, 4, 8001)
            vals = 0.5 * (xs - v) ** 2 + lam * np.abs(xs)
            hand = xs[np.argmin(vals)]
            out = soft_threshold(np.array([v]), lam)[0]
            assert out == pytest.approx(hand, abs=2e-3)


def project_l1_reference(v, r):
    """Bisection on the soft threshold level; independent of the sort rule."""
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    lo, hi = 0.0, a.max()
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if np.maximum(a - mid, 0.0).sum() > r:
            lo = mid
        else:
            hi = mid
    return soft_threshold(v, 0.5 * (lo + hi))


class TestProjectL1Ball:
    def test_inside_ball_unchanged(self):
        v = np.array([0.2, -0.3, 0.1])
        out = project_l1_ball(v, 1.0)
        np.testing.assert_array_equal(out, v)
        out[0] = 99.0  # returned copy, input untouched
        assert v[0] == 0.2

    def test_result_on_boundary_when_outside(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            v = rng.standard_normal(rng.integers(1, 30)) * 3
            r = float(rng.uniform(0.1, 2.0))
            out = project_l1_ball(v, r)
            if np.abs(v).sum() > r:
                assert np.abs(out).sum() == pytest.approx(r, rel=1e-10)

    def test_matches_bisection_reference(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            v = rng.standard_normal(rng.integers(1, 40)) * rng.uniform(0.5, 5)
            r = float(rng.uniform(0.1, 4.0))
            np.testing.assert_allclose(
                project_l1_ball(v, r), project_l1_reference(v, r), atol=1e-10
            )

    def test_is_closest_feasible_point(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(12) * 2
        r = 1.5
        out = project_l1_ball(v, r)
        d_out = np.linalg.norm(v - out)
        for _ in range(300):
            u = rng.standard_normal(12)
            u = u / np.abs(u).sum() * r * rng.uniform(0, 1)
            assert d_out <= np.linalg.norm(v - u) + 1e-12

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(ValueError):
            project_l1_ball(np.ones(3), 0.0)

    @pytest.mark.parametrize("v, r", [([1e17, 0.0], 1.0), ([3.0, 1.0], 1e-300),
                                      ([1e16, 1e16], 1.0)])
    def test_radius_below_the_spacing_at_the_largest_entry(self, v, r):
        # Rounding can hide every index that qualifies; the result must still be feasible.
        assert np.abs(project_l1_ball(np.array(v), r)).sum() <= r

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vector_rejected(self, bad):
        # Unchecked, NaN leaves no index for the threshold and numpy raises IndexError.
        with pytest.raises(ValueError, match="v must be finite; it holds NaN or infinite"):
            project_l1_ball(np.array([bad, 1.0, 2.0]), 1.0)

    def test_matrix_rejected(self):
        with pytest.raises(ValueError, match=r"v must be a vector of length 4, got shape \(2, 2\)"):
            project_l1_ball(np.ones((2, 2)), 1.0)


class TestProblemValidation:
    def test_dimension_mismatches(self):
        n, m = 16, 8
        d = Dictionary(Basis("identity", n), Basis("dct", n))
        A = sample_operator("gaussian", m, n, 0)
        link = make_link("linsin")
        with pytest.raises(ValueError):
            DemixProblem(A=A, dictionary=d, link=link, y=np.zeros(m + 1), s=2)
        with pytest.raises(ValueError):
            DemixProblem(A=A, dictionary=d, link=link, y=np.zeros(m), s=-1)
        with pytest.raises(ValueError, match="^s must be <= 16, got 17$"):
            DemixProblem(A=A, dictionary=d, link=link, y=np.zeros(m), s=n + 1)
        for bad in (2.5, np.nan, True, "3"):
            with pytest.raises(ValueError, match="s must be an integer"):
                DemixProblem(A=A, dictionary=d, link=link, y=np.zeros(m), s=bad)
        assert DemixProblem(A=A, dictionary=d, link=link, y=np.zeros(m), s=np.int64(2)).s == 2
        d_bad = Dictionary(Basis("identity", 2 * n), Basis("dct", 2 * n))
        with pytest.raises(ValueError):
            DemixProblem(A=A, dictionary=d_bad, link=link, y=np.zeros(m), s=2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_observations_rejected(self, bad):
        n, m = 16, 8
        d = Dictionary(Basis("identity", n), Basis("dct", n))
        A = sample_operator("gaussian", m, n, 0)
        y = np.zeros(m)
        y[3] = bad
        with pytest.raises(ValueError, match="finite"):
            DemixProblem(A=A, dictionary=d, link=make_link("linsin"), y=y, s=2)
        with pytest.raises(ValueError, match="finite"):
            DemixProblem(A=A, dictionary=d, link=make_link("linsin"), y=np.full(m, bad), s=2)

    def test_problem_keeps_its_own_read_only_y(self):
        n, m = 16, 8
        d = Dictionary(Basis("identity", n), Basis("dct", n))
        A = sample_operator("gaussian", m, n, 0)
        y = np.arange(m, dtype=float)
        problem = DemixProblem(A=A, dictionary=d, link=make_link("linsin"), y=y, s=2)
        y[0] = 100.0
        assert problem.y[0] == 0.0
        with pytest.raises(ValueError):
            problem.y[1] = 5.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(step_size="fast")
        with pytest.raises(ValueError):
            SolverConfig(step_size=-0.1)
        with pytest.raises(ValueError):
            SolverConfig(max_iters=0)
        with pytest.raises(ValueError):
            SolverConfig(rel_tol=0.0)
        with pytest.raises(ValueError):
            SolverConfig(init="warm")
        with pytest.raises(ValueError):
            SolverConfig(projection_mode="global")
        with pytest.raises(ValueError):
            SolverConfig(lasso_radius=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(dst_beta=-0.5)
        with pytest.raises(ValueError):
            SolverConfig(init=np.zeros((2, 4)))
        for bad in (2.5, 3.0, np.nan, True, "3"):
            with pytest.raises(ValueError, match="max_iters must be an integer"):
                SolverConfig(max_iters=bad)
        assert SolverConfig(max_iters=np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("bad", [np.array([0.1, 0.2]), np.array(["auto"])],
                             ids=["numbers", "names"])
    def test_array_step_size_rejected(self, bad):
        # An array is neither "auto" nor a number, whatever it holds.
        with pytest.raises(ValueError, match="^step_size must be finite and positive, got array"):
            SolverConfig(step_size=bad)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_settings_rejected(self, bad):
        for name in ("step_size", "rel_tol", "lasso_radius", "dst_beta"):
            with pytest.raises(ValueError, match="finite"):
                SolverConfig(**{name: bad})
        with pytest.raises(ValueError, match="finite"):
            SolverConfig(init=np.full(4, bad))
        with pytest.raises(ValueError, match="finite"):
            soft_threshold(np.ones(3), bad)
        with pytest.raises(ValueError, match="finite"):
            project_l1_ball(np.ones(3), bad)

    @pytest.mark.parametrize("bad", [True, "1e-6", [1.0], 10**400],
                             ids=["bool", "str", "list", "big-int"])
    def test_real_settings_that_are_not_floats_rejected(self, bad):
        for name in ("step_size", "rel_tol", "lasso_radius", "dst_beta"):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                SolverConfig(**{name: bad})
        with pytest.raises(ValueError, match="threshold must be finite and nonnegative"):
            soft_threshold(np.ones(3), bad)
        with pytest.raises(ValueError, match="radius must be finite and positive"):
            project_l1_ball(np.ones(3), bad)
        # numpy scalars and ints are real numbers too
        config = SolverConfig(step_size=np.float32(0.5), rel_tol=1, dst_beta=np.uint8(0))
        assert (config.step_size, config.rel_tol, config.dst_beta) == (0.5, 1, 0)


class TestLossCalculus:
    def test_gradient_matches_finite_difference(self):
        problem, t_star = planted_instance(32, 3, 24, seed=1)
        rng = np.random.default_rng(2)
        t = rng.standard_normal(64) * 0.5
        g = loss_gradient(problem, t)
        h = 1e-6
        for _ in range(20):
            v = rng.standard_normal(64)
            v /= np.linalg.norm(v)
            fd = (loss(problem, t + h * v) - loss(problem, t - h * v)) / (2 * h)
            np.testing.assert_allclose(np.dot(g, v), fd, rtol=1e-5, atol=1e-10)

    def test_hessian_matvec_matches_gradient_difference(self):
        problem, _ = planted_instance(24, 2, 20, seed=3)
        rng = np.random.default_rng(4)
        t = rng.standard_normal(48) * 0.3
        h = 1e-6
        for _ in range(10):
            v = rng.standard_normal(48)
            v /= np.linalg.norm(v)
            hv = loss_hessian_matvec(problem, t, v)
            fd = (
                loss_gradient(problem, t + h * v) - loss_gradient(problem, t - h * v)
            ) / (2 * h)
            np.testing.assert_allclose(hv, fd, atol=1e-6)

    def test_hessian_matvec_matches_dense_assembly(self):
        problem, _ = planted_instance(16, 2, 12, seed=5)
        from nldemix.transforms import basis_matrix

        d = problem.dictionary
        G = np.hstack([basis_matrix(d.phi), basis_matrix(d.psi)])
        AG = problem.A.dense() @ G
        rng = np.random.default_rng(6)
        t = rng.standard_normal(32) * 0.4
        gp = 2.0 + np.cos(AG @ t)
        H = AG.T @ (gp[:, None] * AG) / problem.A.m
        for _ in range(10):
            v = rng.standard_normal(32)
            np.testing.assert_allclose(
                loss_hessian_matvec(problem, t, v), H @ v, atol=1e-10
            )

    @pytest.mark.parametrize("link_name", ["linsin", "logistic", "shifted-logistic"])
    def test_gradient_vanishes_at_truth_noiseless(self, link_name):
        problem, t_star = planted_instance(64, 4, 80, link_name=link_name, seed=7)
        np.testing.assert_array_equal(
            loss_gradient(problem, t_star), np.zeros(t_star.size)
        )

    def test_loss_convex_along_segments(self):
        problem, _ = planted_instance(32, 3, 40, seed=8)
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = rng.standard_normal(64)
            b = rng.standard_normal(64)
            mid = loss(problem, 0.5 * (a + b))
            assert mid <= 0.5 * (loss(problem, a) + loss(problem, b)) + 1e-12

    def test_sign_link_lacks_loss_capabilities(self):
        problem, t_star = planted_instance(32, 3, 40, link_name="sign", seed=10)
        with pytest.raises(CapabilityError):
            loss(problem, t_star)
        with pytest.raises(CapabilityError):
            loss_gradient(problem, t_star)
        with pytest.raises(CapabilityError):
            loss_hessian_matvec(problem, t_star, t_star)

    def test_wrong_length_rejected(self):
        problem, _ = planted_instance(32, 3, 40, seed=11)
        with pytest.raises(ValueError):
            loss(problem, np.zeros(63))


class TestOneShot:
    def test_matches_direct_formula(self):
        problem, _ = planted_instance(64, 4, 100, seed=12)
        from nldemix.transforms import basis_adjoint

        x_lin = problem.A.adjoint(problem.y) / problem.A.m
        d = problem.dictionary
        w_ref = hard_threshold(basis_adjoint(d.phi, x_lin), problem.s)
        z_ref = hard_threshold(basis_adjoint(d.psi, x_lin), problem.s)
        res = oneshot(problem)
        np.testing.assert_array_equal(res.w_hat, w_ref)
        np.testing.assert_array_equal(res.z_hat, z_ref)
        np.testing.assert_allclose(
            res.x_hat, dict_apply(d, np.concatenate([w_ref, z_ref])), atol=1e-12
        )

    def test_non_iterative_contract(self):
        problem, _ = planted_instance(64, 4, 100, seed=13)
        res = oneshot(problem)
        assert res.iterations_run == 0
        assert res.converged
        assert len(res.trace) == 1
        assert np.count_nonzero(res.w_hat) <= problem.s
        assert np.count_nonzero(res.z_hat) <= problem.s

    def test_recovers_supports_with_many_measurements(self):
        hits = 0
        for seed in range(5):
            problem, t_star = planted_instance(128, 2, 4000, seed=100 + seed)
            res = oneshot(problem)
            if np.array_equal(res.t_hat != 0, t_star != 0):
                hits += 1
            assert cosine(res.t_hat, t_star) > 0.9
        assert hits >= 4

    def test_works_for_sign_link(self):
        problem, t_star = planted_instance(128, 2, 4000, link_name="sign", seed=14)
        res = oneshot(problem)
        assert cosine(res.t_hat, t_star) > 0.9

    def test_zero_sparsity_returns_zero(self):
        problem, _ = planted_instance(32, 3, 40, seed=15)
        problem0 = DemixProblem(
            A=problem.A, dictionary=problem.dictionary, link=problem.link,
            y=problem.y, s=0,
        )
        res = oneshot(problem0)
        np.testing.assert_array_equal(res.t_hat, np.zeros(64))
        np.testing.assert_array_equal(res.x_hat, np.zeros(32))
        assert res.converged
        assert res.iterations_run == 0
        assert len(res.trace) == 1 and res.trace[0].support_size == 0


class TestDht:
    def test_noiseless_recovery(self):
        for seed in range(3):
            problem, t_star = planted_instance(256, 3, 160, seed=20 + seed)
            res = dht(problem, SolverConfig(max_iters=400, rel_tol=1e-9))
            err = np.linalg.norm(res.t_hat - t_star) / np.linalg.norm(t_star)
            assert err < 1e-5

    @pytest.mark.parametrize("solve", [dht, dst])
    def test_auto_step_rejects_an_unusable_smoothness_estimate(self, solve):
        # At a start this far out every logistic g'(u) underflows, so the
        # restricted Hessian, and with it M_hat, is ~0: no step 1/M_hat exists.
        problem, _ = planted_instance(32, 2, 40, link_name="logistic", seed=3)
        with pytest.raises(RuntimeError, match=r"^auto step failed: smoothness estimate "
                                               r"M_hat=\S+ is not usable$"):
            solve(problem, SolverConfig(init=np.full(64, 1e3)))
        solve(problem, SolverConfig(init=np.full(64, 1e3), step_size=1.0, max_iters=3))

    @pytest.mark.parametrize("step_size", ["auto", 1.0])
    @pytest.mark.parametrize("solve", [dht, dst])
    def test_non_finite_start_aborts_before_any_step(self, solve, step_size):
        # linsin's loss overflows at this start; every accepted iterate is finite.
        problem, _ = planted_instance(64, 3, 80, seed=57)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                RuntimeError, match=rf"^{solve.__name__} aborted at iteration 1: non-finite "
                                    r"loss or gradient at the start \(loss=inf\)$"):
            solve(problem, SolverConfig(init=np.full(128, 1e200), step_size=step_size))

    def test_truth_is_fixed_point(self):
        problem, t_star = planted_instance(128, 4, 200, seed=30)
        res = dht(problem, SolverConfig(init=t_star))
        np.testing.assert_array_equal(res.t_hat, t_star)
        assert res.converged
        assert res.iterations_run == 1
        assert res.trace[-1].step_norm == 0.0

    def test_sign_link_rejected(self):
        problem, _ = planted_instance(64, 3, 100, link_name="sign", seed=31)
        with pytest.raises(CapabilityError):
            dht(problem)

    def test_stacked_projection_sparsity(self):
        problem, _ = planted_instance(128, 4, 150, seed=32)
        res = dht(problem, SolverConfig(max_iters=50, keep_iterates=True))
        for it in res.iterates[1:]:
            assert np.count_nonzero(it) <= 2 * problem.s

    def test_perblocks_projection_sparsity(self):
        problem, _ = planted_instance(128, 4, 150, seed=33)
        res = dht(
            problem,
            SolverConfig(max_iters=50, projection_mode="perblocks", keep_iterates=True),
        )
        for it in res.iterates[1:]:
            assert np.count_nonzero(it[:128]) <= problem.s
            assert np.count_nonzero(it[128:]) <= problem.s

    def test_trace_and_iterates_are_aligned(self):
        problem, _ = planted_instance(96, 3, 120, seed=34)
        res = dht(problem, SolverConfig(max_iters=40, keep_iterates=True))
        assert len(res.iterates) == res.iterations_run + 1
        assert [r.iteration for r in res.trace] == list(
            range(1, res.iterations_run + 1)
        )
        for rec, it in zip(res.trace, res.iterates[1:]):
            assert rec.loss == pytest.approx(loss(problem, it), rel=1e-12)
            assert rec.support_size == np.count_nonzero(it)
        norms = [np.linalg.norm(a - b) for a, b in zip(res.iterates[1:], res.iterates)]
        np.testing.assert_allclose([r.step_norm for r in res.trace], norms, rtol=1e-12)

    def test_loss_never_increases(self):
        problem, _ = planted_instance(128, 5, 140, seed=35)
        res = dht(problem, SolverConfig(max_iters=100))
        losses = [r.loss for r in res.trace]
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev + 1e-10

    def test_oversized_manual_step_is_tamed_by_backtracking(self):
        problem, t_star = planted_instance(128, 3, 150, seed=36)
        res = dht(problem, SolverConfig(step_size=50.0, max_iters=300))
        losses = [r.loss for r in res.trace]
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev + 1e-10
        assert cosine(res.t_hat, t_star) > 0.99

    def test_failed_backtracking_keeps_the_iterate(self):
        # Every halving of this step raises the loss; the solve must stop
        # unconverged instead of accepting the last, worse candidate.
        problem, *_ = _build_instance(TrialSpec(n=512, s=5, m=200, seed=1))
        res = dht(problem, SolverConfig(step_size=1e12, max_iters=60))
        assert res.converged is False
        losses = [r.loss for r in res.trace]
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev
        init = oneshot(problem).t_hat
        assert loss(problem, res.t_hat) <= loss(problem, init)
        assert len(res.trace) == res.iterations_run
        # here the very first step fails, so the initializer is returned
        np.testing.assert_array_equal(res.t_hat, init)

    def test_zero_init_also_recovers(self):
        problem, t_star = planted_instance(128, 3, 150, seed=37)
        res = dht(problem, SolverConfig(init="zero", max_iters=400, rel_tol=1e-9))
        assert np.linalg.norm(res.t_hat - t_star) / np.linalg.norm(t_star) < 1e-4

    def test_x_hat_consistent_with_t_hat(self):
        problem, _ = planted_instance(64, 3, 90, seed=38)
        res = dht(problem, SolverConfig(max_iters=60))
        np.testing.assert_array_equal(
            res.x_hat, dict_apply(problem.dictionary, res.t_hat)
        )


class TestDescentWork:
    @pytest.mark.parametrize("link_name", ["linsin", "logistic"])
    @pytest.mark.parametrize("algorithm", ["dht", "dst"])
    @pytest.mark.parametrize("step", [0.3, 50.0])
    @pytest.mark.parametrize(
        "options", [{}, {"projection_mode": "perblocks"}, {"init": "zero"}],
        ids=["default", "perblocks", "zero-init"],
    )
    def test_iterates_match_reference_loop_bit_for_bit(self, algorithm, link_name, step,
                                                       options):
        problem, _ = planted_instance(128, 4, 150, link_name=link_name, seed=45)
        config = SolverConfig(step_size=step, max_iters=60, keep_iterates=True, **options)
        res = (dst if algorithm == "dst" else dht)(problem, config)
        ref = reference_descent(problem, config, soft=algorithm == "dst")
        assert len(res.iterates) == len(ref)
        for got, want in zip(res.iterates, ref):
            assert_bits_equal(got, want)

    @pytest.mark.parametrize("algorithm", ["dht", "dst"])
    def test_array_init_iterates_match_reference_loop_bit_for_bit(self, algorithm):
        problem, _ = planted_instance(128, 4, 150, seed=45)
        init = np.random.default_rng(46).standard_normal(256) / 7
        config = SolverConfig(step_size=0.3, max_iters=60, init=init, keep_iterates=True)
        res = (dst if algorithm == "dst" else dht)(problem, config)
        ref = reference_descent(problem, config, soft=algorithm == "dst", init=init)
        assert len(res.iterates) == len(ref) > 1
        for got, want in zip(res.iterates, ref):
            assert_bits_equal(got, want)

    @pytest.mark.parametrize(
        "algorithm, step, prior, outside",
        [("dht", "auto", None, 1), ("dst", "auto", None, 1), ("dht", 50.0, None, 1),
         ("dst", 50.0, None, 1), ("dst", "auto", "dht", 0), ("dst", 50.0, "dht", 0)],
        ids=["dht-auto-1", "dst-auto-1", "dht-50.0-1", "dst-50.0-1",
             "dst-auto-after-dht", "dst-50.0-after-dht"],
    )
    def test_one_forward_per_candidate_and_one_adjoint_per_iteration(
        self, monkeypatch, algorithm, step, prior, outside
    ):
        # outside the loop: the start's forward product, which the automatic
        # step estimate reuses as its reference product, and its gradient
        # (zero init: no oneshot); none of them after a solve with the same
        # init and step on the same problem
        problem, _ = planted_instance(128, 4, 150, seed=46)
        config = SolverConfig(step_size=step, init="zero", max_iters=40)
        if prior is not None:
            getattr(solvers, prior)(problem, config)
        counts = {"apply": 0, "adjoint": 0, "candidates": 0, "estimates": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        A = problem.A
        monkeypatch.setattr(A, "apply", counted("apply", A.apply))
        monkeypatch.setattr(A, "adjoint", counted("adjoint", A.adjoint))
        monkeypatch.setattr(diagnostics, "estimate_rsc_rss",
                            counted("estimates", diagnostics.estimate_rsc_rss))
        prox = "soft_threshold" if algorithm == "dst" else "hard_threshold"
        monkeypatch.setattr(solvers, prox, counted("candidates", getattr(solvers, prox)))
        res = getattr(solvers, algorithm)(problem, config)
        assert res.iterations_run > 0
        assert counts["adjoint"] == res.iterations_run - 1 + outside
        assert counts["candidates"] >= res.iterations_run
        assert counts["apply"] == counts["candidates"] + outside
        assert counts["estimates"] == (outside if step == "auto" else 0)

    @pytest.mark.parametrize("radius", [None, 1.5], ids=["default-radius", "radius-1.5"])
    def test_nlcd_lasso_iterates_match_reference_loop_bit_for_bit(self, radius):
        problem, _ = planted_instance(128, 4, 200, seed=47)
        config = SolverConfig(max_iters=80, keep_iterates=True, lasso_radius=radius)
        res = nlcd_lasso(problem, config)
        ref = reference_nlcd_lasso(problem, config)
        assert len(res.iterates) == len(ref)
        for got, want in zip(res.iterates, ref):
            assert_bits_equal(got, want)

    def test_auto_step_reuses_the_initial_forward_product(self, monkeypatch):
        problem, _ = planted_instance(128, 4, 150, seed=46)
        t0 = oneshot(problem).t_hat
        u0 = problem.A.apply(dict_apply(problem.dictionary, t0))
        seen = []
        estimate = diagnostics.estimate_rsc_rss

        def spy(*args, **kwargs):
            seen.append(kwargs["u_ref"])
            return estimate(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "estimate_rsc_rss", spy)
        dht(problem, SolverConfig(max_iters=5))
        assert len(seen) == 1
        assert_bits_equal(seen[0], u0)
        with_ref = estimate(problem, t_ref=t0, num_supports=0, u_ref=u0)
        assert with_ref == estimate(problem, t_ref=t0, num_supports=0)

    def test_step_estimate_rejects_misshaped_u_ref(self):
        problem, _ = planted_instance(64, 3, 90, seed=46)
        with pytest.raises(ValueError, match="u_ref"):
            diagnostics.estimate_rsc_rss(problem, u_ref=np.zeros(problem.A.m + 1))


SOLVE = {"oneshot": lambda problem, config: oneshot(problem),
         "dht": dht, "dst": dst, "nlcd_lasso": nlcd_lasso}


def assert_same_solve(got, want):
    assert_bits_equal(got.t_hat, want.t_hat)
    assert got.iterations_run == want.iterations_run
    assert got.converged == want.converged
    assert [r.loss for r in got.trace] == [r.loss for r in want.trace]


def count_step_estimates(monkeypatch) -> list:
    """Record each later call to diagnostics.estimate_rsc_rss in the returned list."""
    estimates = []
    estimate = diagnostics.estimate_rsc_rss

    def counted(*args, **kwargs):
        estimates.append(args)
        return estimate(*args, **kwargs)

    monkeypatch.setattr(diagnostics, "estimate_rsc_rss", counted)
    return estimates


class TestSharedStart:
    """Solves on one problem share x_lin and each (init, step_size) descent
    start, and give the same bits as cold solves."""

    @pytest.mark.parametrize("link_name", ["linsin", "logistic"])
    @pytest.mark.parametrize("step", ["auto", 0.3])
    @pytest.mark.parametrize("init", ["oneshot", "zero", "array"])
    def test_results_do_not_depend_on_earlier_solves(self, link_name, step, init):
        spec = TrialSpec(n=128, s=4, m=150, link=link_name, seed=9)
        if init == "array":
            init = np.random.default_rng(10).standard_normal(2 * spec.n) / 7
        config = SolverConfig(step_size=step, init=init, max_iters=60)
        for target, solve in SOLVE.items():
            cold = solve(_build_instance(spec)[0], config)
            problem = _build_instance(spec)[0]
            for other in SOLVE:
                if other != target:
                    SOLVE[other](problem, config)
            assert_same_solve(solve(problem, config), cold)
            assert_same_solve(solve(problem, config), cold)

    def test_other_init_or_step_gets_its_own_start(self, monkeypatch):
        spec = TrialSpec(n=128, s=4, m=150, seed=9)
        configs = [SolverConfig(max_iters=60), SolverConfig(max_iters=60, init="zero"),
                   SolverConfig(max_iters=60, step_size=0.3),
                   SolverConfig(max_iters=60, init="zero", step_size=0.3)]
        cold = [dht(_build_instance(spec)[0], config) for config in configs]
        estimates = count_step_estimates(monkeypatch)
        problem = _build_instance(spec)[0]
        for config, want in zip(configs, cold):
            assert_same_solve(dht(problem, config), want)
        assert len(estimates) == 2
        for config, want in zip(configs, cold):
            assert_same_solve(dht(problem, config), want)
        assert len(estimates) == 2

    def test_each_problem_keeps_its_own_start(self, monkeypatch):
        cold = [dht(planted_instance(64, 3, 90, seed=seed)[0], SolverConfig(max_iters=20))
                for seed in (49, 50)]
        problems = [planted_instance(64, 3, 90, seed=seed)[0] for seed in (49, 50)]
        estimates = count_step_estimates(monkeypatch)
        for _ in range(2):
            for problem, want in zip(problems, cold):
                assert_same_solve(dht(problem, SolverConfig(max_iters=20)), want)
        assert len(estimates) == 2

    def test_inits_differing_in_the_sign_of_a_zero_get_their_own_start(self):
        # the two configs compare equal, but their iterates keep the signs
        problem, _ = planted_instance(64, 3, 90, seed=48)
        for init in (np.zeros(128), -np.zeros(128)):
            config = SolverConfig(step_size=0.3, init=init, max_iters=3, keep_iterates=True)
            assert_bits_equal(dht(problem, config).iterates[0], init)

    def test_shared_arrays_are_read_only_and_free_with_the_problem(self):
        problem, _ = planted_instance(64, 3, 90, seed=48)
        dht(problem, SolverConfig(max_iters=5))
        nlcd_lasso(problem, SolverConfig(max_iters=5))
        shared = problem._shared
        t0, u0, _, grad0 = shared[("oneshot", "auto")]
        for array in (shared["x_lin"], t0, u0, grad0):
            with pytest.raises(ValueError):
                array[0] = 1.0
        alive = weakref.ref(problem), weakref.ref(problem.A)
        del problem, shared
        gc.collect()
        assert [ref() for ref in alive] == [None, None]


@pytest.mark.parametrize("s", [3, 0])
@pytest.mark.parametrize("algorithm", ["oneshot", "dht", "dst", "nlcd_lasso"])
def test_result_is_the_stacked_estimate(algorithm, s):
    # w_hat and z_hat are views of t_hat's halves, and x_hat = Gamma t_hat bit for bit.
    problem, _ = planted_instance(64, 3, 90, seed=51)
    problem = DemixProblem(A=problem.A, dictionary=problem.dictionary, link=problem.link,
                           y=problem.y, s=s)
    solve = getattr(solvers, algorithm)
    res = solve(problem) if algorithm == "oneshot" else solve(problem, SolverConfig(max_iters=5))
    assert res.t_hat.shape == (128,) and not res.t_hat.flags.writeable
    for half, block in ((res.w_hat, res.t_hat[:64]), (res.z_hat, res.t_hat[64:])):
        assert np.shares_memory(half, block)
        assert_bits_equal(half, block)
    assert_bits_equal(res.x_hat, dict_apply(problem.dictionary, res.t_hat))
    with pytest.raises(ValueError, match="read-only"):
        res.x_hat[0] = 1.0


def test_records_holding_arrays_compare_and_hash_by_identity():
    # Field-wise == would compare arrays, which raises; a generated hash
    # would hash them, which raises too.
    problem, _ = planted_instance(32, 2, 40, seed=52)
    copy = DemixProblem(A=problem.A, dictionary=problem.dictionary, link=problem.link,
                        y=problem.y, s=problem.s)
    first, second = oneshot(problem), oneshot(problem)
    assert problem == problem and problem != copy
    assert first == first and first != second
    assert hash(problem) == hash(problem) and hash(first) == hash(first)
    assert len({problem, copy, first, second}) == 4


class TestDst:
    def test_direction_recovery(self):
        for seed in range(3):
            problem, t_star = planted_instance(256, 3, 200, seed=40 + seed)
            res = dst(problem, SolverConfig(max_iters=300))
            assert cosine(res.t_hat, t_star) > 0.99

    def test_trace_reports_plain_loss(self):
        problem, _ = planted_instance(96, 3, 120, seed=41)
        res = dst(problem, SolverConfig(max_iters=40, keep_iterates=True))
        for rec, it in zip(res.trace, res.iterates[1:]):
            assert rec.loss == pytest.approx(loss(problem, it), rel=1e-12)

    def test_composite_objective_never_increases(self):
        problem, _ = planted_instance(128, 4, 150, seed=42)
        beta = 0.5
        res = dst(problem, SolverConfig(max_iters=80, dst_beta=beta, keep_iterates=True))
        comp = [
            loss(problem, it) + beta * np.abs(it).sum() for it in res.iterates
        ]
        for prev, nxt in zip(comp, comp[1:]):
            assert nxt <= prev + 1e-10

    def test_larger_beta_sparser_result(self):
        problem, _ = planted_instance(128, 4, 150, seed=43)
        small = dst(problem, SolverConfig(max_iters=150, dst_beta=0.1))
        large = dst(problem, SolverConfig(max_iters=150, dst_beta=1.5))
        assert np.count_nonzero(large.t_hat) <= np.count_nonzero(small.t_hat)

    def test_sign_link_rejected(self):
        problem, _ = planted_instance(64, 3, 100, link_name="sign", seed=44)
        with pytest.raises(CapabilityError):
            dst(problem)


class TestNlcdLasso:
    def test_feasible_default_radius(self):
        problem, _ = planted_instance(128, 4, 200, seed=50)
        res = nlcd_lasso(problem, SolverConfig(max_iters=200))
        assert np.abs(res.t_hat).sum() <= 2.0 * np.sqrt(problem.s) + 1e-9

    def test_custom_radius_respected(self):
        problem, _ = planted_instance(128, 4, 200, seed=51)
        res = nlcd_lasso(problem, SolverConfig(max_iters=200, lasso_radius=0.7))
        assert np.abs(res.t_hat).sum() <= 0.7 + 1e-9

    def test_objective_never_increases(self):
        problem, _ = planted_instance(96, 3, 150, seed=52)
        res = nlcd_lasso(problem, SolverConfig(max_iters=100))
        losses = [r.loss for r in res.trace]
        for prev, nxt in zip(losses, losses[1:]):
            assert nxt <= prev + 1e-12

    def test_sign_link_supported(self):
        problem, t_star = planted_instance(
            128, 2, 3000, link_name="sign", seed=53
        )
        res = nlcd_lasso(problem, SolverConfig(max_iters=300))
        assert cosine(res.t_hat, t_star) > 0.8

    def test_direction_recovery_with_many_measurements(self):
        problem, t_star = planted_instance(128, 2, 3000, seed=54)
        res = nlcd_lasso(problem, SolverConfig(max_iters=300))
        assert cosine(res.t_hat, t_star) > 0.85

    def test_result_shapes_and_consistency(self):
        problem, _ = planted_instance(64, 3, 90, seed=55)
        res = nlcd_lasso(problem, SolverConfig(max_iters=50, keep_iterates=True))
        assert res.w_hat.shape == (64,)
        assert res.z_hat.shape == (64,)
        np.testing.assert_array_equal(
            res.x_hat, dict_apply(problem.dictionary, res.t_hat)
        )
        assert len(res.iterates) == res.iterations_run + 1

    def test_failed_backtracking_stops_unconverged(self, monkeypatch):
        # From the fourth projection on, every candidate is pushed far from
        # x_lin, so no halving lowers the objective: the solve must keep the
        # third iterate and stop unconverged instead of reporting convergence.
        problem, _ = planted_instance(96, 3, 150, seed=56)
        project = solvers.project_l1_ball
        calls = []

        def worse_after_three(v, r):
            calls.append(r)
            out = project(v, r)
            return out if len(calls) <= 3 else out + 1e3

        monkeypatch.setattr(solvers, "project_l1_ball", worse_after_three)
        res = nlcd_lasso(problem, SolverConfig(max_iters=100, keep_iterates=True))
        monkeypatch.setattr(solvers, "project_l1_ball", project)
        ref = nlcd_lasso(problem, SolverConfig(max_iters=3, keep_iterates=True))
        assert res.converged is False
        assert res.iterations_run == 3
        assert len(res.trace) == 3
        assert len(calls) == 3 + solvers._MAX_HALVINGS
        assert len(res.iterates) == len(ref.iterates)
        for got, want in zip(res.iterates, ref.iterates):
            assert_bits_equal(got, want)
        assert_bits_equal(res.t_hat, ref.t_hat)
