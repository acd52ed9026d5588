"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a single "criterion N ...: PASS" line on success; under
``pytest -v`` the test names double as the per-criterion pass/fail report.
"""

import math
import time
from dataclasses import replace
from itertools import combinations

import numpy as np

from nldemix.cli import main
from nldemix.harness import TrialSpec, child_seed, generate_signal, run_phase_grid, run_trial
from nldemix.links import make_link
from nldemix.diagnostics import link_constants
from nldemix.measurement import observe, sample_operator
from nldemix.solvers import (
    DemixProblem,
    SolverConfig,
    dht,
    hard_threshold,
    loss,
    loss_gradient,
)
from nldemix.transforms import (
    Basis,
    Dictionary,
    basis_adjoint,
    basis_apply,
    basis_matrix,
    dict_apply,
    dict_adjoint,
    stack_constituents,
)

GRID_S = (2, 3, 4, 5, 7, 10, 14, 20)
GRID_M = (200, 300, 400, 500, 600, 800, 1200, 1600)
GRID_TRIALS = 10
GRID_SOLVER = SolverConfig(max_iters=150, rel_tol=1e-6)


def planted(n, s, m, link_name="linsin", seed=0, tau=0.0):
    """Instance drawn with the harness seeding discipline."""
    d = Dictionary(Basis("identity", n), Basis("dct", n))
    w, z, x = generate_signal(n, s, child_seed(seed, 0), d)
    A = sample_operator("gaussian", m, n, child_seed(seed, 1))
    link = make_link(link_name)
    y = observe(A, link, x, tau, child_seed(seed, 2))
    problem = DemixProblem(A=A, dictionary=d, link=link, y=y, s=s)
    return problem, stack_constituents(w, z)


def test_criterion_01_gradient_matches_finite_differences():
    start = time.perf_counter()
    links = ("linsin", "logistic", "shifted-logistic")
    rng = np.random.default_rng(1001)
    for pair in range(50):
        problem, _ = planted(256, 4, 128, link_name=links[pair % 3], seed=pair)
        t = rng.standard_normal(512) * 0.5
        g = loss_gradient(problem, t)
        h = 1e-6
        for _ in range(3):
            v = rng.standard_normal(512)
            v /= np.linalg.norm(v)
            fd = (loss(problem, t + h * v) - loss(problem, t - h * v)) / (2 * h)
            rel = abs(float(np.dot(g, v)) - fd) / max(abs(fd), 1e-12)
            assert rel < 1e-5
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"criterion 1 (gradient vs finite differences, {elapsed:.1f}s): PASS")


def test_criterion_02_noiseless_truth_is_a_fixed_point():
    problem, t_star = planted(1024, 5, 500, seed=21)
    grad_norm = float(np.linalg.norm(loss_gradient(problem, t_star)))
    assert grad_norm < 1e-10
    res = dht(problem, SolverConfig(init=t_star))
    assert np.array_equal(res.t_hat, t_star)
    assert res.converged
    print(f"criterion 2 (exact fixed point, |grad| = {grad_norm:.2e}): PASS")


def test_criterion_03_hard_threshold_is_best_k_term():
    rng = np.random.default_rng(3003)
    for _ in range(1000):
        size = int(rng.integers(1, 13))
        v = rng.standard_normal(size) * rng.uniform(0.5, 3.0)
        if size >= 2 and rng.random() < 0.3:  # inject magnitude ties
            i, j = rng.choice(size, size=2, replace=False)
            v[j] = v[i] * rng.choice([-1.0, 1.0])
        sq = v * v
        for k in range(size + 1):
            out = hard_threshold(v, k)
            kept = out != 0
            np.testing.assert_array_equal(out[kept], v[kept])
            assert kept.sum() <= k
            err = math.fsum(sorted((v - out) ** 2))
            best = min(
                math.fsum(sorted(sq[list(drop)]))
                for drop in combinations(range(size), size - min(k, size))
            )
            assert err == best
    print("criterion 3 (hard threshold equals exhaustive best k-term): PASS")


def test_criterion_04_sign_link_constants():
    mu, _, eta2 = link_constants(make_link("sign"), trials=10**5, seed=0)
    mu_ref = math.sqrt(2.0 / math.pi)
    assert abs(mu - mu_ref) < 0.02
    assert abs(eta2 - 1.0) < 0.01
    print(f"criterion 4 (sign constants mu = {mu:.4f}, eta2 = {eta2:.4f}): PASS")


def test_criterion_05_oneshot_recovery_improves_with_m():
    start = time.perf_counter()
    base = TrialSpec(n=4096, s=5, m=500, link="sign", algorithm="oneshot", seed=0)
    means = []
    for m in (500, 1000, 2000):
        cosines = [
            run_trial(replace(base, m=m, seed=child_seed(0, 5, m, k))).cosine
            for k in range(20)
        ]
        means.append(float(np.mean(cosines)))
    elapsed = time.perf_counter() - start
    assert means[2] >= 0.9
    assert means[0] < means[1] < means[2]
    assert elapsed < 120.0
    print(
        "criterion 5 (mean cosine "
        + " < ".join(f"{v:.4f}" for v in means)
        + f", {elapsed:.1f}s): PASS"
    )


def test_criterion_06_dht_converges_linearly():
    n, s, m = 4096, 10, 800
    config = SolverConfig(max_iters=500, rel_tol=1e-9, keep_iterates=True)
    hits = 0
    worst_tail_ratio = 0.0
    for seed in range(20):
        problem, t_star = planted(n, s, m, seed=600 + seed)
        res = dht(problem, config)
        scale = float(np.linalg.norm(t_star))
        errs = [float(np.linalg.norm(it - t_star)) / scale for it in res.iterates]
        if errs[-1] < 1e-4 and res.iterations_run <= 500:
            hits += 1
            # geometric tail: ratios once the error is below 1e-2
            tail = [
                errs[i + 1] / errs[i]
                for i in range(len(errs) - 1)
                if errs[i] < 1e-2 and errs[i] > 1e-9
            ]
            if tail:
                worst_tail_ratio = max(worst_tail_ratio, max(tail))
    assert hits >= 18
    assert 0.0 < worst_tail_ratio < 0.999
    print(
        f"criterion 6 (DHT linear convergence, {hits}/20 seeds, "
        f"tail ratio <= {worst_tail_ratio:.3f}): PASS"
    )


def test_criterion_07_noise_floor_scaling():
    base = TrialSpec(
        n=4096, s=10, m=800, link="linsin", algorithm="dht",
        solver=SolverConfig(max_iters=150, rel_tol=1e-6), seed=0,
    )

    def floor(tau, m, tau_idx):
        errs = [
            run_trial(
                replace(base, tau=tau, m=m, seed=child_seed(7, tau_idx, m, k))
            ).l2_err
            for k in range(6)
        ]
        return float(np.mean(errs))

    taus = (0.05, 0.1, 0.2)
    floors = [floor(tau, 800, i) for i, tau in enumerate(taus)]
    # error growth tracks tau within a factor of 2
    for (t1, f1), (t2, f2) in combinations(zip(taus, floors), 2):
        measured = f2 / f1
        target = t2 / t1
        assert target / 2.0 <= measured <= target * 2.0
    big_m_floor = floor(0.1, 3200, 1)
    gain = floors[1] / big_m_floor
    assert 1.4 <= gain <= 2.8
    print(
        "criterion 7 (noise floors "
        + ", ".join(f"{f:.4f}" for f in floors)
        + f"; m x4 gain {gain:.2f}): PASS"
    )


def test_criterion_08_algorithm_ordering_on_phase_grid():
    start = time.perf_counter()
    order = ("dht", "dst", "oneshot", "nlcdlasso")
    base = TrialSpec(n=4096, link="linsin", solver=GRID_SOLVER, seed=0)
    # Two workers give the same grids as one, in less time (ROADMAP item 2).
    grids = run_phase_grid(GRID_S, GRID_M, trials=GRID_TRIALS, base=base, workers=2,
                           algorithms=order)
    col_means = {algorithm: grid.prob.mean(axis=0) for algorithm, grid in grids.items()}
    for hi, lo in zip(order, order[1:]):
        violations = int(np.sum(col_means[hi] < col_means[lo] - 1e-12))
        assert violations <= 1, (
            f"{hi} >= {lo} violated in {violations} columns: "
            f"{col_means[hi]} vs {col_means[lo]}"
        )
    elapsed = time.perf_counter() - start
    summary = "; ".join(
        f"{alg} {np.mean(cm):.3f}" for alg, cm in col_means.items()
    )
    print(f"criterion 8 (ordering {summary}, {elapsed:.0f}s): PASS")


def test_criterion_09_transform_and_operator_algebra():
    rng = np.random.default_rng(9009)
    for n in (8, 16, 32, 64):
        bases = [Basis("identity", n), Basis("dct", n), Basis("haar", n)]
        for b in bases:
            B = basis_matrix(b)
            # orthonormality and adjoint = inverse at 1e-10
            np.testing.assert_allclose(B.T @ B, np.eye(n), atol=1e-10)
            for _ in range(5):
                v = rng.standard_normal(n)
                np.testing.assert_allclose(basis_apply(b, v), B @ v, atol=1e-10)
                np.testing.assert_allclose(basis_adjoint(b, v), B.T @ v, atol=1e-10)
                np.testing.assert_allclose(
                    basis_adjoint(b, basis_apply(b, v)), v, atol=1e-10
                )
        for phi, psi in (("identity", "dct"), ("haar", "dct"), ("identity", "haar")):
            d = Dictionary(Basis(phi, n), Basis(psi, n))
            for _ in range(5):
                x = rng.standard_normal(n)
                np.testing.assert_allclose(
                    dict_apply(d, dict_adjoint(d, x)), 2.0 * x, atol=1e-10
                )
        for kind in ("gaussian", "rademacher", "subfast"):
            A = sample_operator(kind, n // 2, n, int(rng.integers(1 << 30)))
            D = A.dense()
            for _ in range(5):
                x = rng.standard_normal(n)
                v = rng.standard_normal(n // 2)
                np.testing.assert_allclose(A.apply(x), D @ x, atol=1e-10)
                np.testing.assert_allclose(A.adjoint(v), D.T @ v, atol=1e-10)
                np.testing.assert_allclose(
                    np.dot(A.apply(x), v), np.dot(x, A.adjoint(v)), atol=1e-10
                )
    print("criterion 9 (transform and operator algebra at 1e-10): PASS")


def test_criterion_10_phase_csv_is_byte_identical(tmp_path):
    args = [
        "phase", "--n", "256", "--s-list", "2,3", "--m-list", "80,120,160",
        "--trials", "3", "--algorithm", "dht", "--seed", "11",
    ]
    p1 = tmp_path / "run1.csv"
    p2 = tmp_path / "run2.csv"
    assert main([*args, "--out", str(p1)]) == 0
    assert main([*args, "--out", str(p2)]) == 0
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    assert b1.startswith(b"s,m,trials,successes,prob\n")
    print("criterion 10 (repeated phase run byte-identical): PASS")
