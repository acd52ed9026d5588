"""Diagnostics: similarity, coherence, link constants, curvature estimates."""

import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from nldemix.diagnostics import (
    _restricted_gram_factor,
    cosine_similarity,
    cross_coherence,
    estimate_rsc_rss,
    link_constants,
    mutual_coherence,
)
from nldemix.links import CapabilityError, LINK_KINDS, link_deriv, link_eval, make_link
from nldemix.measurement import sample_operator
from nldemix.transforms import Basis, Dictionary, basis_matrix, dict_apply

from planted import planted_instance


class TestCosineSimilarity:
    def test_hand_values(self):
        a = np.array([1.0, 0.0])
        assert cosine_similarity(a, a) == pytest.approx(1.0)
        assert cosine_similarity(a, -a) == pytest.approx(-1.0)
        assert cosine_similarity(a, np.array([0.0, 3.0])) == pytest.approx(0.0)

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            c = cosine_similarity(x, y)
            assert cosine_similarity(3.5 * x, 0.2 * y) == pytest.approx(c)
            assert abs(c) <= 1.0 + 1e-12

    def test_zero_vector_scores_zero(self):
        # A zero estimate (or truth) is a total miss, scored 0.0, not an error.
        assert cosine_similarity(np.zeros(4), np.ones(4)) == 0.0
        assert cosine_similarity(np.ones(4), np.zeros(4)) == 0.0
        assert cosine_similarity(np.zeros(4), np.zeros(4)) == 0.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            cosine_similarity(np.ones(4), np.ones(5))


class TestMutualCoherence:
    @pytest.mark.parametrize(
        "phi,psi,n", [("identity", "dct", 32), ("identity", "haar", 32), ("haar", "dct", 64)]
    )
    def test_matches_dense_gram(self, phi, psi, n):
        d = Dictionary(Basis(phi, n), Basis(psi, n))
        cross = basis_matrix(d.phi).T @ basis_matrix(d.psi)
        np.testing.assert_allclose(
            mutual_coherence(d), np.max(np.abs(cross)), rtol=1e-12
        )

    def test_identical_bases_give_one(self):
        for kind in ("identity", "dct", "haar"):
            d = Dictionary(Basis(kind, 16), Basis(kind, 16))
            assert mutual_coherence(d) == 1.0

    def test_blockwise_evaluation_matches_dense_gram(self):
        # n = 300 runs a full block of 256 atoms and a partial one of 44.
        d = Dictionary(Basis("identity", 300), Basis("dct", 300))
        cross = basis_matrix(d.phi).T @ basis_matrix(d.psi)
        assert mutual_coherence(d) == pytest.approx(np.max(np.abs(cross)), rel=1e-14)

    def test_blocks_allocate_only_their_rows(self):
        # One 4096 x 4096 float array is 128 MiB; a 256-row block is 8 MiB.
        d = Dictionary(Basis("identity", 4096), Basis("dct", 4096))
        tracemalloc.start()
        try:
            gamma = mutual_coherence(d)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20
        assert gamma == pytest.approx(np.sqrt(2.0 / 4096), rel=1e-3)

    def test_identity_dct_value_shrinks_with_n(self):
        # spread dictionaries decohere as sqrt(2/n)
        g32 = mutual_coherence(Dictionary(Basis("identity", 32), Basis("dct", 32)))
        g128 = mutual_coherence(Dictionary(Basis("identity", 128), Basis("dct", 128)))
        assert g128 < g32
        assert g32 <= np.sqrt(2.0 / 32) + 1e-12


class TestCrossCoherence:
    @pytest.mark.parametrize("ensemble", ["gaussian", "rademacher", "subfast"])
    def test_matches_dense_computation(self, ensemble):
        n, m = 32, 12
        A = sample_operator(ensemble, m, n, 3)
        d = Dictionary(Basis("identity", n), Basis("dct", n))
        rows = A.dense()
        G = np.hstack([basis_matrix(d.phi), basis_matrix(d.psi)])
        ref = np.max(
            np.abs(rows @ G) / np.linalg.norm(rows, axis=1)[:, None]
        )
        np.testing.assert_allclose(cross_coherence(A, d), ref, rtol=1e-12)

    def test_zero_row_rejected(self):
        n, m = 16, 6
        A = sample_operator("gaussian", m, n, 3)
        d = Dictionary(Basis("identity", n), Basis("dct", n))
        rows = A.dense().copy()
        rows[4] = 0.0
        A._matrix = rows
        with pytest.raises(ValueError, match="^cross-coherence is undefined when A has a zero row"):
            cross_coherence(A, d)


def gauss_expect(f):
    """One-dimensional Gaussian expectation by quadrature."""
    val, _ = quad(lambda z: f(z) * np.exp(-0.5 * z * z) / np.sqrt(2 * np.pi), -12, 12)
    return val


class TestLinkConstants:
    def test_sign_closed_forms(self):
        mu, sigma2, eta2 = link_constants(make_link("sign"))
        assert mu == pytest.approx(np.sqrt(2.0 / np.pi), abs=1e-12)
        assert sigma2 == pytest.approx(1.0 - 2.0 / np.pi, abs=1e-12)
        assert eta2 == 1.0  # y^2 is identically 1

    def test_linsin_closed_forms(self):
        # Stein: E[Z sin Z] = E[cos Z] = exp(-1/2)
        mu, _, eta2 = link_constants(make_link("linsin"))
        r = np.exp(-0.5)
        assert mu == pytest.approx(2.0 + r, abs=1e-12)
        eta2_ref = 4.0 + 4.0 * r + 0.5 * (1.0 - np.exp(-2.0))
        assert eta2 == pytest.approx(eta2_ref, abs=1e-12)

    @pytest.mark.parametrize("name", ["linsin", "logistic", "shifted-logistic"])
    def test_matches_quadrature(self, name):
        link = make_link(name)
        g = lambda z: float(link_eval(link, np.array([z]))[0])
        mu_ref = gauss_expect(lambda z: g(z) * z)
        eta2_ref = gauss_expect(lambda z: g(z) ** 2)
        sigma2_ref = gauss_expect(lambda z: (g(z) * z) ** 2) - mu_ref**2
        mu, sigma2, eta2 = link_constants(link)
        assert mu == pytest.approx(mu_ref, abs=1e-10)
        assert eta2 == pytest.approx(eta2_ref, abs=1e-10)
        assert sigma2 == pytest.approx(sigma2_ref, abs=1e-10)

    @pytest.mark.parametrize("name", LINK_KINDS)
    def test_same_floats_on_every_call(self, name):
        first = link_constants(make_link(name))
        assert all(type(c) is float for c in first)
        assert link_constants(make_link(name)) == first


def restricted_hessian(problem, t_ref, idx):
    """Dense (1/m) Gamma_xi^T A^T diag(g'(A Gamma t_ref)) A Gamma_xi."""
    d = problem.dictionary
    G = np.hstack([basis_matrix(d.phi), basis_matrix(d.psi)])
    A = problem.A.dense()
    gp = link_deriv(problem.link, A @ (G @ t_ref))
    M = A @ G[:, np.asarray(idx)]
    return (M.T * gp) @ M / problem.A.m


def with_top_support(two_n, idx):
    """A reference point whose top-|idx| support is exactly the set idx."""
    t = np.zeros(two_n)
    t[np.asarray(idx)] = 1.0
    return t


def random_supports(two_n, k, count, seed):
    """The random supports estimate_rsc_rss(num_supports=count, seed=seed) probes."""
    rng = np.random.default_rng(seed)
    return [rng.choice(two_n, size=k, replace=False) for _ in range(count)]


class TestRscRssEstimate:
    @pytest.mark.parametrize("ensemble", ["gaussian", "subfast"])
    def test_matches_dense_eigenvalues_on_chosen_supports(self, ensemble):
        n, s, m, k = 48, 2, 40, 6
        problem, _ = planted_instance(n, s, m, seed=60, ensemble=ensemble)
        # An all-zero t_ref probes its stable top support, the first k
        # stacked indices, and then the three seeded random supports.
        zero_ref = np.zeros(2 * n)
        est = estimate_rsc_rss(problem, t_ref=zero_ref, sparsity=k, num_supports=3, seed=61)
        supports = [np.arange(k)] + random_supports(2 * n, k, 3, seed=61)
        eigs = [
            np.linalg.eigvalsh(restricted_hessian(problem, zero_ref, idx))
            for idx in supports
        ]
        assert est.supports_probed == 4
        assert est.sparsity_level == k
        np.testing.assert_allclose(est.M_hat, max(e[-1] for e in eigs), rtol=1e-5)
        np.testing.assert_allclose(est.m_hat, min(e[0] for e in eigs), rtol=1e-5)

    @pytest.mark.parametrize("ensemble", ["gaussian", "rademacher", "subfast"])
    @pytest.mark.parametrize(
        "phi, psi", [("identity", "dct"), ("identity", "haar"), ("dct", "haar"), ("haar", "identity")]
    )
    def test_exact_eigenvalues_on_mixed_supports(self, ensemble, phi, psi):
        n, s, m, k = 64, 3, 48, 8
        problem, t_star = planted_instance(n, s, m, seed=68, phi=phi, psi=psi,
                                           ensemble=ensemble)
        rng = np.random.default_rng(69)
        # Atoms 0 and n are both the constant vector for dct+haar; a support
        # holding both makes H singular, where no rtol is meaningful.
        chosen = (
            np.r_[1:1 + k // 2, n + 1:n + 1 + k // 2],
            np.r_[n - 1, 2 * n - 1, rng.choice(np.r_[1:n - 1, n + 1:2 * n - 1], k - 2,
                                               replace=False)],
            rng.choice(2 * n, size=k, replace=False),
        )
        top = np.argsort(-np.abs(t_star), kind="stable")[:k]
        # Each t_ref probes its own top support alone, with g' taken there.
        for t_ref, idx in [(t_star, top)] + [(with_top_support(2 * n, c), c) for c in chosen]:
            est = estimate_rsc_rss(problem, t_ref=t_ref, sparsity=k, num_supports=0)
            eigs = np.linalg.eigvalsh(restricted_hessian(problem, t_ref, idx))
            assert est.supports_probed == 1
            np.testing.assert_allclose(est.M_hat, eigs[-1], rtol=1e-10)
            np.testing.assert_allclose(est.m_hat, eigs[0], rtol=1e-10)

    def test_reference_point_enters_through_derivative(self):
        # The random support is probed with g' at t_star, not at the origin.
        n, s, m = 24, 2, 40
        problem, t_star = planted_instance(n, s, m, seed=62)
        est = estimate_rsc_rss(problem, t_ref=t_star, sparsity=6, num_supports=1, seed=62)
        idx_top = np.argsort(-np.abs(t_star), kind="stable")[:6]
        eigs = [
            np.linalg.eigvalsh(restricted_hessian(problem, t_star, idx))
            for idx in (idx_top, *random_supports(2 * n, 6, 1, seed=62))
        ]
        assert est.supports_probed == 2
        np.testing.assert_allclose(est.M_hat, max(e[-1] for e in eigs), rtol=1e-5)
        np.testing.assert_allclose(est.m_hat, min(e[0] for e in eigs), rtol=1e-5)

    def test_probes_the_t_ref_support_then_the_random_ones(self):
        problem, t_star = planted_instance(16, 2, 20, seed=66)
        est = estimate_rsc_rss(problem, t_ref=np.zeros(32), num_supports=3)
        assert est.supports_probed == 4
        assert estimate_rsc_rss(problem, t_star, num_supports=0).supports_probed == 1

    def test_t_ref_is_required(self):
        problem, _ = planted_instance(16, 2, 20, seed=66)
        with pytest.raises(TypeError):
            estimate_rsc_rss(problem, num_supports=3)

    def test_interval_sane_and_ordered(self):
        problem, t_star = planted_instance(64, 3, 200, seed=63)
        est = estimate_rsc_rss(problem, t_ref=t_star, seed=5)
        assert 0 < est.m_hat <= est.M_hat
        assert est.sparsity_level == min(6 * problem.s, 2 * problem.n)
        assert est.supports_probed == 9  # top support of t_ref + 8 random

    def test_more_probes_widen_the_interval(self):
        problem, t_star = planted_instance(64, 3, 200, seed=64)
        few = estimate_rsc_rss(problem, t_ref=t_star, num_supports=2, seed=11)
        many = estimate_rsc_rss(problem, t_ref=t_star, num_supports=10, seed=11)
        assert many.m_hat <= few.m_hat + 1e-12
        assert many.M_hat >= few.M_hat - 1e-12

    def test_linsin_eigenvalues_respect_derivative_bounds(self):
        # g' in [1, 3] pins H between those multiples of the restricted Gram
        n, m, k = 24, 40, 5
        problem, t_star = planted_instance(n, 2, m, seed=65)
        est = estimate_rsc_rss(problem, t_ref=t_star, sparsity=k, num_supports=4,
                               seed=9)
        G = np.hstack(
            [basis_matrix(problem.dictionary.phi), basis_matrix(problem.dictionary.psi)]
        )
        AG = problem.A.dense() @ G
        # the full (unrestricted) Gram bounds every restricted eigenvalue
        full = AG.T @ AG / problem.A.m
        lam_max = np.linalg.eigvalsh(full)[-1]
        assert est.M_hat <= 3.0 * lam_max + 1e-9
        assert est.m_hat >= 0.0

    def test_validation(self):
        problem, t_star = planted_instance(16, 2, 20, seed=66)
        with pytest.raises(ValueError):
            estimate_rsc_rss(problem, t_star, sparsity=0)
        with pytest.raises(ValueError):
            estimate_rsc_rss(problem, t_star, sparsity=33)
        with pytest.raises(ValueError):
            estimate_rsc_rss(problem, t_ref=np.zeros(5))
        with pytest.raises(ValueError, match="num_supports must be >= 0, got -1"):
            estimate_rsc_rss(problem, t_star, num_supports=-1)
        for bad in (True, 2.5, np.nan, "4"):
            for name in ("sparsity", "num_supports"):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    estimate_rsc_rss(problem, t_star, **{name: bad})
        est = estimate_rsc_rss(problem, t_star, sparsity=np.int64(4), num_supports=np.int32(2))
        assert est == estimate_rsc_rss(problem, t_star, sparsity=4, num_supports=2)
        assert type(est.sparsity_level) is int

    def test_default_sparsity_at_s_zero_names_s(self):
        # The default sparsity is min(6s, 2n); at s=0 the error names s, not
        # a sparsity nobody gave.
        problem, t_star = planted_instance(16, 0, 20, seed=68)
        message = "s=0 makes the default sparsity min(6s, 2n) 0; pass sparsity >= 1"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            estimate_rsc_rss(problem, t_ref=t_star)
        assert estimate_rsc_rss(problem, t_ref=t_star, sparsity=2).sparsity_level == 2

    def test_sign_link_rejected(self):
        problem, t_star = planted_instance(16, 2, 20, link_name="sign", seed=67)
        with pytest.raises(CapabilityError):
            estimate_rsc_rss(problem, t_star)

    @pytest.mark.xfail(
        strict=True,
        reason="at n=1024 the dictionary's own restricted Gram ratio at probe "
        "sparsity 6s = 30 is already 1.60-1.63, above 2/sqrt(3), so no m meets "
        "the target; kept as a record of the gap",
    )
    def test_conditioning_ratio_meets_contraction_target(self):
        n, s = 1024, 5
        m = int(round(20 * s * np.log(n)))
        target = 2.0 / np.sqrt(3.0)
        hits = 0
        for seed in range(10):
            problem, t_star = planted_instance(n, s, m, seed=700 + seed)
            est = estimate_rsc_rss(problem, t_ref=t_star, seed=seed)
            if est.M_hat / est.m_hat < target:
                hits += 1
        assert hits >= 8


class TestRestrictedGramFactor:
    @pytest.mark.parametrize("ensemble", ["gaussian", "rademacher", "subfast"])
    @pytest.mark.parametrize("phi, psi", [("identity", "dct"), ("dct", "haar"), ("haar", "identity")])
    def test_matches_column_by_column_oracle_bit_for_bit(self, ensemble, phi, psi):
        n, m = 64, 40
        problem, _ = planted_instance(n, 2, m, seed=70, phi=phi, psi=psi, ensemble=ensemble)
        A, d = problem.A, problem.dictionary
        # many atom blocks, the last one partial, from both halves of the stack
        idx = np.random.default_rng(71).choice(2 * n, size=37, replace=False)
        G = _restricted_gram_factor(problem, idx)

        def atom(j):
            return dict_apply(d, np.eye(1, 2 * n, j)[0])

        if ensemble == "subfast":
            oracle = np.column_stack([A.apply(atom(j)) for j in idx])
        else:
            ident = np.where(idx < n, phi == "identity", psi == "identity")
            B = np.empty((n, int(np.sum(~ident))))
            for col, j in enumerate(idx[~ident]):
                B[:, col] = atom(j)
            oracle = np.empty((m, idx.size))
            oracle[:, ident] = A.dense()[:, idx[ident] % n]
            oracle[:, ~ident] = A.dense() @ B
        assert G.shape == (m, idx.size)
        np.testing.assert_array_equal(G.view(np.int64), oracle.view(np.int64))

    def test_subfast_holds_no_full_atom_matrix(self):
        # One 120 x 2^16 float array is 60 MiB; a 4-atom block is 2 MiB, and
        # the whole factor peaks near 12 MiB (34 MiB with 16-atom blocks).
        n, m = 2**16, 2000
        problem, _ = planted_instance(n, 2, m, seed=72, phi="identity", psi="dct",
                                      ensemble="subfast")
        idx = np.random.default_rng(73).choice(2 * n, size=120, replace=False)
        tracemalloc.start()
        try:
            G = _restricted_gram_factor(problem, idx)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert G.shape == (m, 120)
        assert peak < 24 * 2**20
