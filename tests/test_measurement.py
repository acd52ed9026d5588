"""Measurement ensembles: adjoint pairing, dense oracle, noisy observation."""

import numpy as np
import pytest

from nldemix.links import make_link
from nldemix.measurement import (
    MeasurementOperator,
    NoiseSpec,
    observe,
    sample_operator,
)


def dct_matrix(n: int) -> np.ndarray:
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    C = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    C[0] /= np.sqrt(2.0)
    return C


class TestNoiseSpec:
    def test_defaults_are_noiseless(self):
        spec = NoiseSpec()
        assert spec.kind == "none"
        assert spec.tau == 0.0

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="poisson")

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="gaussian", tau=-0.1)

    def test_none_with_positive_tau_rejected(self):
        with pytest.raises(ValueError):
            NoiseSpec(kind="none", tau=0.5)


class TestSampling:
    def test_rejects_unknown_ensemble(self):
        with pytest.raises(ValueError):
            sample_operator("bernoulli", 4, 8, 0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_operator("gaussian", 0, 8, 0)
        with pytest.raises(ValueError):
            sample_operator("subfast", 12, 8, 0)

    def test_deterministic_in_seed(self):
        x = np.random.default_rng(9).standard_normal(32)
        for kind in ("gaussian", "rademacher", "subfast"):
            a = sample_operator(kind, 16, 32, seed=5)
            b = sample_operator(kind, 16, 32, seed=5)
            np.testing.assert_array_equal(a.apply(x), b.apply(x))
            c = sample_operator(kind, 16, 32, seed=6)
            assert not np.array_equal(a.apply(x), c.apply(x))

    def test_rademacher_entries(self):
        A = sample_operator("rademacher", 10, 12, 0)
        np.testing.assert_array_equal(np.abs(A.dense()), np.ones((10, 12)))

    def test_subfast_exposes_selection(self):
        A = sample_operator("subfast", 6, 16, 3)
        assert A.row_indices.shape == (6,)
        assert len(np.unique(A.row_indices)) == 6
        assert A.row_indices.min() >= 0 and A.row_indices.max() < 16
        np.testing.assert_array_equal(np.abs(A.signs), np.ones(16))

    def test_gaussian_row_statistics(self):
        # one long row suffices: mean near 0, variance near 1
        A = sample_operator("gaussian", 1, 100000, 0)
        row = A.dense()[0]
        assert abs(row.mean()) < 0.02
        assert abs(row.var() - 1.0) < 0.02


class TestApplyAdjoint:
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "subfast"])
    def test_adjoint_pairing(self, kind):
        m, n = 12, 32
        A = sample_operator(kind, m, n, 1)
        rng = np.random.default_rng(42)
        for _ in range(50):
            x = rng.standard_normal(n)
            v = rng.standard_normal(m)
            np.testing.assert_allclose(
                np.dot(A.apply(x), v), np.dot(x, A.adjoint(v)), rtol=1e-10
            )

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "subfast"])
    def test_dense_matches_apply(self, kind):
        m, n = 8, 16
        A = sample_operator(kind, m, n, 2)
        D = A.dense()
        assert D.shape == (m, n)
        rng = np.random.default_rng(21)
        for _ in range(20):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(A.apply(x), D @ x, atol=1e-10)
            v = rng.standard_normal(m)
            np.testing.assert_allclose(A.adjoint(v), D.T @ v, atol=1e-10)

    def test_subfast_rows_follow_construction(self):
        # A = sqrt(n) * (selected DCT analysis rows) * diag(signs)
        m, n = 5, 16
        A = sample_operator("subfast", m, n, 7)
        C = dct_matrix(n)
        expected = np.sqrt(n) * C[A.row_indices] * A.signs[None, :]
        np.testing.assert_allclose(A.dense(), expected, atol=1e-10)

    def test_subfast_rows_near_isotropic(self):
        # row norms are exactly sqrt(n) because DCT rows are unit vectors
        m, n = 20, 64
        A = sample_operator("subfast", m, n, 11)
        norms = np.linalg.norm(A.dense(), axis=1)
        np.testing.assert_allclose(norms, np.sqrt(n), rtol=1e-12)

    def test_shape_validation(self):
        A = sample_operator("gaussian", 4, 8, 0)
        with pytest.raises(ValueError):
            A.apply(np.zeros(7))
        with pytest.raises(ValueError):
            A.adjoint(np.zeros(8))


class TestObserve:
    def test_noiseless_is_link_of_projection(self):
        A = sample_operator("gaussian", 6, 12, 0)
        link = make_link("linsin")
        x = np.random.default_rng(3).standard_normal(12)
        u = A.apply(x)
        np.testing.assert_allclose(observe(A, link, x), 2.0 * u + np.sin(u))

    def test_sign_link_observations_are_pm1(self):
        A = sample_operator("gaussian", 40, 12, 1)
        y = observe(A, make_link("sign"), np.random.default_rng(4).standard_normal(12))
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_noise_seed_reproducible(self):
        A = sample_operator("gaussian", 30, 12, 0)
        link = make_link("linsin")
        x = np.random.default_rng(5).standard_normal(12)
        noise = NoiseSpec(kind="gaussian", tau=0.3)
        y1 = observe(A, link, x, noise=noise, seed=9)
        y2 = observe(A, link, x, noise=noise, seed=9)
        np.testing.assert_array_equal(y1, y2)
        y3 = observe(A, link, x, noise=noise, seed=10)
        assert not np.array_equal(y1, y3)

    def test_zero_tau_gaussian_equals_noiseless(self):
        A = sample_operator("gaussian", 15, 12, 0)
        link = make_link("logistic")
        x = np.random.default_rng(6).standard_normal(12)
        np.testing.assert_array_equal(
            observe(A, link, x, noise=NoiseSpec("gaussian", 0.0), seed=1),
            observe(A, link, x),
        )

    def test_noise_magnitude_tracks_tau(self):
        A = sample_operator("gaussian", 5000, 8, 0)
        link = make_link("linsin")
        x = np.random.default_rng(7).standard_normal(8)
        clean = observe(A, link, x)
        tau = 0.25
        noisy = observe(A, link, x, noise=NoiseSpec("gaussian", tau), seed=2)
        assert abs(np.std(noisy - clean) - tau) < 0.01
