"""Measurement ensembles: adjoint pairing, dense oracle, noisy observation."""

import weakref

import numpy as np
import pytest

from nldemix import measurement
from nldemix.links import make_link
from nldemix.measurement import (
    MeasurementOperator,
    observe,
    sample_operator,
)
from nldemix.solvers import DemixProblem
from nldemix.transforms import Basis, Dictionary

from planted import dct_matrix


class TestSampling:
    def test_rejects_unknown_ensemble(self):
        with pytest.raises(ValueError):
            sample_operator("bernoulli", 4, 8, 0)

    def test_rejects_bad_dimensions(self):
        with pytest.raises(ValueError):
            sample_operator("gaussian", 0, 8, 0)
        with pytest.raises(ValueError):
            sample_operator("subfast", 12, 8, 0)
        for args, name in ((("gaussian", 2.5, 8, 0), "m"), (("rademacher", 4, True, 0), "n"),
                           (("gaussian", 4, 8, 1.5), "seed"), (("subfast", 4, 8.0, 0), "n")):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                sample_operator(*args)
        A = sample_operator("gaussian", np.int64(4), np.int32(8), np.uint64(2**63))
        assert (type(A.m), type(A.n), type(A.seed)) == (int, int, int)

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

    def test_subfast_selection_is_read_only(self):
        A = sample_operator("subfast", 6, 16, 3)
        for array in (A.row_indices, A.signs):
            with pytest.raises(ValueError):
                array[0] = array[1]

    def test_gaussian_row_statistics(self):
        # one long row suffices: mean near 0, variance near 1
        A = sample_operator("gaussian", 1, 100000, 0)
        row = A.dense()[0]
        assert abs(row.mean()) < 0.02
        assert abs(row.var() - 1.0) < 0.02


@pytest.fixture
def empty_slot(monkeypatch):
    """No gaussian pages left over from an earlier draw."""
    monkeypatch.setattr(measurement, "_last_pages", None)


_HOLDERS = {  # what a caller keeps of an operator, and how to read its matrix back
    "operator": (lambda A: A, lambda held: held.dense()),
    "matrix": (lambda A: A.dense(), lambda held: held),
    "view": (lambda A: A.dense()[:10], lambda held: held),
    "problem": (lambda A: DemixProblem(A=A, dictionary=Dictionary(Basis("identity", A.n),
                                                                  Basis("dct", A.n)),
                                       link=make_link("linsin"), y=np.zeros(A.m), s=1),
                lambda held: held.A.dense()),
}


class TestGaussianRefill:
    @pytest.mark.parametrize("m", [30, 40])
    def test_dropped_operator_is_refilled_with_a_cold_draw(self, empty_slot, m):
        A = sample_operator("gaussian", 40, 64, 1)
        owner = weakref.ref(A.dense().base)
        del A
        warm = sample_operator("gaussian", m, 64, 2)
        assert warm.dense().base is owner()
        cold = sample_operator("gaussian", m, 64, 2)  # `warm` holds the owner
        assert cold.dense().base is not owner()
        np.testing.assert_array_equal(warm.dense().view(np.int64), cold.dense().view(np.int64))
        for array in (warm.dense(), warm.dense().base):
            with pytest.raises(ValueError):
                array[0] = 1.0

    @pytest.mark.parametrize("holder", list(_HOLDERS))
    def test_held_matrix_is_never_refilled(self, empty_slot, holder):
        hold, read = _HOLDERS[holder]
        A = sample_operator("gaussian", 40, 64, 1)
        owner = weakref.ref(A.dense().base)
        held = hold(A)
        values = read(held).copy()
        del A
        B = sample_operator("gaussian", 40, 64, 2)
        assert owner() is not None and B.dense().base is not owner()
        np.testing.assert_array_equal(read(held).view(np.int64), values.view(np.int64))

    @pytest.mark.parametrize("kind", ["rademacher", "subfast"])
    def test_other_draws_empty_the_slot(self, empty_slot, kind):
        A = sample_operator("gaussian", 16, 64, 1)
        owner = weakref.ref(A.dense().base)
        del A
        assert owner() is not None  # resident until the next draw
        sample_operator(kind, 16, 64, 2)
        assert owner() is None


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
        for kind in ("gaussian", "subfast"):
            A = sample_operator(kind, 4, 8, 0)
            for bad_x, bad_v in ((np.zeros((3, 7)), np.zeros((3, 8))),
                                 (np.zeros((8, 3)), np.zeros((4, 3))),
                                 (np.float64(0.0), np.float64(0.0))):
                with pytest.raises(ValueError, match="last axis"):
                    A.apply(bad_x)
                with pytest.raises(ValueError, match="last axis"):
                    A.adjoint(bad_v)

    @pytest.mark.parametrize("kind", ["gaussian", "rademacher", "subfast"])
    def test_batches_act_along_the_last_axis(self, kind):
        m, n = 12, 32
        A = sample_operator(kind, m, n, 3)
        rng = np.random.default_rng(22)
        X = rng.standard_normal((5, n))
        V = rng.standard_normal((5, m))
        for f, batch, oracle in ((A.apply, X, X @ A.dense().T), (A.adjoint, V, V @ A.dense())):
            Y = f(batch)
            assert Y.shape == oracle.shape
            for row, out in zip(batch, Y):
                if kind == "subfast":
                    np.testing.assert_array_equal(out.view(np.int64), f(row).view(np.int64))
                else:  # one GEMM rounds differently from one GEMV per row
                    ref = f(row)
                    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-12 * np.linalg.norm(ref))
            if kind != "subfast":
                np.testing.assert_array_equal(Y, oracle)

    @pytest.mark.parametrize("m, n", [(12, 32), (7, 5), (60, 64), (33, 17)])
    @pytest.mark.parametrize("kind", ["gaussian", "rademacher"])
    def test_dense_vectors_keep_matrix_vector_bits(self, kind, m, n):
        A = sample_operator(kind, m, n, 4)
        M = A.dense()
        rng = np.random.default_rng(23)
        x = rng.standard_normal(n)
        v = rng.standard_normal(m)
        np.testing.assert_array_equal(A.apply(x).view(np.int64), (M @ x).view(np.int64))
        np.testing.assert_array_equal(A.adjoint(v).view(np.int64), (M.T @ v).view(np.int64))


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
        y1 = observe(A, link, x, tau=0.3, seed=9)
        y2 = observe(A, link, x, tau=0.3, seed=9)
        np.testing.assert_array_equal(y1, y2)
        y3 = observe(A, link, x, tau=0.3, seed=10)
        assert not np.array_equal(y1, y3)

    def test_zero_tau_gaussian_equals_noiseless(self):
        A = sample_operator("gaussian", 15, 12, 0)
        link = make_link("logistic")
        x = np.random.default_rng(6).standard_normal(12)
        np.testing.assert_array_equal(
            observe(A, link, x, tau=0.0, seed=1),
            observe(A, link, x),
        )

    def test_noise_magnitude_tracks_tau(self):
        A = sample_operator("gaussian", 5000, 8, 0)
        link = make_link("linsin")
        x = np.random.default_rng(7).standard_normal(8)
        clean = observe(A, link, x)
        tau = 0.25
        noisy = observe(A, link, x, tau=tau, seed=2)
        assert abs(np.std(noisy - clean) - tau) < 0.01

    def test_rejects_negative_tau(self):
        A = sample_operator("gaussian", 4, 8, 0)
        with pytest.raises(ValueError):
            observe(A, make_link("linsin"), np.zeros(8), tau=-0.1)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, True, "0.1", None])
    def test_rejects_non_finite_tau(self, tau):
        A = sample_operator("gaussian", 4, 8, 0)
        with pytest.raises(ValueError, match="tau must be finite and nonnegative"):
            observe(A, make_link("linsin"), np.zeros(8), tau=tau)
