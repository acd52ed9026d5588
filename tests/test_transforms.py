"""Bases and dictionary: round trips, orthonormality, dense-matrix oracles."""

import numpy as np
import pytest
from scipy.fft import dct, idct

from nldemix.transforms import (
    Basis,
    Dictionary,
    basis_adjoint,
    basis_apply,
    basis_matrix,
    dict_adjoint,
    dict_apply,
    stack_constituents,
)
from nldemix.transforms import _dct2, _dct3

from planted import dct_matrix


def haar_analysis_matrix(n: int) -> np.ndarray:
    """Haar analysis matrix as a product of explicit single-level butterflies.

    Built independently of the package's lifting code: each level is the
    orthogonal matrix sending the current approximation block to stacked
    (sums, differences) / sqrt(2), leaving finished detail blocks alone.
    """
    W = np.eye(n)
    size = n
    while size > 1:
        half = size // 2
        level = np.zeros((n, n))
        for i in range(half):
            level[i, 2 * i] = level[i, 2 * i + 1] = 1.0 / np.sqrt(2.0)
            level[half + i, 2 * i] = 1.0 / np.sqrt(2.0)
            level[half + i, 2 * i + 1] = -1.0 / np.sqrt(2.0)
        for i in range(size, n):
            level[i, i] = 1.0
        # layout [approx | d_coarsest ... d_finest]: the fresh detail block
        # lands at [half:size] and later levels leave it untouched.
        W = level @ W
        size = half
    return W


class TestBasisValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            Basis("fourier", 8)

    @pytest.mark.parametrize("bad", [2.5, True, np.nan, "8"])
    def test_dimension_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="n must be an integer"):
            Basis("dct", bad)
        assert Basis("identity", np.int64(8)).n == 8

    def test_haar_needs_power_of_two(self):
        with pytest.raises(ValueError):
            Basis("haar", 12)
        Basis("haar", 16)  # fine

    def test_dimension_mismatch_rejected(self):
        b = Basis("dct", 8)
        with pytest.raises(ValueError):
            basis_apply(b, np.zeros(7))
        with pytest.raises(ValueError):
            basis_adjoint(b, np.zeros(9))

    @pytest.mark.parametrize("bad", [np.zeros((3, 7)), np.zeros((8, 3)), np.float64(1.0)],
                             ids=["short-last-axis", "wrong-axis", "0-d"])
    def test_batched_shape_errors(self, bad):
        b = Basis("dct", 8)
        with pytest.raises(ValueError):
            basis_apply(b, bad)
        with pytest.raises(ValueError):
            basis_adjoint(b, bad)
        # t = [w; z] has a last axis of 2n = 8
        with pytest.raises(ValueError, match="last axis"):
            dict_apply(Dictionary(Basis("identity", 4), Basis("dct", 4)), bad)

    def test_dict_adjoint_stays_one_dimensional(self):
        d = Dictionary(Basis("identity", 8), Basis("dct", 8))
        with pytest.raises(ValueError):
            dict_adjoint(d, np.zeros((2, 8)))

    def test_dictionary_requires_shared_dimension(self):
        with pytest.raises(ValueError):
            Dictionary(Basis("identity", 8), Basis("dct", 16))


class TestBasisExamples:
    def test_identity_apply(self):
        b = Basis("identity", 4)
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(basis_apply(b, v), v)
        np.testing.assert_array_equal(basis_adjoint(b, v), v)

    def test_dct_first_atom_is_constant(self):
        b = Basis("dct", 4)
        e1 = np.array([1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(basis_apply(b, e1), np.full(4, 0.5), atol=1e-14)
        np.testing.assert_allclose(basis_adjoint(b, np.full(4, 0.5)), e1, atol=1e-14)

    def test_haar_norm_preserved(self):
        b = Basis("haar", 8)
        v = np.random.default_rng(3).standard_normal(8)
        np.testing.assert_allclose(
            np.linalg.norm(basis_apply(b, v)), np.linalg.norm(v), rtol=1e-12
        )

    def test_haar_round_trip_e3(self):
        b = Basis("haar", 8)
        e3 = np.zeros(8)
        e3[2] = 1.0
        np.testing.assert_allclose(basis_adjoint(b, basis_apply(b, e3)), e3, atol=1e-12)

    def test_haar_hand_computed_n4(self):
        # analysis of e1 at n = 4: approx 1/2, coarse detail 1/2, fine detail
        # (1/sqrt(2), 0); analysis of e2 flips the fine detail sign.
        b = Basis("haar", 4)
        r = np.sqrt(2.0)
        np.testing.assert_allclose(
            basis_adjoint(b, np.array([1.0, 0.0, 0.0, 0.0])),
            np.array([0.5, 0.5, 1 / r, 0.0]),
            atol=1e-14,
        )
        np.testing.assert_allclose(
            basis_adjoint(b, np.array([0.0, 1.0, 0.0, 0.0])),
            np.array([0.5, 0.5, -1 / r, 0.0]),
            atol=1e-14,
        )


class TestOrthonormalityInvariants:
    @pytest.mark.parametrize("kind", ["identity", "dct", "haar"])
    @pytest.mark.parametrize("n", [4, 8, 16, 256])
    def test_adjoint_inverts_apply_and_preserves_norm(self, kind, n):
        b = Basis(kind, n)
        rng = np.random.default_rng(100 * n + len(kind))
        for _ in range(100):
            v = rng.standard_normal(n)
            out = basis_apply(b, v)
            np.testing.assert_allclose(
                np.linalg.norm(out), np.linalg.norm(v), rtol=1e-10
            )
            np.testing.assert_allclose(basis_adjoint(b, out), v, atol=1e-10)


class TestDenseOracles:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_dct_matches_cosine_formula(self, n):
        b = Basis("dct", n)
        synthesis = dct_matrix(n).T  # columns are atoms
        np.testing.assert_allclose(basis_matrix(b), synthesis, atol=1e-10)
        rng = np.random.default_rng(n)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(basis_apply(b, v), synthesis @ v, atol=1e-10)
        np.testing.assert_allclose(basis_adjoint(b, v), synthesis.T @ v, atol=1e-10)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_haar_matches_butterfly_product(self, n):
        b = Basis("haar", n)
        W = haar_analysis_matrix(n)
        rng = np.random.default_rng(n + 1)
        v = rng.standard_normal(n)
        np.testing.assert_allclose(basis_adjoint(b, v), W @ v, atol=1e-10)
        np.testing.assert_allclose(basis_apply(b, v), W.T @ v, atol=1e-10)

    def test_dict_apply_matches_dense_stack_n16(self):
        n = 16
        d = Dictionary(Basis("identity", n), Basis("dct", n))
        G = np.hstack([np.eye(n), dct_matrix(n).T])
        rng = np.random.default_rng(7)
        t = rng.standard_normal(2 * n)
        np.testing.assert_allclose(dict_apply(d, t), G @ t, atol=1e-10)
        x = rng.standard_normal(n)
        np.testing.assert_allclose(dict_adjoint(d, x), G.T @ x, atol=1e-10)


class TestBatchedBases:
    @pytest.mark.parametrize("kind", ["identity", "dct", "haar"])
    def test_rows_match_one_dimensional_calls_bit_for_bit(self, kind):
        b = Basis(kind, 16)
        X = np.random.default_rng(8).standard_normal((5, 16))
        for f in (basis_apply, basis_adjoint):
            Y = f(b, X)
            assert Y.shape == X.shape
            for row, out in zip(X, Y):
                np.testing.assert_array_equal(out.view(np.int64), f(b, row).view(np.int64))

    @pytest.mark.parametrize("phi, psi", [("identity", "dct"), ("dct", "haar"), ("haar", "identity")])
    def test_dict_apply_rows_match_one_dimensional_calls_bit_for_bit(self, phi, psi):
        d = Dictionary(Basis(phi, 16), Basis(psi, 16))
        T = np.random.default_rng(9).standard_normal((5, 32))
        Y = dict_apply(d, T)
        assert Y.shape == (5, 16)
        for row, out in zip(T, Y):
            np.testing.assert_array_equal(out.view(np.int64), dict_apply(d, row).view(np.int64))


class TestFastDct:
    """The FFT-based DCT-II/III pair against SciPy's orthonormal DCT."""

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 255, 256, 4096])
    @pytest.mark.parametrize("shape", [(), (3,), (2, 3)])
    def test_matches_scipy_and_round_trips(self, n, shape):
        x = np.random.default_rng(n).standard_normal(shape + (n,))
        atol = 1e-13 * max(1.0, float(np.linalg.norm(x)))
        np.testing.assert_allclose(_dct2(x), dct(x, norm="ortho", axis=-1), rtol=0, atol=atol)
        np.testing.assert_allclose(_dct3(x), idct(x, norm="ortho", axis=-1), rtol=0, atol=atol)
        np.testing.assert_allclose(_dct3(_dct2(x)), x, rtol=0, atol=atol)
        np.testing.assert_allclose(_dct2(_dct3(x)), x, rtol=0, atol=atol)

    def test_rows_transform_independently(self):
        X = np.random.default_rng(5).standard_normal((4, 37))
        for f in (_dct2, _dct3):
            np.testing.assert_array_equal(f(X)[2], f(X[2]))

    def test_input_left_unchanged(self):
        x = np.random.default_rng(6).standard_normal(16)
        keep = x.copy()
        _dct2(x)
        _dct3(x)
        np.testing.assert_array_equal(x, keep)


class TestDictionary:
    def test_identity_pair_sums(self):
        n = 8
        d = Dictionary(Basis("identity", n), Basis("identity", n))
        rng = np.random.default_rng(0)
        w = rng.standard_normal(n)
        z = rng.standard_normal(n)
        np.testing.assert_allclose(dict_apply(d, np.concatenate([w, z])), w + z)
        x = rng.standard_normal(n)
        np.testing.assert_array_equal(dict_adjoint(d, x), np.concatenate([x, x]))

    def test_zero_z_reduces_to_phi(self):
        n = 16
        d = Dictionary(Basis("haar", n), Basis("dct", n))
        rng = np.random.default_rng(1)
        w = rng.standard_normal(n)
        t = np.concatenate([w, np.zeros(n)])
        np.testing.assert_allclose(dict_apply(d, t), basis_apply(d.phi, w), atol=1e-12)

    @pytest.mark.parametrize(
        "phi,psi", [("identity", "dct"), ("haar", "dct"), ("identity", "haar")]
    )
    def test_gamma_gammat_is_2I(self, phi, psi):
        n = 32
        d = Dictionary(Basis(phi, n), Basis(psi, n))
        rng = np.random.default_rng(5)
        for _ in range(100):
            x = rng.standard_normal(n)
            np.testing.assert_allclose(
                dict_apply(d, dict_adjoint(d, x)), 2.0 * x, atol=1e-10
            )

    def test_gram_diagonal_is_ones(self):
        n = 16
        d = Dictionary(Basis("identity", n), Basis("dct", n))
        G = np.hstack([basis_matrix(d.phi), basis_matrix(d.psi)])
        np.testing.assert_allclose(np.diag(G.T @ G), np.ones(2 * n), atol=1e-12)


class TestConstituents:
    def test_split_and_stack_round_trip(self):
        rng = np.random.default_rng(2)
        t = rng.standard_normal(20)
        np.testing.assert_array_equal(stack_constituents(t[:10], t[10:]), t)
