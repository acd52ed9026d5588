"""Random measurement ensembles and the nonlinear observation model.

A :class:`MeasurementOperator` is an m x n linear map A with forward and
adjoint application.  Three ensembles are provided: dense Gaussian N(0,1),
dense Rademacher (+/-1), and "subfast", a subsampled orthonormal DCT
preceded by a random +/-1 sign diagonal and scaled by sqrt(n) so the rows
are approximately isotropic (E[a_i a_i^T] = I).  Observations are
y_i = g((Ax)_i) + e_i with optional Gaussian noise of standard deviation tau.
"""

from __future__ import annotations

import numpy as np

from .links import LinkFunction, link_eval
from .transforms import (
    _check_choice, _check_int, _check_last_axis, _check_real, _check_vector, _dct2, _dct3,
)

ENSEMBLE_KINDS = ("gaussian", "rademacher", "subfast")


def _check_ensemble(kind: str, m: int, n: int) -> None:
    """ValueError unless `kind` is an ensemble that can draw an m x n operator."""
    if _check_choice("ensemble kind", kind, ENSEMBLE_KINDS) == "subfast" and m > n:
        raise ValueError(f"subfast requires m <= n, got m={m}, n={n}")


class MeasurementOperator:
    """m x n measurement map; construct via :func:`sample_operator`.

    Dense ensembles store their matrix; the subfast ensemble stores the row
    subset ``row_indices`` and sign diagonal ``signs`` and applies fast
    transforms.  All three arrays are read-only.  ``apply`` and ``adjoint``
    act along the last axis, so a 2-D input is a batch of rows.
    """

    def __init__(self, kind: str, m: int, n: int, seed: int, _pages=None):
        m, n, seed = _check_int("m", m, 1), _check_int("n", n, 1), _check_int("seed", seed, 0)
        _check_ensemble(kind, m, n)
        self.kind = kind
        self.m = m
        self.n = n
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._matrix: np.ndarray | None = None
        self.row_indices: np.ndarray | None = None
        self.signs: np.ndarray | None = None
        if kind == "gaussian":
            # `_pages`, if given, is the read-only 1-D owner of >= m*n floats
            # that nothing else can see; the draw fills its first m*n entries
            # with the same bits as a fresh draw.  The matrix is always a view
            # of its owner, so the owner can be passed to a later draw.
            pages = np.empty(m * n) if _pages is None else _pages
            pages.setflags(write=True)
            self._matrix = rng.standard_normal((m, n), out=pages[: m * n].reshape(m, n))
            pages.setflags(write=False)
        elif kind == "rademacher":
            self._matrix = rng.choice([-1.0, 1.0], size=(m, n))
        else:
            self.row_indices = np.sort(rng.choice(n, size=m, replace=False))
            self.signs = rng.choice([-1.0, 1.0], size=n)
        for array in (self._matrix, self.row_indices, self.signs):
            if array is not None:
                array.setflags(write=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = _check_last_axis(x, self.n, "x")
        if self._matrix is not None:
            return x @ self._matrix.T
        u = _dct2(self.signs * x)
        return np.sqrt(self.n) * u[..., self.row_indices]

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        v = _check_last_axis(v, self.m, "v")
        if self._matrix is not None:
            return v @ self._matrix
        u = np.zeros(v.shape[:-1] + (self.n,))
        u[..., self.row_indices] = v
        return np.sqrt(self.n) * self.signs * _dct3(u)

    def dense(self) -> np.ndarray:
        """Materialized m x n matrix: the stored read-only one for dense
        ensembles; for subfast a new one, O(m n) memory, built one adjoint
        application at a time."""
        if self._matrix is not None:
            return self._matrix
        rows = np.empty((self.m, self.n))
        e = np.zeros(self.m)
        for i in range(self.m):
            e[i] = 1.0
            rows[i] = self.adjoint(e)
            e[i] = 0.0
        return rows


def sample_operator(kind: str, m: int, n: int, seed: int, _pages=None) -> MeasurementOperator:
    """Draw a measurement operator; deterministic in (kind, m, n, seed)."""
    return MeasurementOperator(kind, m, n, seed, _pages)


def observe(
    A: MeasurementOperator,
    link: LinkFunction,
    x: np.ndarray,
    tau: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Nonlinear observations y = g(Ax) + e, deterministic given seed; e is
    Gaussian with standard deviation tau, and absent when tau = 0."""
    _check_real("tau", tau, positive=False)
    seed = _check_int("seed", seed, 0)
    y = link_eval(link, A.apply(_check_vector(x, A.n, "x")))
    if tau > 0:
        y = y + tau * np.random.default_rng(seed).standard_normal(A.m)
    return y
