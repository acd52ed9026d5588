"""Random measurement ensembles and the nonlinear observation model.

A :class:`MeasurementOperator` is an m x n linear map A with forward and
adjoint application.  Three ensembles are provided: dense Gaussian N(0,1),
dense Rademacher (+/-1), and "subfast", a subsampled orthonormal DCT
preceded by a random +/-1 sign diagonal and scaled by sqrt(n) so the rows
are approximately isotropic (E[a_i a_i^T] = I).  Observations are
y_i = g((Ax)_i) + e_i with optional Gaussian noise of standard deviation tau.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .links import LinkFunction, link_eval
from .transforms import _dct2, _dct3

ENSEMBLE_KINDS = ("gaussian", "rademacher", "subfast")


@dataclass(frozen=True)
class NoiseSpec:
    """Additive observation noise: kind "none" or "gaussian" with std tau."""

    kind: str = "none"
    tau: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "gaussian"):
            raise ValueError(f"unknown noise kind {self.kind!r}")
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")
        if self.kind == "none" and self.tau != 0.0:
            raise ValueError("noise kind 'none' requires tau = 0")


class MeasurementOperator:
    """m x n measurement map; construct via :func:`sample_operator`.

    Dense ensembles store their matrix; the subfast ensemble stores the
    row subset ``row_indices`` and sign diagonal ``signs`` and applies
    fast transforms.
    """

    def __init__(self, kind: str, m: int, n: int, seed: int):
        if kind not in ENSEMBLE_KINDS:
            raise ValueError(f"unknown ensemble kind {kind!r}; expected one of {ENSEMBLE_KINDS}")
        if m < 1 or n < 1:
            raise ValueError(f"operator dimensions must be positive, got m={m}, n={n}")
        if kind == "subfast" and m > n:
            raise ValueError(f"subfast requires m <= n, got m={m}, n={n}")
        self.kind = kind
        self.m = int(m)
        self.n = int(n)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self._matrix: np.ndarray | None = None
        self.row_indices: np.ndarray | None = None
        self.signs: np.ndarray | None = None
        if kind == "gaussian":
            self._matrix = rng.standard_normal((m, n))
        elif kind == "rademacher":
            self._matrix = rng.choice([-1.0, 1.0], size=(m, n))
        else:
            self.row_indices = np.sort(rng.choice(n, size=m, replace=False))
            self.signs = rng.choice([-1.0, 1.0], size=n)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"x must have length {self.n}, got shape {x.shape}")
        if self._matrix is not None:
            return self._matrix @ x
        u = _dct2(self.signs * x)
        return np.sqrt(self.n) * u[self.row_indices]

    def adjoint(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.m,):
            raise ValueError(f"v must have length {self.m}, got shape {v.shape}")
        if self._matrix is not None:
            return self._matrix.T @ v
        u = np.zeros(self.n)
        u[self.row_indices] = v
        return np.sqrt(self.n) * self.signs * _dct3(u)

    def dense(self) -> np.ndarray:
        """Materialized m x n matrix.  O(m n) memory; rows for subfast are
        built one adjoint application at a time."""
        if self._matrix is not None:
            return self._matrix
        rows = np.empty((self.m, self.n))
        e = np.zeros(self.m)
        for i in range(self.m):
            e[i] = 1.0
            rows[i] = self.adjoint(e)
            e[i] = 0.0
        return rows


def sample_operator(kind: str, m: int, n: int, seed: int) -> MeasurementOperator:
    """Draw a measurement operator; deterministic in (kind, m, n, seed)."""
    return MeasurementOperator(kind, m, n, seed)


def observe(
    A: MeasurementOperator,
    link: LinkFunction,
    x: np.ndarray,
    noise: NoiseSpec = NoiseSpec(),
    seed: int = 0,
) -> np.ndarray:
    """Nonlinear observations y = g(Ax) + e, deterministic given seed."""
    y = link_eval(link, A.apply(x))
    if noise.kind == "gaussian" and noise.tau > 0:
        y = y + noise.tau * np.random.default_rng(seed).standard_normal(A.m)
    return y
