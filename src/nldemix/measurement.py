"""Random measurement ensembles and the nonlinear observation model.

A :class:`MeasurementOperator` is an m x n linear map A with forward and
adjoint application.  Three ensembles are provided: dense Gaussian N(0,1),
dense Rademacher (+/-1), and "subfast", a subsampled orthonormal DCT
preceded by a random +/-1 sign diagonal and scaled by sqrt(n) so the rows
are approximately isotropic (E[a_i a_i^T] = I).  Observations are
y_i = g((Ax)_i) + e_i with optional Gaussian noise of standard deviation tau.
"""

from __future__ import annotations

import weakref

import numpy as np

from .links import LinkFunction, link_eval
from .transforms import (
    _check_choice, _check_int, _check_last_axis, _check_real, _check_vector, _dct2, _dct3,
    _frozen,
)

__all__ = ["MeasurementOperator", "sample_operator", "observe"]

ENSEMBLE_KINDS = ("gaussian", "rademacher", "subfast")


def _check_ensemble(kind: str, m: int, n: int) -> None:
    """ValueError unless `kind` is an ensemble that can draw an m x n operator."""
    if _check_choice("ensemble kind", kind, ENSEMBLE_KINDS) == "subfast" and m > n:
        raise ValueError(f"subfast requires m <= n, got m={m}, n={n}")


_spare: list[np.ndarray] = []  # at most one buffer whose gaussian matrix has died


def _release(buf: np.ndarray) -> None:
    """Keep `buf`, whose matrix and every view of it have died, for the next draw."""
    _spare[:] = [buf]


def _take_spare(kind: str, size: int) -> np.ndarray | None:
    """Empty the spare with one atomic `pop`; return it if a `kind` draw may
    refill its first `size` floats, else drop it before the draw allocates."""
    try:
        buf = _spare.pop()
    except IndexError:
        return None
    return buf if kind == "gaussian" and buf.size >= size else None


class MeasurementOperator:
    """m x n measurement map; construct via :func:`sample_operator`.

    Dense ensembles store their matrix; the subfast ensemble stores the row
    subset ``row_indices`` and sign diagonal ``signs`` and applies fast
    transforms.  All three arrays are read-only.  ``apply`` and ``adjoint``
    act along the last axis, so a 2-D input is a batch of rows.

    A gaussian matrix is a view of a 1-D array over a private buffer, which
    becomes the spare once that array and all its views have died: the next
    gaussian draw refills it (`_take_spare`), and until then it stays resident.
    """

    def __init__(self, kind: str, m: int, n: int, seed: int):
        m, n, seed = _check_int("m", m, 1), _check_int("n", n, 1), _check_int("seed", seed, 0)
        _check_ensemble(kind, m, n)
        buf = _take_spare(kind, m * n)
        self.kind = kind
        self.m = m
        self.n = n
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._matrix: np.ndarray | None = None
        self.row_indices: np.ndarray | None = None
        self.signs: np.ndarray | None = None
        if kind == "gaussian":
            buf = np.empty(m * n) if buf is None else buf
            rng.standard_normal((m, n), out=buf[: m * n].reshape(m, n))
            pages = _frozen(np.frombuffer(buf.data))  # every view's base chain stops here
            weakref.finalize(pages, _release, buf).atexit = False
            self._matrix = pages[: m * n].reshape(m, n)
        elif kind == "rademacher":
            self._matrix = _frozen(rng.choice([-1.0, 1.0], size=(m, n)))
        else:
            self.row_indices = _frozen(np.sort(rng.choice(n, size=m, replace=False)))
            self.signs = _frozen(rng.choice([-1.0, 1.0], size=n))

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


def sample_operator(kind: str, m: int, n: int, seed: int) -> MeasurementOperator:
    """Draw a measurement operator; deterministic in (kind, m, n, seed)."""
    return MeasurementOperator(kind, m, n, seed)


def observe(
    A: MeasurementOperator,
    link: LinkFunction,
    x: np.ndarray,
    tau: float = 0.0,
    seed: int = 0,
) -> np.ndarray:
    """Nonlinear observations y = g(Ax) + e, deterministic given seed; e is
    Gaussian with standard deviation tau, and absent when tau = 0.  x and y
    must be finite: a noise draw that overflows is a ValueError too."""
    _check_real("tau", tau, positive=False)
    seed = _check_int("seed", seed, 0)
    y = link_eval(link, A.apply(_check_vector(x, A.n, "x", finite=True)))
    if tau > 0:
        with np.errstate(over="ignore"):  # an overflow is caught as a non-finite y
            y = y + tau * np.random.default_rng(seed).standard_normal(A.m)
    return _check_vector(y, A.m, "y", finite=True)
