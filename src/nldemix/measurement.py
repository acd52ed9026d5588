"""Random measurement ensembles and the nonlinear observation model.

A :class:`MeasurementOperator` is an m x n linear map A with forward and
adjoint application.  Three ensembles are provided: dense Gaussian N(0,1),
dense Rademacher (+/-1), and "subfast", a subsampled orthonormal DCT
preceded by a random +/-1 sign diagonal and scaled by sqrt(n) so the rows
are approximately isotropic (E[a_i a_i^T] = I).  Observations are
y_i = g((Ax)_i) + e_i with optional Gaussian noise of standard deviation tau.
"""

from __future__ import annotations

import sys

import numpy as np

from .links import LinkFunction, link_eval
from .transforms import (
    _check_choice, _check_int, _check_last_axis, _check_real, _check_vector, _dct2, _dct3,
    _frozen,
)

ENSEMBLE_KINDS = ("gaussian", "rademacher", "subfast")


def _check_ensemble(kind: str, m: int, n: int) -> None:
    """ValueError unless `kind` is an ensemble that can draw an m x n operator."""
    if _check_choice("ensemble kind", kind, ENSEMBLE_KINDS) == "subfast" and m > n:
        raise ValueError(f"subfast requires m <= n, got m={m}, n={n}")


_last_pages: np.ndarray | None = None  # read-only 1-D owner of the last gaussian matrix
_FREE_THREADED: bool | None = None  # built without the GIL; None until first read


def _take_pages(kind: str, size: int) -> np.ndarray | None:
    """Empty the slot; return its owner if a `kind` draw may refill its
    first `size` floats, else drop it before the draw allocates.

    Only a gaussian draw refills, and only an owner with room that nobody
    else holds: an operator on it, its matrix, a view of the matrix or a
    problem built on it all hold the owner.  `pages` is compared with
    `probe`, held by one local name only, because what getrefcount adds for
    its own argument differs between interpreters (CPython 3.14 may borrow
    a local without a new reference).  Free-threaded builds count references
    per thread, so they never refill.
    """
    global _last_pages, _FREE_THREADED
    pages, _last_pages = _last_pages, None
    if pages is None or kind != "gaussian" or pages.size < size:
        return None
    if _FREE_THREADED is None:
        import sysconfig

        _FREE_THREADED = bool(sysconfig.get_config_var("Py_GIL_DISABLED"))
    probe = np.empty(0)
    shared = _FREE_THREADED or sys.getrefcount(pages) > sys.getrefcount(probe)
    return None if shared else pages


class MeasurementOperator:
    """m x n measurement map; construct via :func:`sample_operator`.

    Dense ensembles store their matrix; the subfast ensemble stores the row
    subset ``row_indices`` and sign diagonal ``signs`` and applies fast
    transforms.  All three arrays are read-only.  ``apply`` and ``adjoint``
    act along the last axis, so a 2-D input is a batch of rows.

    A gaussian matrix is a view of a 1-D owner that the next gaussian draw
    refills with a fresh draw's bits when nothing else holds it
    (`_take_pages`); a dropped one stays resident until the next draw.
    """

    def __init__(self, kind: str, m: int, n: int, seed: int):
        global _last_pages
        m, n, seed = _check_int("m", m, 1), _check_int("n", n, 1), _check_int("seed", seed, 0)
        _check_ensemble(kind, m, n)
        pages = _take_pages(kind, m * n)
        self.kind = kind
        self.m = m
        self.n = n
        self.seed = seed
        rng = np.random.default_rng(seed)
        self._matrix: np.ndarray | None = None
        self.row_indices: np.ndarray | None = None
        self.signs: np.ndarray | None = None
        if kind == "gaussian":
            pages = np.empty(m * n) if pages is None else pages
            pages.setflags(write=True)
            self._matrix = _frozen(
                rng.standard_normal((m, n), out=pages[: m * n].reshape(m, n)))
            _last_pages = _frozen(pages)
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
