"""Orthonormal bases and the stacked two-basis dictionary.

A :class:`Basis` is an orthonormal transform on R^n addressed by a string
kind ("identity", "dct", "haar").  ``basis_apply`` is synthesis (coefficients
to signal, the matrix Phi acting on a vector) and ``basis_adjoint`` is
analysis (Phi^T).  A :class:`Dictionary` stacks two bases into
Gamma = [Phi  Psi] acting on constituent vectors t = [w; z] of length 2n,
so that ``dict_apply`` computes Phi w + Psi z and ``dict_adjoint`` computes
[Phi^T x; Psi^T x].  Because both bases are orthonormal, Gamma Gamma^T = 2 I.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

BASIS_KINDS = ("identity", "dct", "haar")

_SQRT2 = np.sqrt(2.0)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Basis:
    """Orthonormal basis of R^n selected by kind.

    kind : one of "identity", "dct", "haar".  The DCT is the orthonormal
        DCT-II convention whose first atom is the constant vector 1/sqrt(n).
        "haar" requires n to be a power of two.
    n : dimension.
    """

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in BASIS_KINDS:
            raise ValueError(f"unknown basis kind {self.kind!r}; expected one of {BASIS_KINDS}")
        if self.n < 1:
            raise ValueError(f"basis dimension must be positive, got {self.n}")
        if self.kind == "haar" and not _is_power_of_two(self.n):
            raise ValueError(f"haar basis requires n to be a power of two, got {self.n}")


@dataclass(frozen=True)
class Dictionary:
    """The n x 2n dictionary Gamma = [Phi  Psi] built from two bases."""

    phi: Basis
    psi: Basis

    def __post_init__(self) -> None:
        if self.phi.n != self.psi.n:
            raise ValueError(
                f"bases must share a dimension, got {self.phi.n} and {self.psi.n}"
            )

    @property
    def n(self) -> int:
        return self.phi.n


def _haar_synthesis(coeffs: np.ndarray) -> np.ndarray:
    """Inverse lifting cascade along the last axis.

    Coefficient layout: [approx, d_coarsest, ..., d_finest].
    """
    n = coeffs.shape[-1]
    a = coeffs[..., :1].copy()
    size = 1
    while size < n:
        d = coeffs[..., size : 2 * size]
        out = np.empty(coeffs.shape[:-1] + (2 * size,), dtype=np.result_type(coeffs, float))
        out[..., 0::2] = (a + d) / _SQRT2
        out[..., 1::2] = (a - d) / _SQRT2
        a = out
        size *= 2
    return a


def _haar_analysis(x: np.ndarray) -> np.ndarray:
    """Forward lifting cascade along the last axis."""
    n = x.shape[-1]
    out = np.empty(x.shape[:-1] + (n,), dtype=np.result_type(x, float))
    a = np.asarray(x, dtype=float)
    pos = n
    while a.shape[-1] > 1:
        even = a[..., 0::2]
        odd = a[..., 1::2]
        half = even.shape[-1]
        out[..., pos - half : pos] = (even - odd) / _SQRT2
        a = (even + odd) / _SQRT2
        pos -= half
    out[..., 0] = a[..., 0]
    return out


@lru_cache(maxsize=16)
def _dct_twiddle(n: int) -> tuple[np.ndarray, np.ndarray]:
    # (tw, 1/tw) with tw_k = s_k exp(-i pi k / 2n) for k = 0..n//2, s_k the
    # orthonormal DCT-II scale.  Read-only: every caller shares the arrays.
    k = np.arange(n // 2 + 1)
    tw = np.sqrt(2.0 / n) * np.exp(-0.5j * np.pi * k / n)
    tw[0] = np.sqrt(1.0 / n)
    inv = 1.0 / tw
    tw.flags.writeable = inv.flags.writeable = False
    return tw, inv


def _dct2(x: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-II along the last axis, by one real FFT (Makhoul 1980).

    With v = [x_0, x_2, ..., x_3, x_1] (evens, then odds reversed) and
    Y_k = tw_k FFT(v)_k, X_k = Re Y_k for k <= n/2 and X_{n-k} = -Im Y_k.
    """
    n = x.shape[-1]
    h = n // 2 + 1
    y = np.fft.rfft(np.concatenate([x[..., 0::2], x[..., 1::2][..., ::-1]], axis=-1), axis=-1)
    y *= _dct_twiddle(n)[0]
    out = np.empty(x.shape)
    out[..., :h] = y.real
    np.negative(y.imag[..., 1 : (n + 1) // 2][..., ::-1], out=out[..., h:])
    return out


def _dct3(c: np.ndarray) -> np.ndarray:
    """Orthonormal DCT-III along the last axis: the inverse of :func:`_dct2`."""
    n = c.shape[-1]
    h = n // 2 + 1
    y = np.empty(c.shape[:-1] + (h,), dtype=complex)
    y.real = c[..., :h]
    y.imag[..., 0] = 0.0
    np.negative(c[..., (n + 1) // 2 :][..., ::-1], out=y.imag[..., 1:])
    y *= _dct_twiddle(n)[1]
    v = np.fft.irfft(y, n=n, axis=-1)
    x = np.empty_like(v)
    x[..., 0::2] = v[..., : (n + 1) // 2]
    x[..., 1::2] = v[..., (n + 1) // 2 :][..., ::-1]
    return x


def _check_last_axis(v: np.ndarray, n: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim < 1 or v.shape[-1] != n:
        raise ValueError(f"{what} must have a last axis of length {n}, got shape {v.shape}")
    return v


def basis_apply(b: Basis, coeffs: np.ndarray) -> np.ndarray:
    """Synthesis Phi @ coeffs along the last axis; preserves the l2 norm.

    A 2-D input is a batch of coefficient rows, each synthesized alone.
    """
    c = _check_last_axis(coeffs, b.n, "coeffs")
    if b.kind == "identity":
        return c.copy()
    return _dct3(c) if b.kind == "dct" else _haar_synthesis(c)


def basis_adjoint(b: Basis, x: np.ndarray) -> np.ndarray:
    """Analysis Phi^T @ x along the last axis; inverse of :func:`basis_apply`."""
    x = _check_last_axis(x, b.n, "x")
    if b.kind == "identity":
        return x.copy()
    return _dct2(x) if b.kind == "dct" else _haar_analysis(x)


def basis_matrix(b: Basis) -> np.ndarray:
    """Materialized n x n synthesis matrix (columns are the atoms).

    Intended for small-n testing and diagnostics; O(n^2) memory.
    """
    return basis_apply(b, np.eye(b.n)).T


def split_constituents(t: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Split a stacked vector t = [w; z] of length 2n into (w, z)."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 1 or t.shape[0] != 2 * n:
        raise ValueError(f"constituent vector must have length {2 * n}, got shape {t.shape}")
    return t[:n].copy(), t[n:].copy()


def stack_constituents(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Stack (w, z) into t = [w; z]."""
    w = np.asarray(w, dtype=float)
    z = np.asarray(z, dtype=float)
    if w.shape != z.shape or w.ndim != 1:
        raise ValueError(f"w and z must be vectors of equal length, got {w.shape} and {z.shape}")
    return np.concatenate([w, z])


def dict_apply(d: Dictionary, t: np.ndarray) -> np.ndarray:
    """Gamma @ t = Phi w + Psi z for t = [w; z]."""
    w, z = split_constituents(t, d.n)
    return basis_apply(d.phi, w) + basis_apply(d.psi, z)


def dict_adjoint(d: Dictionary, x: np.ndarray) -> np.ndarray:
    """Gamma^T @ x = [Phi^T x; Psi^T x]; dict_apply(dict_adjoint(x)) = 2x."""
    x = np.asarray(x, dtype=float)
    if x.shape != (d.n,):
        raise ValueError(f"x must be a vector of length {d.n}, got shape {x.shape}")
    return np.concatenate([basis_adjoint(d.phi, x), basis_adjoint(d.psi, x)])
