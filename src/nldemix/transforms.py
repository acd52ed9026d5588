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

import math
import reprlib
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Basis", "Dictionary", "basis_apply", "basis_adjoint", "basis_matrix", "dict_apply",
           "dict_adjoint", "stack_constituents"]

_SQRT2 = np.sqrt(2.0)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def _check_int(name: str, value, minimum: int | None = None,
               maximum: int | None = None) -> int:
    """`value` as a Python int, or ValueError unless it is a Python or numpy
    integer (not a bool) of at least `minimum` and at most `maximum`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be <= {maximum}, got {value}")
    return int(value)


def _check_choice(what: str, value, choices: tuple[str, ...]) -> str:
    """`value`, or ValueError unless it is a string (numpy's included) in
    `choices`; a list or an array is unknown too, whatever it holds."""
    if not isinstance(value, str) or value not in choices:
        raise ValueError(f"unknown {what} {value!r}; expected one of {choices}")
    return value


def _check_instance(name: str, value, cls: type):
    """`value`, or ValueError unless it is an instance of `cls`."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")
    return value


def _check_list(name: str, values, of: str, item) -> tuple:
    """`item(v)` for each entry v, as a tuple, or ValueError unless `values` is
    a non-empty sequence or 1-D array of distinct entries (not a `str`, `bytes`,
    set, dict or iterator); `of` names the entries in the message, which
    abbreviates `values` and names the first entry that repeats."""
    if (values.ndim != 1 if isinstance(values, np.ndarray)
            else isinstance(values, (str, bytes)) or not isinstance(values, Sequence)):
        raise ValueError(f"{name} must be a sequence of {of}, got {reprlib.repr(values)}")
    checked = tuple(item(v) for v in values)
    first: dict = {}
    repeat = ""
    for j, v in enumerate(checked):
        if first.setdefault(v, j) != j:
            repeat = f"; entry {j} repeats entry {first[v]}"
            break
    if not checked or repeat:
        raise ValueError(
            f"{name} must be distinct and non-empty, got {reprlib.repr(values)}{repeat}")
    return checked


def _check_real(name: str, value, *, positive: bool) -> None:
    """ValueError unless `value` is a Python or numpy real number (not a
    bool), finite as a float, and positive, or nonnegative if not `positive`."""
    try:
        ok = (not isinstance(value, bool)
              and isinstance(value, (int, float, np.integer, np.floating))
              and math.isfinite(value) and (value > 0 if positive else value >= 0))
    except OverflowError:  # an int beyond the float range
        ok = False
    if not ok:
        sign = "positive" if positive else "nonnegative"
        raise ValueError(f"{name} must be finite and {sign}, got {value!r}")


def _check_vector(v, n: int, what: str, *, finite: bool = False) -> np.ndarray:
    """`v` as a float array of shape (n,), or ValueError; with `finite`, also
    ValueError if it holds NaN or infinite entries."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{what} must be a vector of length {n}, got shape {v.shape}")
    if finite and not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite; it holds NaN or infinite entries")
    return v


def _check_last_axis(v: np.ndarray, n: int, what: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim < 1 or v.shape[-1] != n:
        raise ValueError(f"{what} must have a last axis of length {n}, got shape {v.shape}")
    return v


def _frozen(a: np.ndarray) -> np.ndarray:
    """`a`, set read-only in place: the one way an array is made read-only."""
    a.setflags(write=False)
    return a


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
        _check_choice("basis kind", self.kind, BASIS_KINDS)
        _check_int("n", self.n, 1)
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
    return _frozen(tw), _frozen(1.0 / tw)


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


# kind -> (synthesis, analysis), each along the last axis.
_BASES = {
    "identity": (np.copy, np.copy),
    "dct": (_dct3, _dct2),
    "haar": (_haar_synthesis, _haar_analysis),
}
BASIS_KINDS = tuple(_BASES)


def basis_apply(b: Basis, coeffs: np.ndarray) -> np.ndarray:
    """Synthesis Phi @ coeffs along the last axis; preserves the l2 norm.

    A 2-D input is a batch of coefficient rows, each synthesized alone.
    """
    return _BASES[b.kind][0](_check_last_axis(coeffs, b.n, "coeffs"))


def basis_adjoint(b: Basis, x: np.ndarray) -> np.ndarray:
    """Analysis Phi^T @ x along the last axis; inverse of :func:`basis_apply`."""
    return _BASES[b.kind][1](_check_last_axis(x, b.n, "x"))


def basis_matrix(b: Basis) -> np.ndarray:
    """Materialized n x n synthesis matrix (columns are the atoms).

    Intended for small-n testing and diagnostics; O(n^2) memory.
    """
    return basis_apply(b, np.eye(b.n)).T


def stack_constituents(w: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Stack (w, z) into t = [w; z]."""
    w = _check_vector(w, np.size(w), "w")
    return np.concatenate([w, _check_vector(z, w.size, "z")])


def dict_apply(d: Dictionary, t: np.ndarray) -> np.ndarray:
    """Gamma @ t = Phi w + Psi z for t = [w; z], along the last axis."""
    t = _check_last_axis(t, 2 * d.n, "t")
    return basis_apply(d.phi, t[..., : d.n]) + basis_apply(d.psi, t[..., d.n :])


def dict_adjoint(d: Dictionary, x: np.ndarray) -> np.ndarray:
    """Gamma^T @ x = [Phi^T x; Psi^T x]; dict_apply(dict_adjoint(x)) = 2x."""
    x = _check_vector(x, d.n, "x")
    return np.concatenate([basis_adjoint(d.phi, x), basis_adjoint(d.psi, x)])
