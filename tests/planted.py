"""What several test modules share: the planted instance of the solver and
diagnostics tests, the DCT oracle of the transform and measurement tests, and
the OpenBLAS thread count a phase-grid worker reports."""

import ctypes
import os

import numpy as np

from nldemix.harness import _openblas
from nldemix.links import make_link
from nldemix.measurement import observe, sample_operator
from nldemix.solvers import DemixProblem
from nldemix.transforms import Basis, Dictionary, dict_apply


def dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II analysis matrix built from the cosine formula."""
    k = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    C = np.sqrt(2.0 / n) * np.cos(np.pi * (2 * j + 1) * k / (2 * n))
    C[0] /= np.sqrt(2.0)
    return C


def planted_instance(n, s, m, link_name="linsin", seed=0, phi="identity", psi="dct",
                     ensemble="gaussian"):
    """Noiseless problem with +/-1 coefficients on random disjoint supports."""
    rng = np.random.default_rng(seed)
    d = Dictionary(Basis(phi, n), Basis(psi, n))
    w = np.zeros(n)
    z = np.zeros(n)
    w[rng.choice(n, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
    z[rng.choice(n, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
    t_star = np.concatenate([w, z])
    A = sample_operator(ensemble, m, n, seed + 1)
    link = make_link(link_name)
    y = observe(A, link, dict_apply(d, t_star))
    return DemixProblem(A=A, dictionary=d, link=link, y=y, s=s), t_star


def openblas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process,
    found as a phase-grid worker finds it.  Module-level, so a spawned worker
    can run it."""
    out = {}
    for path, get in _openblas("get"):
        get.argtypes, get.restype = [], ctypes.c_int
        out[os.path.basename(path)] = get()
    return out
