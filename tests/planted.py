"""What several test modules share: the planted instance of the solver and
diagnostics tests, the DCT oracle of the transform and measurement tests, and
the OpenBLAS thread count a phase-grid worker reports."""

import ctypes
import os

import numpy as np

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
    read as perfbench/bench.py reads it.  Module-level, so a spawned worker can
    run it."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.rstrip("\n").split(maxsplit=5)[5] for line in fh
                if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out
