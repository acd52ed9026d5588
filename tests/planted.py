"""The planted instance the solver and diagnostics tests share."""

import numpy as np

from nldemix.links import make_link
from nldemix.measurement import observe, sample_operator
from nldemix.solvers import DemixProblem
from nldemix.transforms import Basis, Dictionary, dict_apply


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
