"""Quality metrics, coherence quantities, link constants, RSC/RSS estimation.

The dictionary coherence gamma is the largest off-diagonal entry of
Gamma^T Gamma in absolute value; since both bases are orthonormal the only
nonzero off-diagonal entries live in the cross block Phi^T Psi, so gamma is
the largest absolute entry of that block.  The incoherence of an s-sparse
pair is bounded by s * gamma.

RSC/RSS estimation probes index sets xi of a given size (the top support
of a reference point t_ref and seeded random sets), forms the restricted
Hessian

    H_xi = (1/m) (A Gamma_xi)^T diag(g'(A Gamma t_ref)) (A Gamma_xi)

explicitly as a |xi| x |xi| matrix, and takes its extreme eigenvalues
exactly from one symmetric eigendecomposition.  The result is exact for
each probed H_xi but sampled over supports: the reported M_hat
lower-bounds the true restricted supremum and m_hat upper-bounds the true
infimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .links import _require, LinkFunction, link_deriv
from .measurement import MeasurementOperator
from .transforms import (
    _check_int, _check_vector, Dictionary, basis_adjoint, basis_apply, dict_apply,
)

if TYPE_CHECKING:  # solvers imports this module at load time
    from .solvers import DemixProblem

__all__ = ["RscRssEstimate", "cosine_similarity", "mutual_coherence", "cross_coherence",
           "link_constants", "estimate_rsc_rss"]


@dataclass(frozen=True)
class RscRssEstimate:
    """Sampled restricted-Hessian eigenvalue range."""

    m_hat: float
    M_hat: float
    supports_probed: int
    sparsity_level: int


def cosine_similarity(x: np.ndarray, x_hat: np.ndarray) -> float:
    """x^T x_hat / (||x|| ||x_hat||), or 0.0 when either vector is zero: a
    zero estimate scores as a total miss."""
    x = _check_vector(x, np.size(x), "x")
    x_hat = _check_vector(x_hat, x.size, "x_hat")
    nx = np.linalg.norm(x)
    nh = np.linalg.norm(x_hat)
    if nx == 0 or nh == 0:
        return 0.0
    return float(x @ x_hat / (nx * nh))


# Psi atoms per block of mutual_coherence: 256 x n floats at a time.
_COHERENCE_BLOCK = 256


def mutual_coherence(d: Dictionary) -> float:
    """Largest absolute entry of the cross Gram Phi^T Psi.

    Computed blockwise with fast transforms; identical bases give 1 exactly
    (duplicated columns).
    """
    n = d.n
    if d.phi.kind == d.psi.kind:
        return 1.0
    best = 0.0
    for lo in range(0, n, _COHERENCE_BLOCK):
        hi = min(lo + _COHERENCE_BLOCK, n)
        # rows of eye -> psi atoms -> analysis under phi, batched on last axis
        atoms = basis_apply(d.psi, np.eye(hi - lo, n, lo))
        cross = basis_adjoint(d.phi, atoms)
        best = max(best, float(np.max(np.abs(cross))))
    return best


def cross_coherence(A: MeasurementOperator, d: Dictionary) -> float:
    """max_{i,j} |a_i^T Gamma_j| / ||a_i|| over rows i and dictionary columns j."""
    rows = A.dense()
    norms = np.linalg.norm(rows, axis=1)
    if np.any(norms == 0):
        raise ValueError("cross-coherence is undefined when A has a zero row")
    # row i of A Phi equals the phi-analysis of row i of A
    best = 0.0
    for b in (d.phi, d.psi):
        coeffs = basis_adjoint(b, rows)
        best = max(best, float(np.max(np.abs(coeffs) / norms[:, None])))
    return best


def link_constants(link: LinkFunction) -> tuple[float, float, float]:
    """mu = E[y Z], sigma^2 = Var(y Z), eta^2 = E[y^2] for y = g(Z), Z = <a, x> ~ N(0, 1)
    at a unit-norm x.  A 64-node Gauss-Legendre rule gives E[h(Z)] = int_0^12 (h(z) +
    h(-z)) phi(z) dz, so a kink of g at 0 (sign) falls at an end; each sum is divided
    by the weights' own, so the sign link's eta^2 is exactly 1.0."""
    from numpy.polynomial.legendre import leggauss  # off the CLI's import path
    x, w = leggauss(64)
    z = np.concatenate([6.0 * (x + 1.0), -6.0 * (x + 1.0)])  # [-1, 1] onto [0, 12], mirrored
    w = np.tile(w, 2) * np.exp(-0.5 * z * z)  # phi(z) up to a factor the ratio cancels
    y = link.eval_fn(z)
    yz, total = y * z, np.sum(w)
    mu = float(np.sum(w * yz) / total)
    return mu, float(np.sum(w * (yz - mu) ** 2) / total), float(np.sum(w * y * y) / total)


def _atoms(d: Dictionary, idx: np.ndarray) -> np.ndarray:
    """|idx| x n matrix whose rows are the dictionary atoms at stacked indices idx,
    each synthesised only in the basis its index falls in."""
    atoms = np.empty((idx.size, d.n))
    for basis, half in ((d.phi, idx < d.n), (d.psi, idx >= d.n)):
        unit = np.zeros((int(np.sum(half)), d.n))
        unit[np.arange(unit.shape[0]), idx[half] % d.n] = 1.0
        atoms[half] = basis_apply(basis, unit)
    return atoms


def _identity_atoms(d: Dictionary, idx: np.ndarray) -> np.ndarray:
    """Which stacked indices idx fall in an identity basis: on a dense A, the
    column of A Gamma at such an index is a column of A."""
    return np.where(idx < d.n, d.phi.kind == "identity", d.psi.kind == "identity")


def _probe_size(problem: DemixProblem) -> int:
    """min(6s, 2n): estimate_rsc_rss's default sparsity, so the atoms of the
    auto step's one probe, and the most a settled factor may hold."""
    return min(6 * problem.s, 2 * problem.n)


# Atoms per block of a subfast restricted Gram factor: 4 x n floats at a time.
_GRAM_BLOCK = 4


def _restricted_gram_factor(problem: DemixProblem, idx: np.ndarray) -> np.ndarray:
    """G = A Gamma_xi (m x |xi|).

    On a subfast A the atoms go through A _GRAM_BLOCK at a time, so no
    |xi| x n array is held.  On a dense A an identity-basis column of Gamma
    selects a column of A, so only the atoms of the other bases are
    multiplied through.
    """
    A, d = problem.A, problem.dictionary
    idx = np.asarray(idx)
    G = np.empty((A.m, idx.size))
    if A.kind == "subfast":
        for lo in range(0, idx.size, _GRAM_BLOCK):
            G[:, lo : lo + _GRAM_BLOCK] = A.apply(_atoms(d, idx[lo : lo + _GRAM_BLOCK])).T
        return G
    ident = _identity_atoms(d, idx)
    G[:, ident] = A.dense()[:, idx[ident] % d.n]
    # The n x k atom matrix must be C-ordered: GEMM on the transposed view rounds differently.
    G[:, ~ident] = A.dense() @ np.ascontiguousarray(_atoms(d, idx[~ident]).T)
    return G


def estimate_rsc_rss(
    problem: DemixProblem,
    t_ref: np.ndarray,
    sparsity: int | None = None,
    num_supports: int = 8,
    seed: int = 0,
    *,
    u_ref: np.ndarray | None = None,
    factors: list | None = None,
) -> RscRssEstimate:
    """Sampled restricted strong convexity/smoothness bounds.

    Probes the top-|sparsity| support of t_ref (an all-zero t_ref included),
    then num_supports random supports drawn from seed, and nothing else.
    Each H_xi takes g' at u_ref = A Gamma t_ref; a caller that already holds
    u_ref passes it, and it is used as is instead of being recomputed.  A
    caller that passes a list as factors gets each probe's (xi, A Gamma_xi)
    appended to it, in probe order, the very arrays the estimate used.
    Returns the min/max eigenvalues across probes.
    """
    _require(problem.link, "estimate_rsc_rss")
    two_n = 2 * problem.n
    if sparsity is None:
        if problem.s == 0:
            raise ValueError("s=0 makes the default sparsity min(6s, 2n) 0; pass sparsity >= 1")
        sparsity = _probe_size(problem)
    sparsity = _check_int("sparsity", sparsity, 1, two_n)
    num_supports, seed = _check_int("num_supports", num_supports, 0), _check_int("seed", seed, 0)
    t_ref = _check_vector(t_ref, two_n, "t_ref", finite=True)

    supports = [np.argsort(-np.abs(t_ref), kind="stable")[:sparsity]]
    rng = np.random.default_rng(seed)
    supports += [rng.choice(two_n, size=sparsity, replace=False) for _ in range(num_supports)]
    if u_ref is None:
        u_ref = problem.A.apply(dict_apply(problem.dictionary, t_ref))
    else:
        u_ref = _check_vector(u_ref, problem.A.m, "u_ref", finite=True)
    gp = link_deriv(problem.link, u_ref)

    m_hat, M_hat = np.inf, -np.inf
    for idx in supports:
        G = _restricted_gram_factor(problem, idx)
        if factors is not None:
            factors.append((idx, G))
        eigs = np.linalg.eigvalsh((G.T * gp) @ G / problem.A.m)
        m_hat, M_hat = min(m_hat, float(eigs[0])), max(M_hat, float(eigs[-1]))
    return RscRssEstimate(m_hat, M_hat, len(supports), sparsity)
