"""Quality metrics, coherence quantities, link constants, RSC/RSS estimation.

The dictionary coherence gamma is the largest off-diagonal entry of
Gamma^T Gamma in absolute value; since both bases are orthonormal the only
nonzero off-diagonal entries live in the cross block Phi^T Psi, so gamma is
the largest absolute entry of that block.  The incoherence of an s-sparse
pair is bounded by s * gamma.

RSC/RSS estimation samples index sets xi of a given size, forms the
restricted Hessian

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

from .links import CapabilityError, LinkFunction, link_deriv, link_eval
from .measurement import MeasurementOperator
from .transforms import Dictionary, basis_adjoint, basis_apply, dict_apply

if TYPE_CHECKING:  # solvers imports this module at load time
    from .solvers import DemixProblem


@dataclass(frozen=True)
class CoherenceReport:
    """Dictionary coherence gamma, the bound s * gamma, and (optionally)
    the measurement cross-coherence vartheta."""

    gamma: float
    epsilon_bound: float
    vartheta: float | None = None


@dataclass(frozen=True)
class RscRssEstimate:
    """Sampled restricted-Hessian eigenvalue range."""

    m_hat: float
    M_hat: float
    supports_probed: int
    sparsity_level: int


def cosine_similarity(x: np.ndarray, x_hat: np.ndarray) -> float:
    """x^T x_hat / (||x|| ||x_hat||); errors on zero vectors."""
    x = np.asarray(x, dtype=float)
    x_hat = np.asarray(x_hat, dtype=float)
    if x.shape != x_hat.shape or x.ndim != 1:
        raise ValueError(f"inputs must be vectors of equal length, got {x.shape}, {x_hat.shape}")
    nx = np.linalg.norm(x)
    nh = np.linalg.norm(x_hat)
    if nx == 0 or nh == 0:
        raise ValueError("cosine similarity is undefined for zero vectors")
    return float(x @ x_hat / (nx * nh))


def mutual_coherence(d: Dictionary, block: int = 256) -> float:
    """Largest absolute entry of the cross Gram Phi^T Psi.

    Computed blockwise with fast transforms; identical bases give 1 exactly
    (duplicated columns).
    """
    n = d.n
    if d.phi.kind == d.psi.kind:
        return 1.0
    best = 0.0
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        # rows of eye -> psi atoms -> analysis under phi, batched on last axis
        atoms = basis_apply(d.psi, np.eye(n)[lo:hi])
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


def coherence_report(d: Dictionary, s: int,
                     A: MeasurementOperator | None = None) -> CoherenceReport:
    """Bundle gamma, the bound s * gamma, and vartheta when A is given."""
    gamma = mutual_coherence(d)
    vt = cross_coherence(A, d) if A is not None else None
    return CoherenceReport(gamma=gamma, epsilon_bound=s * gamma, vartheta=vt)


def link_constants(link: LinkFunction, trials: int, seed: int) -> tuple[float, float, float]:
    """Monte-Carlo estimates of mu = E[y <a, x>], sigma^2 = Var(y <a, x>),
    eta^2 = E[y^2] for a unit-norm signal and standard normal measurements.

    For unit x the projection <a, x> is exactly N(0, 1), so the constants
    reduce to one-dimensional integrals over Z ~ N(0,1) with y = g(Z).
    """
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    z = np.random.default_rng(seed).standard_normal(trials)
    y = link_eval(link, z)
    yz = y * z
    mu = float(np.mean(yz))
    sigma2 = float(np.var(yz))
    eta2 = float(np.mean(y * y))
    return mu, sigma2, eta2


def _gamma_columns(d: Dictionary, idx: np.ndarray) -> np.ndarray:
    """n x |idx| matrix of dictionary columns for stacked indices."""
    n = d.n
    idx = np.asarray(idx)
    B = np.zeros((n, idx.size))
    for basis, cols in ((d.phi, np.flatnonzero(idx < n)), (d.psi, np.flatnonzero(idx >= n))):
        unit = np.zeros((cols.size, n))
        unit[np.arange(cols.size), idx[cols] % n] = 1.0
        B[:, cols] = basis_apply(basis, unit).T
    return B


def _restricted_gram_factor(problem: DemixProblem, idx: np.ndarray) -> np.ndarray:
    """G = A Gamma_xi (m x |xi|).

    On a dense A an identity-basis column of Gamma selects a column of A, so
    only the atoms of the other bases are multiplied through.
    """
    A, d = problem.A, problem.dictionary
    idx = np.asarray(idx)
    if A.kind == "subfast":
        B = _gamma_columns(d, idx)
        return np.column_stack([A.apply(B[:, j]) for j in range(B.shape[1])])
    ident = np.where(idx < d.n, d.phi.kind == "identity", d.psi.kind == "identity")
    G = np.empty((A.m, idx.size))
    G[:, ident] = A.dense()[:, idx[ident] % d.n]
    G[:, ~ident] = A.dense() @ _gamma_columns(d, idx[~ident])
    return G


def estimate_rsc_rss(
    problem: DemixProblem,
    t_ref: np.ndarray | None = None,
    sparsity: int | None = None,
    num_supports: int = 8,
    seed: int = 0,
    extra_supports: tuple[np.ndarray, ...] = (),
    *,
    u_ref: np.ndarray | None = None,
) -> RscRssEstimate:
    """Sampled restricted strong convexity/smoothness bounds.

    Probes the top-|sparsity| support of t_ref (when given), num_supports
    random supports, and any extra_supports (e.g. sets visited by a solver
    trace); returns the running min/max eigenvalues across probes.  u_ref,
    when given, is the forward product A Gamma t_ref a caller already holds;
    it is used as is instead of being recomputed.
    """
    if not problem.link.has_derivative:
        raise CapabilityError(
            f"estimate_rsc_rss requires a link with a derivative; {problem.link.name!r} has none"
        )
    two_n = 2 * problem.n
    if sparsity is None:
        sparsity = min(6 * problem.s, two_n)
    if sparsity < 1 or sparsity > two_n:
        raise ValueError(f"sparsity must be in [1, {two_n}], got {sparsity}")

    if t_ref is None:
        t_ref = np.zeros(two_n)
    else:
        t_ref = np.asarray(t_ref, dtype=float)
        if t_ref.shape != (two_n,):
            raise ValueError(f"t_ref must have length {two_n}, got shape {t_ref.shape}")

    if u_ref is None:
        u_ref = problem.A.apply(dict_apply(problem.dictionary, t_ref))
    else:
        u_ref = np.asarray(u_ref, dtype=float)
        if u_ref.shape != (problem.A.m,):
            raise ValueError(f"u_ref must have length {problem.A.m}, got shape {u_ref.shape}")
    gp = link_deriv(problem.link, u_ref)

    supports: list[np.ndarray] = []
    if np.any(t_ref != 0) or num_supports == 0:
        supports.append(np.argsort(-np.abs(t_ref), kind="stable")[:sparsity])
    rng = np.random.default_rng(seed)
    for _ in range(num_supports):
        supports.append(rng.choice(two_n, size=sparsity, replace=False))
    for extra in extra_supports:
        extra = np.asarray(extra)
        if extra.size != sparsity:
            raise ValueError(
                f"extra support has size {extra.size}, expected {sparsity}"
            )
        supports.append(extra)

    m_hat = np.inf
    M_hat = -np.inf
    for idx in supports:
        G = _restricted_gram_factor(problem, idx)
        eigs = np.linalg.eigvalsh((G.T * gp) @ G / problem.A.m)
        M_hat = max(M_hat, float(eigs[-1]))
        m_hat = min(m_hat, float(eigs[0]))
    return RscRssEstimate(
        m_hat=float(m_hat),
        M_hat=float(M_hat),
        supports_probed=len(supports),
        sparsity_level=int(sparsity),
    )
