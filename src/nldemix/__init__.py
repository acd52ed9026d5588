"""Demixing sparse signals from nonlinear observations.

Recovers two sparse components w, z from y = g(A(Phi w + Psi z)) + e via a
non-iterative thresholding estimator (oneshot), hard-threshold descent (dht),
soft-threshold descent (dst), and an l1-constrained baseline (nlcd_lasso),
with coherence/convexity diagnostics and a seeded Monte-Carlo harness.
"""

from .diagnostics import (
    RscRssEstimate,
    cosine_similarity,
    cross_coherence,
    estimate_rsc_rss,
    link_constants,
    mutual_coherence,
)
from .harness import (
    PhaseGrid,
    TrialRecord,
    TrialSpec,
    generate_signal,
    run_benchmark,
    run_phase_grid,
    run_trial,
)
from .links import (
    CapabilityError,
    LinkFunction,
    link_deriv,
    link_eval,
    link_potential,
    make_link,
)
from .measurement import (
    MeasurementOperator,
    observe,
    sample_operator,
)
from .solvers import (
    DemixProblem,
    SolveResult,
    SolverConfig,
    TraceRecord,
    dht,
    dst,
    hard_threshold,
    loss,
    loss_gradient,
    loss_hessian_matvec,
    nlcd_lasso,
    oneshot,
    project_l1_ball,
    soft_threshold,
)
from .transforms import (
    Basis,
    Dictionary,
    basis_adjoint,
    basis_apply,
    basis_matrix,
    dict_adjoint,
    dict_apply,
    stack_constituents,
)

__version__ = "0.1.0"

__all__ = [
    "Basis", "Dictionary", "basis_apply", "basis_adjoint", "basis_matrix",
    "dict_apply", "dict_adjoint", "stack_constituents",
    "MeasurementOperator", "sample_operator", "observe",
    "LinkFunction", "CapabilityError", "make_link", "link_eval", "link_deriv",
    "link_potential",
    "DemixProblem", "SolverConfig", "SolveResult", "TraceRecord",
    "hard_threshold", "soft_threshold", "project_l1_ball", "oneshot",
    "loss", "loss_gradient", "loss_hessian_matvec", "dht", "dst", "nlcd_lasso",
    "RscRssEstimate", "cosine_similarity", "mutual_coherence", "cross_coherence",
    "link_constants", "estimate_rsc_rss",
    "TrialSpec", "TrialRecord", "PhaseGrid", "generate_signal", "run_trial",
    "run_phase_grid", "run_benchmark",
    "__version__",
]
