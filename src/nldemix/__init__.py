"""Demixing sparse signals from nonlinear observations.

Recovers two sparse components w, z from y = g(A(Phi w + Psi z)) + e via a
non-iterative thresholding estimator (oneshot), hard-threshold descent (dht),
soft-threshold descent (dst), and an l1-constrained baseline (nlcd_lasso),
with coherence/convexity diagnostics and a seeded Monte-Carlo harness.
"""

from .diagnostics import (
    CoherenceReport,
    RscRssEstimate,
    coherence_report,
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
    export_csv,
    generate_signal,
    run_benchmark,
    run_phase_grid,
    run_trial,
)
from .links import (
    CapabilityError,
    LinkFunction,
    derivative_bounds,
    link_deriv,
    link_eval,
    link_potential,
    make_link,
)
from .measurement import (
    MeasurementOperator,
    NoiseSpec,
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
    split_constituents,
    stack_constituents,
)

__version__ = "0.1.0"

__all__ = [
    "Basis", "Dictionary", "basis_apply", "basis_adjoint", "basis_matrix",
    "dict_apply", "dict_adjoint", "split_constituents", "stack_constituents",
    "MeasurementOperator", "NoiseSpec", "sample_operator", "observe",
    "LinkFunction", "CapabilityError", "make_link", "link_eval", "link_deriv",
    "link_potential", "derivative_bounds",
    "DemixProblem", "SolverConfig", "SolveResult", "TraceRecord",
    "hard_threshold", "soft_threshold", "project_l1_ball", "oneshot",
    "loss", "loss_gradient", "loss_hessian_matvec", "dht", "dst", "nlcd_lasso",
    "CoherenceReport", "RscRssEstimate", "cosine_similarity",
    "mutual_coherence", "cross_coherence", "coherence_report",
    "link_constants", "estimate_rsc_rss",
    "TrialSpec", "TrialRecord", "PhaseGrid", "generate_signal", "run_trial",
    "run_phase_grid", "run_benchmark", "export_csv",
    "__version__",
]
