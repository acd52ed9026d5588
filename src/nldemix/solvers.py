"""Recovery algorithms and their primitives.

The problem: given y = g(A(Phi w + Psi z)) + e with w, z each s-sparse,
recover the constituents.  Writing Gamma = [Phi  Psi] and t = [w; z], the
descent algorithms minimize

    F(t) = (1/m) sum_i Theta(a_i^T Gamma t) - y_i a_i^T Gamma t,

whose gradient is (1/m) Gamma^T A^T (g(A Gamma t) - y); F is convex whenever
g is nondecreasing.

Algorithms:

* ``oneshot``   - non-iterative: hard-threshold the analysis coefficients of
                  the linear estimator x_lin = (1/m) A^T y.
* ``dht``       - projected gradient with hard thresholding to the 2s
                  largest entries (or s per block).
* ``dst``       - iterative soft thresholding, t <- S_{beta eta}(t - eta grad),
                  i.e. ISTA on F(t) + beta ||t||_1.
* ``nlcd_lasso``- l1-constrained least squares on the linear estimator:
                  min ||x_lin - Gamma t||_2 s.t. ||t||_1 <= radius, by
                  projected gradient.

Steps: "auto" sets eta = 1/M_hat from the restricted-Hessian smoothness
estimate on the initializer's top-6s support, with per-iteration halving
whenever the objective would increase (composite F + beta ||t||_1 for dst).
When no halving lowers it, the solve keeps its iterate and stops unconverged.

Solves on one problem share what they derive from it alone: x_lin (oneshot,
nlcd_lasso) and, for each (init, step_size), the descent start t0,
A Gamma t0, the step and grad F(t0) (dht, dst).  They are kept, read-only,
on the problem itself and die with it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diagnostics
from .links import _require, LinkFunction, link_deriv, link_eval, link_potential
from .measurement import MeasurementOperator
from .transforms import (
    _check_choice, _check_int, _check_real, _check_vector, _frozen, Dictionary, dict_adjoint,
    dict_apply,
)

PROJECTION_MODES = ("stacked2s", "perblocks")
INIT_MODES = ("oneshot", "zero")

_MAX_HALVINGS = 30


@dataclass(frozen=True, eq=False)
class DemixProblem:
    """Observation bundle (A, Gamma, g, y, s); == and hash are identity."""

    A: MeasurementOperator
    dictionary: Dictionary
    link: LinkFunction
    y: np.ndarray
    s: int
    # Read-only state its solves share: "x_lin" and one descent start per
    # (init, step_size) key.  A dataclasses.replace copy starts empty.
    _shared: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        # A read-only copy: editing the caller's array cannot change the problem.
        y = _check_vector(self.y, self.A.m, "y", finite=True)
        object.__setattr__(self, "y", _frozen(y.copy()))
        if self.A.n != self.dictionary.n:
            raise ValueError(
                f"operator columns ({self.A.n}) and dictionary dimension "
                f"({self.dictionary.n}) disagree"
            )
        _check_int("s", self.s, 0, self.A.n)

    @property
    def n(self) -> int:
        return self.A.n


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    step_size: positive float, or "auto" for 1/M_hat.
    init: "oneshot", "zero", or an explicit length-2n array, stored as a
        tuple of floats so that configs compare and hash.
    projection_mode: "stacked2s" projects t jointly onto 2s-sparse vectors
        (may split unevenly across the halves); "perblocks" keeps s per half.
    lasso_radius: l1 budget for nlcd_lasso; None means 2 sqrt(s).
    dst_beta: soft-threshold tuning parameter beta; the per-step threshold
        is beta times the step actually taken.
    """

    step_size: float | str = "auto"
    max_iters: int = 1000
    rel_tol: float = 1e-7
    init: str | tuple[float, ...] = "oneshot"
    projection_mode: str = "stacked2s"
    lasso_radius: float | None = None
    dst_beta: float = 0.5
    keep_iterates: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.step_size, str) or self.step_size != "auto":
            _check_real("step_size", self.step_size, positive=True)
        _check_int("max_iters", self.max_iters, 1)
        _check_real("rel_tol", self.rel_tol, positive=True)
        init = np.asarray(self.init)
        if init.dtype.kind not in "biuf":  # a name, or anything but an array of numbers
            _check_choice("init mode", self.init, INIT_MODES)
        else:
            init = _check_vector(init, init.size, "init", finite=True)
            object.__setattr__(self, "init", tuple(init.tolist()))
        _check_choice("projection mode", self.projection_mode, PROJECTION_MODES)
        if self.lasso_radius is not None:
            _check_real("lasso_radius", self.lasso_radius, positive=True)
        _check_real("dst_beta", self.dst_beta, positive=False)


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a solve."""

    iteration: int
    loss: float | None
    step_norm: float
    support_size: int


@dataclass(frozen=True, eq=False)
class SolveResult:
    """The read-only estimate t_hat = [w_hat; z_hat] plus per-iteration trace.

    w_hat and z_hat are views of t_hat's halves, and the read-only x_hat
    equals dict_apply(t_hat) exactly.  iterates is populated only when
    SolverConfig.keep_iterates is set.  == and hash are identity.
    """

    t_hat: np.ndarray
    x_hat: np.ndarray
    trace: tuple[TraceRecord, ...]
    converged: bool
    iterates: tuple[np.ndarray, ...] | None = None

    @property
    def iterations_run(self) -> int:
        """Accepted steps: the last trace record's iteration, 0 for an empty trace."""
        return self.trace[-1].iteration if self.trace else 0

    @property
    def w_hat(self) -> np.ndarray:
        return self.t_hat[: self.t_hat.size // 2]

    @property
    def z_hat(self) -> np.ndarray:
        return self.t_hat[self.t_hat.size // 2 :]


# ---------------------------------------------------------------------------
# thresholding / projection primitives


def hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of v, zero the rest.

    Ties between equal magnitudes are broken toward the lowest index, making
    runs deterministic.  k >= len(v) returns a copy of v; k = 0 returns zeros.
    """
    v = _check_vector(v, np.size(v), "v")
    k = _check_int("k", k, 0)
    if k >= v.size:
        return v.copy()
    out = np.zeros_like(v)
    if k == 0:
        return out
    # Keep what a stable argsort of -|v| would put first: every key below the
    # k-th smallest, then keys equal to it lowest index first.  NaN keys sort
    # last, so a NaN k-th key ties exactly the NaN entries.
    key = -np.abs(v)
    kth = np.partition(key, k - 1)[k - 1]
    if np.isnan(kth):
        keep, tied = ~np.isnan(key), np.isnan(key)
    else:
        keep, tied = key < kth, key == kth
    keep[np.flatnonzero(tied)[: k - np.count_nonzero(keep)]] = True
    out[keep] = v[keep]
    return out


def soft_threshold(v: np.ndarray, lam: float) -> np.ndarray:
    """Elementwise shrink-toward-zero by a finite lam >= 0."""
    _check_real("threshold", lam, positive=False)
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def project_l1_ball(v: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection of a finite v onto the l1 ball of finite radius r > 0.

    Returns v unchanged when already feasible; otherwise soft-thresholds by
    the unique lambda making the l1 norm equal r (sort-based exact rule).
    """
    _check_real("radius", r, positive=True)
    v = _check_vector(v, np.size(v), "v", finite=True)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    # k = 1 qualifies as r > 0, unless r is below the float spacing at max|v|.
    qualifies = np.flatnonzero(u * np.arange(1, v.size + 1) > (css - r))
    rho = qualifies[-1] if qualifies.size else 0
    lam = (css[rho] - r) / (rho + 1.0)
    return soft_threshold(v, lam)


# ---------------------------------------------------------------------------
# loss, gradient, Hessian-vector product


# The _at forms take the forward product u = A Gamma t, so a solver that has
# just evaluated F at t reuses u for the gradient instead of recomputing it.
def _forward(problem: DemixProblem, t: np.ndarray) -> np.ndarray:
    return problem.A.apply(dict_apply(problem.dictionary, t))


def _loss_at(problem: DemixProblem, u: np.ndarray) -> float:
    return float(np.mean(link_potential(problem.link, u) - problem.y * u))


def _gradient_at(problem: DemixProblem, u: np.ndarray) -> np.ndarray:
    resid = link_eval(problem.link, u) - problem.y
    return dict_adjoint(problem.dictionary, problem.A.adjoint(resid)) / problem.A.m


def loss(problem: DemixProblem, t: np.ndarray) -> float:
    """F(t) = (1/m) sum Theta(a_i^T Gamma t) - y_i a_i^T Gamma t."""
    _require(problem.link, "loss")
    t = _check_vector(t, 2 * problem.n, "t", finite=True)
    return _loss_at(problem, _forward(problem, t))


def loss_gradient(problem: DemixProblem, t: np.ndarray) -> np.ndarray:
    """grad F(t) = (1/m) Gamma^T A^T (g(A Gamma t) - y)."""
    _require(problem.link, "loss_gradient")
    t = _check_vector(t, 2 * problem.n, "t", finite=True)
    return _gradient_at(problem, _forward(problem, t))


def loss_hessian_matvec(problem: DemixProblem, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(grad^2 F(t)) @ v = (1/m) Gamma^T A^T (g'(A Gamma t) * (A Gamma v))."""
    _require(problem.link, "loss_hessian_matvec")
    t = _check_vector(t, 2 * problem.n, "t", finite=True)
    v = _check_vector(v, 2 * problem.n, "v", finite=True)
    gp = link_deriv(problem.link, _forward(problem, t))
    Av = _forward(problem, v)
    return dict_adjoint(problem.dictionary, problem.A.adjoint(gp * Av)) / problem.A.m


# ---------------------------------------------------------------------------
# algorithms


def _x_lin(problem: DemixProblem) -> np.ndarray:
    """The linear estimator (1/m) A^T y."""
    shared = problem._shared
    if "x_lin" not in shared:
        shared["x_lin"] = _frozen(problem.A.adjoint(problem.y) / problem.A.m)
    return shared["x_lin"]


def _finish(problem: DemixProblem, t: np.ndarray, trace, converged: bool,
            iterates=None) -> SolveResult:
    """The result of a solve whose estimate is t, frozen in place."""
    return SolveResult(_frozen(t), _frozen(dict_apply(problem.dictionary, t)), tuple(trace),
                       converged, None if iterates is None else tuple(iterates))


def _zero_result(problem: DemixProblem, keep: bool) -> SolveResult:
    its = (np.zeros(2 * problem.n),) if keep else None
    return _finish(problem, np.zeros(2 * problem.n), (TraceRecord(0, None, 0.0, 0),), True, its)


def _project(t: np.ndarray, problem: DemixProblem, mode: str) -> np.ndarray:
    """t hard-thresholded to 2s entries ("stacked2s") or s per block ("perblocks")."""
    if mode == "perblocks":
        n, s = problem.n, problem.s
        return np.concatenate([hard_threshold(t[:n], s), hard_threshold(t[n:], s)])
    return hard_threshold(t, 2 * problem.s)


def oneshot(problem: DemixProblem) -> SolveResult:
    """Non-iterative estimator: per-block hard thresholding of the analysis
    coefficients of x_lin = (1/m) A^T y.  Works for any link, including sign.
    """
    t = _project(dict_adjoint(problem.dictionary, _x_lin(problem)), problem, "perblocks")
    rec = TraceRecord(0, None, 0.0, int(np.count_nonzero(t)))
    return _finish(problem, t, (rec,), True)


def _descent_start(problem: DemixProblem, config: SolverConfig) -> tuple:
    """(t0, A Gamma t0, step, grad F(t0)) for config's init and step size."""
    shared = problem._shared
    init, step = config.init, config.step_size
    # Equal tuples may differ in the sign of a zero, which the iterates keep.
    key = (init if isinstance(init, str) else np.array(init).tobytes(), step)
    if key not in shared:
        if init == "zero":
            t = np.zeros(2 * problem.n)
        elif init == "oneshot":
            t = oneshot(problem).t_hat
        else:
            t = _check_vector(init, 2 * problem.n, "init")
        u = _forward(problem, t)
        if isinstance(step, str):  # "auto": 1/M_hat, with u sparing a forward product
            est = diagnostics.estimate_rsc_rss(problem, t_ref=t, num_supports=0, u_ref=u)
            if not np.isfinite(est.M_hat) or est.M_hat <= 1e-12:
                raise RuntimeError(
                    f"auto step failed: smoothness estimate M_hat={est.M_hat} is not usable"
                )
            step = 1.0 / est.M_hat
        shared[key] = (_frozen(t), _frozen(u), float(step), _frozen(_gradient_at(problem, u)))
    return shared[key]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite candidate is rejected below
def _prox_gradient(problem: DemixProblem, config: SolverConfig, algorithm: str, t: np.ndarray,
                   carry: np.ndarray, grad: np.ndarray, *, forward: Callable,
                   objective: Callable, gradient: Callable, prox: Callable, step: float,
                   slack: float, done: Callable) -> SolveResult:
    """Backtracking proximal-gradient loop shared by dht, dst and nlcd_lasso.

    carry = forward(t) is the product that objective(t, carry) -> (monitored,
    traced) and gradient(carry) read; grad = gradient(carry) is passed in for
    the start, and the accepted candidate's carry feeds the next gradient.
    Each iteration tries prox(t - h grad, h) for h = step, step/2, ... and
    accepts the first candidate whose monitored objective rises by at most
    slack; when none does, the solve keeps t and stops unconverged.  A
    non-finite start or accepted iterate raises RuntimeError.
    done(delta, t_new, obj_old, obj_new) tests convergence after an accepted
    step of length delta.
    """
    obj, _ = objective(t, carry)
    trace: list[TraceRecord] = []
    iterates: list[np.ndarray] | None = [t.copy()] if config.keep_iterates else None
    converged = False
    for k in range(1, config.max_iters + 1):
        if k > 1:
            grad = gradient(carry)
        if not np.all(np.isfinite(grad)) or not np.isfinite(obj):
            where = "the start" if k == 1 else f"iterate {k - 1}"
            raise RuntimeError(f"{algorithm} aborted at iteration {k}: non-finite loss or "
                               f"gradient at {where} (loss={obj!r})")
        h = step
        for _ in range(_MAX_HALVINGS):
            cand = prox(t - h * grad, h)
            cand_carry = forward(cand)
            cand_obj, traced = objective(cand, cand_carry)
            if np.isfinite(cand_obj) and cand_obj <= obj + slack:
                break
            h *= 0.5
        else:
            break
        delta = float(np.linalg.norm(cand - t))
        converged = done(delta, cand, obj, cand_obj)
        t, carry, obj = cand, cand_carry, cand_obj
        if iterates is not None:
            iterates.append(t.copy())
        trace.append(TraceRecord(k, traced, delta, int(np.count_nonzero(t))))
        if converged:
            break

    return _finish(problem, t, trace, converged, iterates)


def _descend(problem: DemixProblem, config: SolverConfig, *, soft: bool) -> SolveResult:
    """dht (hard projection) and dst (soft thresholding) on F."""
    algorithm = "dst" if soft else "dht"
    _require(problem.link, algorithm)
    if problem.s == 0:
        return _zero_result(problem, config.keep_iterates)

    t, u, step, grad = _descent_start(problem, config)
    beta = config.dst_beta

    def objective(tv: np.ndarray, uv: np.ndarray) -> tuple[float, float]:
        # dst monitors F + beta ||t||_1, the composite its iteration is a
        # proximal step on; the trace reports the plain loss F.
        f = _loss_at(problem, uv)
        return (f + beta * float(np.abs(tv).sum()) if soft else f), f

    return _prox_gradient(
        problem, config, algorithm, t, u, grad,
        forward=lambda tv: _forward(problem, tv),
        objective=objective,
        gradient=lambda uv: _gradient_at(problem, uv),
        prox=((lambda v, h: soft_threshold(v, beta * h)) if soft
              else (lambda v, h: _project(v, problem, config.projection_mode))),
        step=step,
        slack=1e-12,
        done=lambda delta, tv, old, new: (
            delta <= config.rel_tol * max(1.0, float(np.linalg.norm(tv)))),
    )


def dht(problem: DemixProblem, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Gradient descent on F with hard-threshold projection each step."""
    return _descend(problem, config, soft=False)


def dst(problem: DemixProblem, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Iterative soft thresholding: t <- S_{beta * step}(t - step * grad F).

    The result is generally not exactly 2s-sparse; the trace reports the
    actual support size per iteration.
    """
    return _descend(problem, config, soft=True)


def nlcd_lasso(problem: DemixProblem, config: SolverConfig = SolverConfig()) -> SolveResult:
    """l1-constrained fit to the linear estimator, by projected gradient.

    Minimizes ||x_lin - Gamma t||_2 subject to ||t||_1 <= radius
    (radius = config.lasso_radius, default 2 sqrt(s); of 2 sqrt(s) x {1, 2,
    4, 8}, 2x or 4x did best on the harness tests' n=1024 cells).  Reads
    only y, so any link works.  Estimates are dense: t is not thresholded.
    """
    if problem.s == 0:
        return _zero_result(problem, config.keep_iterates)
    radius = config.lasso_radius if config.lasso_radius is not None else 2.0 * np.sqrt(problem.s)
    x_lin = _x_lin(problem)
    d = problem.dictionary

    def objective(tv: np.ndarray, x: np.ndarray) -> tuple[float, float]:
        f = float(np.linalg.norm(x_lin - x))
        return f, f

    def gradient(x: np.ndarray) -> np.ndarray:
        return dict_adjoint(d, x - x_lin)

    t = np.zeros(2 * problem.n)
    x = dict_apply(d, t)
    return _prox_gradient(
        problem, config, "nlcd_lasso", t, x, gradient(x),
        forward=lambda tv: dict_apply(d, tv),
        objective=objective,
        gradient=gradient,
        prox=lambda v, h: project_l1_ball(v, radius),
        step=0.5,  # 1/L for L = ||Gamma||^2 = 2
        slack=1e-15,
        done=lambda delta, tv, old, new: abs(old - new) <= config.rel_tol * max(1.0, old),
    )
