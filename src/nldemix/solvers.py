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
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diagnostics
from .links import CapabilityError, LinkFunction, link_deriv, link_eval, link_potential
from .measurement import MeasurementOperator
from .transforms import Dictionary, dict_adjoint, dict_apply, split_constituents

PROJECTION_MODES = ("stacked2s", "perblocks")
INIT_MODES = ("oneshot", "zero")

_MAX_HALVINGS = 30


@dataclass(frozen=True)
class DemixProblem:
    """Observation bundle (A, Gamma, g, y, s)."""

    A: MeasurementOperator
    dictionary: Dictionary
    link: LinkFunction
    y: np.ndarray
    s: int

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "y", y)
        if self.A.n != self.dictionary.n:
            raise ValueError(
                f"operator columns ({self.A.n}) and dictionary dimension "
                f"({self.dictionary.n}) disagree"
            )
        if y.shape != (self.A.m,):
            raise ValueError(f"y must have length {self.A.m}, got shape {y.shape}")
        if not np.all(np.isfinite(y)):
            raise ValueError("y must be finite; it holds NaN or infinite entries")
        if self.s < 0:
            raise ValueError(f"sparsity target must be nonnegative, got {self.s}")
        if self.s > self.A.n:
            raise ValueError(f"sparsity target {self.s} exceeds dimension {self.A.n}")

    @property
    def n(self) -> int:
        return self.A.n


@dataclass(frozen=True)
class SolverConfig:
    """Knobs shared by the iterative solvers.

    step_size: positive float, or "auto" for 1/M_hat.
    init: "oneshot", "zero", or an explicit length-2n array.
    projection_mode: "stacked2s" projects t jointly onto 2s-sparse vectors
        (may split unevenly across the halves); "perblocks" keeps s per half.
    lasso_radius: l1 budget for nlcd_lasso; None means 2 sqrt(s).
    dst_beta: soft-threshold tuning parameter beta; the per-step threshold
        is beta times the step actually taken.
    """

    step_size: float | str = "auto"
    max_iters: int = 1000
    rel_tol: float = 1e-7
    init: str | np.ndarray = "oneshot"
    projection_mode: str = "stacked2s"
    lasso_radius: float | None = None
    dst_beta: float = 0.5
    keep_iterates: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.step_size, str):
            if self.step_size != "auto":
                raise ValueError(f"step_size must be positive or 'auto', got {self.step_size!r}")
        elif self.step_size <= 0:
            raise ValueError(f"step_size must be positive, got {self.step_size}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.rel_tol <= 0:
            raise ValueError(f"rel_tol must be positive, got {self.rel_tol}")
        if isinstance(self.init, str) and self.init not in INIT_MODES:
            raise ValueError(f"init must be one of {INIT_MODES} or an array, got {self.init!r}")
        if self.projection_mode not in PROJECTION_MODES:
            raise ValueError(
                f"projection_mode must be one of {PROJECTION_MODES}, got {self.projection_mode!r}"
            )
        if self.lasso_radius is not None and self.lasso_radius <= 0:
            raise ValueError(f"lasso_radius must be positive, got {self.lasso_radius}")
        if self.dst_beta < 0:
            raise ValueError(f"dst_beta must be nonnegative, got {self.dst_beta}")


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a solve."""

    iteration: int
    loss: float | None
    step_norm: float
    elapsed_s: float
    support_size: int


@dataclass(frozen=True)
class SolveResult:
    """Estimates plus per-iteration trace.

    x_hat equals dict_apply([w_hat; z_hat]) exactly.  iterates is populated
    only when SolverConfig.keep_iterates is set.
    """

    w_hat: np.ndarray
    z_hat: np.ndarray
    x_hat: np.ndarray
    trace: tuple[TraceRecord, ...]
    iterations_run: int
    converged: bool
    iterates: tuple[np.ndarray, ...] | None = None

    @property
    def t_hat(self) -> np.ndarray:
        return np.concatenate([self.w_hat, self.z_hat])


# ---------------------------------------------------------------------------
# thresholding / projection primitives


def hard_threshold(v: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest-magnitude entries of v, zero the rest.

    Ties between equal magnitudes are broken toward the lowest index, making
    runs deterministic.  k >= len(v) returns a copy of v; k = 0 returns zeros.
    """
    v = np.asarray(v, dtype=float)
    if k < 0:
        raise ValueError(f"k must be nonnegative, got {k}")
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
    """Elementwise shrink-toward-zero by lam >= 0."""
    if lam < 0:
        raise ValueError(f"threshold must be nonnegative, got {lam}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def project_l1_ball(v: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball of radius r > 0.

    Returns v unchanged when already feasible; otherwise soft-thresholds by
    the unique lambda making the l1 norm equal r (sort-based exact rule).
    """
    if r <= 0:
        raise ValueError(f"radius must be positive, got {r}")
    v = np.asarray(v, dtype=float)
    a = np.abs(v)
    if a.sum() <= r:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > (css - r))[0][-1]
    lam = (css[rho] - r) / (rho + 1.0)
    return soft_threshold(v, lam)


# ---------------------------------------------------------------------------
# loss, gradient, Hessian-vector product


def _require(problem: DemixProblem, *, potential: bool = False, derivative: bool = False,
             who: str = "solver") -> None:
    link = problem.link
    if potential and not link.has_potential:
        raise CapabilityError(f"{who} requires a link with a potential; {link.name!r} has none")
    if derivative and not link.has_derivative:
        raise CapabilityError(f"{who} requires a link with a derivative; {link.name!r} has none")


def _check_t(problem: DemixProblem, t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    if t.shape != (2 * problem.n,):
        raise ValueError(f"t must have length {2 * problem.n}, got shape {t.shape}")
    return t


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
    _require(problem, potential=True, who="loss")
    return _loss_at(problem, _forward(problem, _check_t(problem, t)))


def loss_gradient(problem: DemixProblem, t: np.ndarray) -> np.ndarray:
    """grad F(t) = (1/m) Gamma^T A^T (g(A Gamma t) - y)."""
    _require(problem, potential=True, who="loss_gradient")
    return _gradient_at(problem, _forward(problem, _check_t(problem, t)))


def loss_hessian_matvec(problem: DemixProblem, t: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(grad^2 F(t)) @ v = (1/m) Gamma^T A^T (g'(A Gamma t) * (A Gamma v))."""
    _require(problem, derivative=True, who="loss_hessian_matvec")
    t = _check_t(problem, t)
    v = _check_t(problem, v)
    gp = link_deriv(problem.link, _forward(problem, t))
    Av = _forward(problem, v)
    return dict_adjoint(problem.dictionary, problem.A.adjoint(gp * Av)) / problem.A.m


# ---------------------------------------------------------------------------
# algorithms


def _zero_result(problem: DemixProblem, t0: float, keep: bool) -> SolveResult:
    n = problem.n
    zn = np.zeros(n)
    rec = TraceRecord(0, None, 0.0, time.perf_counter() - t0, 0)
    its = (np.zeros(2 * n),) if keep else None
    return SolveResult(zn, zn.copy(), zn.copy(), (rec,), 0, True, its)


def oneshot(problem: DemixProblem) -> SolveResult:
    """Non-iterative estimator: per-block hard thresholding of the analysis
    coefficients of x_lin = (1/m) A^T y.  Works for any link, including sign.
    """
    start = time.perf_counter()
    if problem.s == 0:
        return _zero_result(problem, start, False)
    x_lin = problem.A.adjoint(problem.y) / problem.A.m
    c = dict_adjoint(problem.dictionary, x_lin)
    w, z = split_constituents(c, problem.n)
    w_hat = hard_threshold(w, problem.s)
    z_hat = hard_threshold(z, problem.s)
    t_hat = np.concatenate([w_hat, z_hat])
    x_hat = dict_apply(problem.dictionary, t_hat)
    rec = TraceRecord(0, None, 0.0, time.perf_counter() - start,
                      int(np.count_nonzero(t_hat)))
    return SolveResult(w_hat, z_hat, x_hat, (rec,), 0, True)


def _resolve_init(problem: DemixProblem, config: SolverConfig) -> np.ndarray:
    if isinstance(config.init, str):
        if config.init == "zero":
            return np.zeros(2 * problem.n)
        return oneshot(problem).t_hat
    return _check_t(problem, config.init).copy()


def _resolve_step(problem: DemixProblem, config: SolverConfig, t0: np.ndarray,
                  u0: np.ndarray) -> float:
    # u0 = A Gamma t0, which the solver needs for its initial objective anyway.
    if not isinstance(config.step_size, str):
        return float(config.step_size)
    sparsity = min(6 * problem.s, 2 * problem.n)
    est = diagnostics.estimate_rsc_rss(
        problem, t_ref=t0, sparsity=sparsity, num_supports=0, seed=0, u_ref=u0
    )
    if not np.isfinite(est.M_hat) or est.M_hat <= 1e-12:
        raise RuntimeError(
            f"auto step failed: smoothness estimate M_hat={est.M_hat} is not usable"
        )
    return 1.0 / est.M_hat


def _project(t: np.ndarray, problem: DemixProblem, config: SolverConfig) -> np.ndarray:
    if config.projection_mode == "perblocks":
        n, s = problem.n, problem.s
        return np.concatenate([hard_threshold(t[:n], s), hard_threshold(t[n:], s)])
    return hard_threshold(t, 2 * problem.s)


def _prox_gradient(problem: DemixProblem, config: SolverConfig, algorithm: str, start: float,
                   t: np.ndarray, carry: np.ndarray, *, forward: Callable, objective: Callable,
                   gradient: Callable, prox: Callable, step: float, slack: float,
                   done: Callable) -> SolveResult:
    """Backtracking proximal-gradient loop shared by dht, dst and nlcd_lasso.

    carry = forward(t) is the product that objective(t, carry) -> (monitored,
    traced) and gradient(carry) read; the accepted candidate's carry feeds
    the next gradient.  Each iteration tries prox(t - h grad, h) for
    h = step, step/2, ... and accepts the first candidate whose monitored
    objective rises by at most slack; when none does, the solve keeps t and
    stops unconverged.  done(delta, t_new, obj_old, obj_new) tests
    convergence after an accepted step of length delta.
    """
    obj, _ = objective(t, carry)
    trace: list[TraceRecord] = []
    iterates: list[np.ndarray] | None = [t.copy()] if config.keep_iterates else None
    converged = False
    for k in range(1, config.max_iters + 1):
        grad = gradient(carry)
        if not np.all(np.isfinite(grad)) or not np.isfinite(obj):
            raise RuntimeError(
                f"{algorithm} aborted at iteration {k}: non-finite loss or gradient "
                f"(loss={obj!r}); the step size is likely too large for this instance"
            )
        h = step
        for _ in range(_MAX_HALVINGS):
            cand = prox(t - h * grad, h)
            cand_carry = forward(cand)
            cand_obj, traced = objective(cand, cand_carry)
            if np.isfinite(cand_obj) and cand_obj <= obj + slack:
                break
            h *= 0.5
        else:
            k -= 1
            break
        delta = float(np.linalg.norm(cand - t))
        converged = done(delta, cand, obj, cand_obj)
        t, carry, obj = cand, cand_carry, cand_obj
        if iterates is not None:
            iterates.append(t.copy())
        trace.append(
            TraceRecord(k, traced, delta, time.perf_counter() - start,
                        int(np.count_nonzero(t)))
        )
        if converged:
            break

    w_hat, z_hat = split_constituents(t, problem.n)
    x_hat = dict_apply(problem.dictionary, t)
    return SolveResult(
        w_hat, z_hat, x_hat, tuple(trace), k, converged,
        tuple(iterates) if iterates is not None else None,
    )


def _descend(problem: DemixProblem, config: SolverConfig, *, soft: bool) -> SolveResult:
    """dht (hard projection) and dst (soft thresholding) on F."""
    algorithm = "dst" if soft else "dht"
    _require(problem, potential=True, derivative=True, who=algorithm)
    start = time.perf_counter()
    if problem.s == 0:
        return _zero_result(problem, start, config.keep_iterates)

    t = _resolve_init(problem, config)
    u = _forward(problem, t)
    beta = config.dst_beta

    def objective(tv: np.ndarray, uv: np.ndarray) -> tuple[float, float]:
        # dst monitors F + beta ||t||_1, the composite its iteration is a
        # proximal step on; the trace reports the plain loss F.
        f = _loss_at(problem, uv)
        return (f + beta * float(np.abs(tv).sum()) if soft else f), f

    return _prox_gradient(
        problem, config, algorithm, start, t, u,
        forward=lambda tv: _forward(problem, tv),
        objective=objective,
        gradient=lambda uv: _gradient_at(problem, uv),
        prox=((lambda v, h: soft_threshold(v, beta * h)) if soft
              else (lambda v, h: _project(v, problem, config))),
        step=_resolve_step(problem, config, t, u),
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
    (radius = config.lasso_radius, default 2 sqrt(s)).  Needs no link
    capabilities.  Estimates are dense: t is split, not thresholded.
    """
    start = time.perf_counter()
    if problem.s == 0:
        return _zero_result(problem, start, config.keep_iterates)
    radius = config.lasso_radius if config.lasso_radius is not None else 2.0 * np.sqrt(problem.s)
    x_lin = problem.A.adjoint(problem.y) / problem.A.m
    d = problem.dictionary

    def objective(tv: np.ndarray, x: np.ndarray) -> tuple[float, float]:
        f = float(np.linalg.norm(x_lin - x))
        return f, f

    t = np.zeros(2 * problem.n)
    return _prox_gradient(
        problem, config, "nlcd_lasso", start, t, dict_apply(d, t),
        forward=lambda tv: dict_apply(d, tv),
        objective=objective,
        gradient=lambda x: dict_adjoint(d, x - x_lin),
        prox=lambda v, h: project_l1_ball(v, radius),
        step=0.5,  # 1/L for L = ||Gamma||^2 = 2
        slack=1e-15,
        done=lambda delta, tv, old, new: abs(old - new) <= config.rel_tol * max(1.0, old),
    )
