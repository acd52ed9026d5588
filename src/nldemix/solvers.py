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
                  largest entries.
* ``dst``       - iterative soft thresholding, t <- S_{beta eta}(t - eta grad),
                  i.e. ISTA on F(t) + beta ||t||_1.
* ``nlcd_lasso``- l1-constrained least squares on the linear estimator:
                  min ||x_lin - Gamma t||_2 s.t. ||t||_1 <= radius, by
                  projected gradient.

Steps: "auto" sets eta = 1/M_hat from the restricted-Hessian smoothness
estimate on the initializer's top-6s support, with per-iteration halving
whenever the objective would increase (composite F + beta ||t||_1 for dst).
When no halving lowers it, the solve keeps its iterate and stops unconverged.

Settled supports: on a dense A, a dht/dst candidate whose support S (at
most 2s entries) is that of the two candidates before it takes its forward
product from the m x |S| factor A Gamma_S instead of an m x n product.
Each support that settles gets its own factor, assembled from columns
already at hand: identity-basis atoms are columns of A, and the auto
step's columns and those of the factor it replaces are copied; only the
atoms in none of these are multiplied through.  The gradient stays the
full one, so every threshold decision sees all of t - h grad as before;
only the rounding of A Gamma t moves.  (On subfast, G would cost two
transforms per atom.)

Solves on one problem share what they derive from it alone: x_lin (oneshot,
nlcd_lasso) and, for each (init, step_size), the descent start t0,
A Gamma t0, the step and grad F(t0) (dht, dst).  An auto step on a dense A
also keeps the columns A Gamma_j its estimate built for t0's nonzero atoms
j outside an identity basis: at most m x min(nnz(t0), 6s) floats, m x s
on an identity/dct oneshot start.  They are kept, read-only, on the
problem itself and die with it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import diagnostics
from .links import _require, LinkFunction, link_deriv, link_eval, link_potential, make_link
from .measurement import MeasurementOperator
from .transforms import (
    _check_choice, _check_int, _check_real, _check_vector, _frozen, Dictionary, dict_adjoint,
    dict_apply,
)

__all__ = ["DemixProblem", "SolverConfig", "SolveResult", "TraceRecord", "hard_threshold",
           "soft_threshold", "project_l1_ball", "oneshot", "loss", "loss_gradient",
           "loss_hessian_matvec", "dht", "dst", "nlcd_lasso"]

INIT_MODES = ("oneshot", "zero")

_MAX_HALVINGS = 30
# Candidates in a row on one support before the next one on it reads that
# support's factor A Gamma_S (see _settled_forward).
_SETTLE = 2


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
    lasso_radius: l1 budget for nlcd_lasso; None means 2 sqrt(s).
    dst_beta: soft-threshold tuning parameter beta; the per-step threshold
        is beta times the step actually taken.  None means 0.5 in the link's
        units, 0.5 mu(g) / mu(linsin) with mu = E[g(Z) Z] from
        diagnostics.link_constants: exactly 0.5 on linsin, 0.0396 on both
        logistic links.
    """

    step_size: float | str = "auto"
    max_iters: int = 1000
    rel_tol: float = 1e-7
    init: str | tuple[float, ...] = "oneshot"
    lasso_radius: float | None = None
    dst_beta: float | None = None
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
        if self.lasso_radius is not None:
            _check_real("lasso_radius", self.lasso_radius, positive=True)
        if self.dst_beta is not None:
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


def oneshot(problem: DemixProblem) -> SolveResult:
    """Non-iterative estimator: per-block hard thresholding of the analysis
    coefficients of x_lin = (1/m) A^T y.  Works for any link, including sign.
    """
    v, n, s = dict_adjoint(problem.dictionary, _x_lin(problem)), problem.n, problem.s
    t = np.concatenate([hard_threshold(v[:n], s), hard_threshold(v[n:], s)])
    rec = TraceRecord(0, None, 0.0, int(np.count_nonzero(t)))
    return _finish(problem, t, (rec,), True)


def _descent_start(problem: DemixProblem, config: SolverConfig) -> tuple:
    """(t0, A Gamma t0, step, grad F(t0), kept) for config's init and step
    size.  kept = (atoms, columns) holds the columns of the auto step
    estimate's A Gamma_xi for t0's nonzero atoms that are not columns of A,
    on a dense A; otherwise, or when there are none, kept is None."""
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
        kept = None
        if isinstance(step, str):  # "auto": 1/M_hat, with u sparing a forward product
            probes: list = []
            est = diagnostics.estimate_rsc_rss(problem, t_ref=t, num_supports=0, u_ref=u,
                                               factors=probes)
            if not np.isfinite(est.M_hat) or est.M_hat <= 1e-12:
                raise RuntimeError(
                    f"auto step failed: smoothness estimate M_hat={est.M_hat} is not usable"
                )
            step = 1.0 / est.M_hat
            xi, G = probes[0]
            keep = (t[xi] != 0) & ~diagnostics._identity_atoms(problem.dictionary, xi)
            if problem.A.kind != "subfast" and keep.any():
                kept = (_frozen(xi[keep]), _frozen(G[:, keep]))
        shared[key] = (_frozen(t), _frozen(u), float(step), _frozen(_gradient_at(problem, u)),
                       kept)
    return shared[key]


@np.errstate(over="ignore", invalid="ignore")  # a non-finite candidate is rejected below
def _prox_gradient(problem: DemixProblem, config: SolverConfig, algorithm: str, start: tuple, *,
                   forward: Callable, loss: Callable, gradient: Callable, prox: Callable,
                   penalty: Callable, slack: float, done: Callable) -> SolveResult:
    """Backtracking proximal-gradient loop on loss(forward(t)) + penalty(t),
    shared by dht, dst and nlcd_lasso (whose penalty is zero, as is dht's).

    start = (t, carry, step, grad) holds carry = forward(t), the product
    that loss(carry) and gradient(carry) read, and grad = gradient(carry);
    the accepted candidate's carry feeds the next gradient.  Each iteration
    tries prox(t - h grad, h) for h = step, step/2, ... and accepts the first
    candidate whose objective rises by at most slack; when none does, the
    solve keeps t and stops unconverged.  The trace reports loss(carry),
    without the penalty.  A non-finite start or accepted iterate raises
    RuntimeError.  done(delta, t_new, obj_old, obj_new) tests convergence
    after an accepted step of length delta.
    """
    t, carry, step, grad = start
    obj = loss(carry) + penalty(t)
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
            f = loss(cand_carry)
            cand_obj = f + penalty(cand)
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
        trace.append(TraceRecord(k, f, delta, int(np.count_nonzero(t))))
        if converged:
            break

    return _finish(problem, t, trace, converged, iterates)


def _settled_factor(problem: DemixProblem, S: np.ndarray, columns: dict) -> np.ndarray:
    """G = A Gamma_S (m x |S|) on a dense A.  Identity-basis atoms are columns
    of A and atoms in columns (atom -> its column of A Gamma) are copied; only
    the rest go through one diagnostics._restricted_gram_factor call."""
    ident = diagnostics._identity_atoms(problem.dictionary, S)
    G = np.empty((problem.A.m, S.size))
    G[:, ident] = problem.A.dense()[:, S[ident] % problem.n]
    fresh = []
    for j in np.flatnonzero(~ident):
        column = columns.get(int(S[j]))
        if column is None:
            fresh.append(j)
        else:
            G[:, j] = column
    if fresh:
        G[:, fresh] = diagnostics._restricted_gram_factor(problem, S[fresh])
    return G


def _settled_forward(problem: DemixProblem, kept: tuple | None) -> Callable:
    """forward(t) = A Gamma t for one descent's candidates: G @ t[S], equal in
    exact arithmetic, once t's support S is that of the _SETTLE candidates
    before it and |S| <= 2s, else _forward.  Each newly settled S gets its
    own G = A Gamma_S from _settled_factor, given the start's kept (atoms,
    columns) and the columns of the G it replaces; the G dies with the solve."""
    if problem.A.kind == "subfast":
        return lambda t: _forward(problem, t)
    start = {} if kept is None else dict(zip(kept[0].tolist(), kept[1].T))
    last, run, factor = None, 0, None

    def forward(t: np.ndarray) -> np.ndarray:
        nonlocal last, run, factor
        S = np.flatnonzero(t)
        # run: the candidates in a row before this one whose support is S
        run = run + 1 if last is not None and np.array_equal(S, last) else 0
        last = S
        if run < _SETTLE or S.size > 2 * problem.s:
            return _forward(problem, t)
        if factor is None or not np.array_equal(S, factor[0]):
            columns = dict(start)
            if factor is not None:
                columns.update(zip(factor[0].tolist(), factor[1].T))
            factor = (S, _settled_factor(problem, S, columns))
        return factor[1] @ t[S]

    return forward


def _descend(problem: DemixProblem, config: SolverConfig, algorithm: str, prox: Callable,
             penalty: Callable) -> SolveResult:
    """Proximal gradient on F from the shared descent start."""
    _require(problem.link, algorithm)
    if problem.s == 0:
        return _zero_result(problem, config.keep_iterates)
    t, u, step, grad, kept = _descent_start(problem, config)
    return _prox_gradient(
        problem, config, algorithm, (t, u, step, grad),
        forward=_settled_forward(problem, kept),
        loss=lambda u: _loss_at(problem, u),
        gradient=lambda u: _gradient_at(problem, u),
        prox=prox,
        penalty=penalty,
        slack=1e-12,
        done=lambda delta, t, old, new: (
            delta <= config.rel_tol * max(1.0, float(np.linalg.norm(t)))),
    )


def dht(problem: DemixProblem, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Gradient descent on F, keeping the 2s largest entries of t each step.
    The kept entries may split unevenly across the halves."""
    return _descend(problem, config, "dht", lambda v, h: hard_threshold(v, 2 * problem.s),
                    lambda t: 0.0)


@functools.cache
def _default_dst_beta(link: LinkFunction) -> float:
    """0.5 mu(link) / mu(linsin): F's gradient scales with mu, so this is the
    penalty linsin gets at 0.5, in the link's own units."""
    return 0.5 * (diagnostics.link_constants(link)[0]
                  / diagnostics.link_constants(make_link("linsin"))[0])


def dst(problem: DemixProblem, config: SolverConfig = SolverConfig()) -> SolveResult:
    """Iterative soft thresholding: t <- S_{beta * step}(t - step * grad F),
    the proximal step on F(t) + beta ||t||_1.

    The result is generally not exactly 2s-sparse; the trace reports the
    actual support size per iteration.
    """
    beta = config.dst_beta if config.dst_beta is not None else _default_dst_beta(problem.link)
    return _descend(problem, config, "dst", lambda v, h: soft_threshold(v, beta * h),
                    lambda t: beta * float(np.abs(t).sum()))


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

    def gradient(x: np.ndarray) -> np.ndarray:
        return dict_adjoint(d, x - x_lin)

    t = np.zeros(2 * problem.n)
    x = dict_apply(d, t)
    return _prox_gradient(
        problem, config, "nlcd_lasso", (t, x, 0.5, gradient(x)),  # step 1/L, L = ||Gamma||^2 = 2
        forward=lambda tv: dict_apply(d, tv),
        loss=lambda xv: float(np.linalg.norm(x_lin - xv)),
        gradient=gradient,
        prox=lambda v, h: project_l1_ball(v, radius),
        penalty=lambda tv: 0.0,
        slack=1e-15,
        done=lambda delta, tv, old, new: abs(old - new) <= config.rel_tol * max(1.0, old),
    )
