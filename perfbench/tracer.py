"""In-memory span tracer that wraps nldemix's layer boundaries from outside.

Nothing under ``src/`` is modified: the tracer replaces the module-level
names the package resolves at call time (``nldemix.solvers.loss_gradient``,
``nldemix.harness.sample_operator``, ``MeasurementOperator.apply``, ...)
with wrappers that record a span per call.  A span holds its name, the
module that defines the wrapped function, start and end times
(``time.perf_counter``, CLOCK_MONOTONIC on Linux, so spans written by child
processes line up with the parent's), its parent span and the operation id.
Spans stay in memory until the run ends.

A span's self time is its duration minus the time its direct children
cover; calls are single-threaded and strictly nested, so children never
overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

MODULES = ("cli", "links", "measurement", "transforms", "solvers", "diagnostics", "harness")

# Functions wrapped wherever one of the package's modules binds them.  Each
# is a layer boundary the benchmark reports on (see README.md).
FUNCTIONS = (
    "main",
    "run_phase_grid", "run_trial", "_build_instance", "generate_signal",
    "sample_operator", "observe", "make_link",
    "oneshot", "dht", "dst", "nlcd_lasso",
    "loss", "loss_gradient", "hard_threshold", "soft_threshold", "project_l1_ball",
    "dict_apply", "dict_adjoint",
    "link_eval", "link_deriv", "link_potential",
    "estimate_rsc_rss", "cosine_similarity",
)
OPERATOR_METHODS = ("apply", "adjoint", "dense")

SOLVERS = ("oneshot", "dht", "dst", "nlcd_lasso")
DESCENT = ("dht", "dst", "nlcd_lasso")
LINK_CALLS = ("link_eval", "link_deriv", "link_potential")
PROX = ("hard_threshold", "soft_threshold", "project_l1_ball")


@dataclass
class Span:
    id: int
    parent: int | None
    op: int | None
    name: str
    module: str
    start: float
    end: float
    iters: int | None = None
    converged: bool | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for calls made through installed wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.enabled = True
        self._stack: list[int] = []
        self._op: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str, module: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(sid, parent, self._op, name, module, time.perf_counter(), 0.0))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, result=None) -> None:
        span = self.spans[sid]
        span.end = time.perf_counter()
        self._stack.pop()
        iters = getattr(result, "iterations_run", None)
        if iters is not None:
            span.iters = int(iters)
            span.converged = bool(result.converged)

    def current(self) -> int:
        return self._stack[-1]

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; nested spans carry op_id."""
        self._op = op_id
        sid = self._open("op", "bench")
        try:
            yield sid
        finally:
            self._close(sid)
            self._op = None

    @contextmanager
    def paused(self):
        """Calls made inside are not recorded (the benchmark's own checks)."""
        was = self.enabled
        self.enabled = False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, fn, name: str, module: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            sid = tracer._open(name, module)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer._close(sid, result)

        return traced

    # -- installing ----------------------------------------------------

    def install(self, package) -> None:
        """Wrap every boundary function bound in the package's modules.

        One wrapper is made per original function and bound under every
        name that refers to it, so a call is recorded once whichever
        module it is resolved through.
        """
        wrappers: dict[int, object] = {}
        owners = [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        owners.append(package)
        for owner in owners:
            for name in FUNCTIONS:
                fn = owner.__dict__.get(name)
                if not inspect.isfunction(fn) or not fn.__module__.startswith("nldemix"):
                    continue
                if id(fn) not in wrappers:
                    module = fn.__module__.rsplit(".", 1)[-1]
                    wrappers[id(fn)] = self.wrap(fn, name, module)
                self._restore.append((owner, name, fn))
                setattr(owner, name, wrappers[id(fn)])
        cls = package.measurement.MeasurementOperator
        for name in OPERATOR_METHODS:
            fn = cls.__dict__[name]
            self._restore.append((cls, name, fn))
            setattr(cls, name, self.wrap(fn, name, "measurement"))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._restore):
            setattr(owner, name, fn)
        self._restore.clear()

    # -- merging and output --------------------------------------------

    def adopt(self, records: list[dict], parent: int) -> None:
        """Append spans recorded by a child process under span ``parent``."""
        base = len(self.spans)
        op = self.spans[parent].op
        for rec in records:
            self.spans.append(Span(
                base + rec["id"],
                parent if rec["parent"] is None else base + rec["parent"],
                op, rec["name"], rec["module"], rec["start"], rec["end"],
                rec["iters"], rec["converged"],
            ))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def self_times(spans: list[Span]) -> list[float]:
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child_time[span.parent] += span.duration
    return [span.duration - child_time[span.id] for span in spans]


def _top_solves(spans: list[Span]) -> list[int | None]:
    """For each span, the id of the outermost solver call enclosing it."""
    owner: list[int | None] = [None] * len(spans)
    for span in spans:  # parents precede children in span order
        up = owner[span.parent] if span.parent is not None else None
        if up is None and span.name in SOLVERS:
            up = span.id
        owner[span.id] = up
    return owner


def _mean_ms(spans: list[Span], names) -> float:
    picked = [s.duration for s in spans if s.name in names]
    return 1e3 * sum(picked) / len(picked) if picked else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of README.md, computed from one traced run's spans."""
    owner = _top_solves(spans)
    ops = [s for s in spans if s.name == "op"]
    op_time = sum(s.duration for s in ops)
    solves = [s for s in spans if owner[s.id] == s.id]
    descent = [s for s in solves if s.name in DESCENT]
    descent_ids = {s.id for s in descent}
    iters = sum(s.iters or 0 for s in descent)

    def under_descent(names) -> list[Span]:
        return [s for s in spans if s.name in names and owner[s.id] in descent_ids]

    builds = [s for s in spans if s.name == "_build_instance"]
    # The iteration loop's cost excludes the initializer and step estimation.
    nested_extra = under_descent(("estimate_rsc_rss", "oneshot"))
    loop_time = sum(s.duration for s in descent) - sum(s.duration for s in nested_extra)
    candidates = [s for s in spans if s.name in PROX and s.parent in descent_ids]
    estimates = [s for s in spans if s.name == "estimate_rsc_rss"]

    out = {
        "harness.build_ms": _mean_ms(spans, ("_build_instance",)),
        "harness.build_share": _ratio(sum(s.duration for s in builds), op_time),
        "harness.builds_per_trial": _ratio(len(builds), len(solves)),
        "measurement.draw_ms": _mean_ms(spans, ("sample_operator",)),
        "measurement.observe_ms": _mean_ms(spans, ("observe",)),
        "measurement.apply_ms": _mean_ms(spans, ("apply",)),
        "measurement.adjoint_ms": _mean_ms(spans, ("adjoint",)),
        "measurement.apply_per_iter": _ratio(len(under_descent(("apply",))), iters),
        "measurement.adjoint_per_iter": _ratio(len(under_descent(("adjoint",))), iters),
        "transforms.dict_apply_ms": _mean_ms(spans, ("dict_apply",)),
        "transforms.dict_adjoint_ms": _mean_ms(spans, ("dict_adjoint",)),
        "transforms.calls_per_iter": _ratio(
            len(under_descent(("dict_apply", "dict_adjoint"))), iters),
        "solvers.ms_per_iter": _ratio(1e3 * loop_time, iters),
        "solvers.objective_evals_per_iter": _ratio(
            len([s for s in spans if s.name == "loss" and s.parent in descent_ids]), iters),
        "solvers.step_accept_ratio": _ratio(iters, len(candidates)),
        "solvers.threshold_ms": _mean_ms(spans, ("hard_threshold", "soft_threshold")),
        "solvers.project_l1_ms": _mean_ms(spans, ("project_l1_ball",)),
        "solvers.iters_per_solve": _ratio(iters, len(descent)),
        "solvers.converged_frac": _ratio(sum(1 for s in descent if s.converged), len(descent)),
        "links.eval_calls_per_solve": _ratio(
            len([s for s in spans if s.name in LINK_CALLS and owner[s.id] is not None]),
            len(solves)),
        "links.eval_ms": _mean_ms(spans, LINK_CALLS),
        "diagnostics.step_estimate_ms": _mean_ms(spans, ("estimate_rsc_rss",)),
        "diagnostics.step_estimate_share": _ratio(sum(s.duration for s in estimates), op_time),
    }
    selfs = self_times(spans)
    for module in MODULES:
        busy = sum(t for s, t in zip(spans, selfs) if s.module == module)
        out[f"{module}.self_share"] = _ratio(busy, op_time)
    return out
