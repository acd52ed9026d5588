"""Seeded Monte-Carlo experiments: single trials, phase grids, benchmarks, CSV.

Seeding discipline: a trial's seed is split into independent streams for
signal, operator, and noise via numpy SeedSequence spawn keys, and phase
grids derive each trial seed as SeedSequence(base_seed, spawn_key=(s, m, k)).
Because the spawn key is built from the cell's values rather than its
position, adding rows or columns to a grid never perturbs existing cells,
and a TrialSpec fully determines its TrialRecord.
"""

from __future__ import annotations

import concurrent.futures
import csv
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .diagnostics import cosine_similarity
from .links import make_link
from .measurement import NoiseSpec, observe, sample_operator
from .solvers import (
    DemixProblem,
    SolveResult,
    SolverConfig,
    dht,
    dst,
    nlcd_lasso,
    oneshot,
)
from .transforms import Basis, Dictionary, dict_apply, stack_constituents

ALGORITHMS = ("oneshot", "dht", "dst", "nlcdlasso")

TRIAL_CSV_FIELDS = (
    "algorithm", "n", "s", "m", "basis_phi", "basis_psi", "ensemble", "link",
    "tau", "seed", "cosine", "cos_w", "cos_z", "l2_err", "iters", "time_ms",
    "success",
)
PHASE_CSV_FIELDS = ("s", "m", "trials", "successes", "prob")


@dataclass(frozen=True)
class TrialSpec:
    """Everything needed to reproduce one recovery trial."""

    n: int = 4096
    s: int = 5
    m: int = 500
    basis_phi: str = "identity"
    basis_psi: str = "dct"
    ensemble: str = "gaussian"
    link: str = "linsin"
    tau: float = 0.0
    algorithm: str = "dht"
    solver: SolverConfig = field(default_factory=SolverConfig)
    seed: int = 0
    success_threshold: float = 0.99
    link_radius: float = 20.0

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise ValueError(f"sizes must be positive, got n={self.n}, m={self.m}")
        if self.s < 0 or self.s > self.n:
            raise ValueError(f"s must be in [0, {self.n}], got {self.s}")
        if not (0.0 < self.success_threshold <= 1.0):
            raise ValueError(f"success threshold must be in (0, 1], got {self.success_threshold}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.tau < 0:
            raise ValueError(f"tau must be nonnegative, got {self.tau}")


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial; success means cosine >= threshold."""

    spec: TrialSpec
    cosine: float
    cos_w: float
    cos_z: float
    l2_err: float
    iterations: int
    wall_time_ms: float
    success: bool


@dataclass(frozen=True)
class PhaseGrid:
    """Per-cell success counts over T trials on an (s, m) grid."""

    s_values: tuple[int, ...]
    m_values: tuple[int, ...]
    trials: int
    successes: np.ndarray  # shape (len(s_values), len(m_values)), int
    prob: np.ndarray       # successes / trials


def child_seed(base_seed: int, *key: int) -> int:
    """Derive an independent 64-bit stream seed from a base seed and key."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def generate_signal(
    n: int, s: int, seed: int, dictionary: Dictionary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw s-sparse w, z with +/-1 entries on independent uniform supports
    and return (w, z, x) with x = Phi w + Psi z.  Deterministic in seed."""
    if s > n:
        raise ValueError(f"s must be at most n, got s={s}, n={n}")
    if dictionary.n != n:
        raise ValueError(f"dictionary dimension {dictionary.n} does not match n={n}")
    rng = np.random.default_rng(seed)
    w = np.zeros(n)
    z = np.zeros(n)
    if s > 0:
        w[rng.choice(n, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
        z[rng.choice(n, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
    x = dict_apply(dictionary, stack_constituents(w, z))
    return w, z, x


def _build_instance(spec: TrialSpec):
    d = Dictionary(Basis(spec.basis_phi, spec.n), Basis(spec.basis_psi, spec.n))
    link = make_link(spec.link, radius=spec.link_radius)
    w, z, x = generate_signal(spec.n, spec.s, child_seed(spec.seed, 0), d)
    A = sample_operator(spec.ensemble, spec.m, spec.n, child_seed(spec.seed, 1))
    noise = NoiseSpec("gaussian", spec.tau) if spec.tau > 0 else NoiseSpec()
    y = observe(A, link, x, noise, child_seed(spec.seed, 2))
    problem = DemixProblem(A=A, dictionary=d, link=link, y=y, s=spec.s)
    return problem, w, z, x


def _solve(problem: DemixProblem, spec: TrialSpec) -> SolveResult:
    if spec.algorithm == "oneshot":
        return oneshot(problem)
    if spec.algorithm == "dht":
        return dht(problem, spec.solver)
    if spec.algorithm == "dst":
        return dst(problem, spec.solver)
    return nlcd_lasso(problem, spec.solver)


def _safe_cosine(a: np.ndarray, b: np.ndarray) -> float:
    # Zero estimates count as total misses, not errors.
    if np.linalg.norm(a) == 0 or np.linalg.norm(b) == 0:
        return 0.0
    return cosine_similarity(a, b)


# (key, instance) of the last instance run_trial built, or None.
_last_instance: tuple | None = None


def _instance(spec: TrialSpec):
    """The instance of `spec`, reusing the last one built when only the
    algorithm, solver or success threshold differ.

    The key is the spec with those fields reset, so a field added to
    TrialSpec later causes a rebuild, never a wrong reuse.  The reused
    arrays are read-only: a solver that writes into them raises instead of
    corrupting the next trial's input.
    """
    global _last_instance
    key = replace(spec, algorithm=ALGORITHMS[0], solver=SolverConfig(), success_threshold=1.0)
    last = _last_instance
    if last is not None and last[0] == key:
        return last[1]
    _last_instance = last = None  # free the old operator before drawing the next
    instance = _build_instance(spec)
    problem, w, z, x = instance
    for array in (problem.y, w, z, x, problem.A._matrix):
        if array is not None:
            array.setflags(write=False)
    _last_instance = (key, instance)
    return instance


def run_trial(spec: TrialSpec) -> TrialRecord:
    """Generate an instance, solve it, and score the estimate.

    Consecutive trials whose specs differ only in algorithm, solver or
    success threshold share one read-only instance.  Raises CapabilityError
    when the algorithm needs link capabilities the chosen link lacks (e.g.
    dht with the sign link).
    """
    problem, w, z, x = _instance(spec)
    start = time.perf_counter()
    result = _solve(problem, spec)
    wall_ms = (time.perf_counter() - start) * 1e3
    cos = _safe_cosine(x, result.x_hat)
    cos_w = _safe_cosine(w, result.w_hat)
    cos_z = _safe_cosine(z, result.z_hat)
    if problem.link.has_derivative:
        t_star = stack_constituents(w, z)
        denom = np.linalg.norm(t_star)
        l2_err = float(np.linalg.norm(result.t_hat - t_star) / denom) if denom > 0 else 0.0
    else:
        # Unknown-g path: amplitude is unidentifiable, report only
        # scale-invariant metrics.
        l2_err = float("nan")
    return TrialRecord(
        spec=spec,
        cosine=cos,
        cos_w=cos_w,
        cos_z=cos_z,
        l2_err=l2_err,
        iterations=result.iterations_run,
        wall_time_ms=wall_ms,
        success=bool(cos >= spec.success_threshold),
    )


def _grid_cell_spec(base: TrialSpec, s: int, m: int, trial_index: int) -> TrialSpec:
    return replace(base, s=s, m=m, seed=child_seed(base.seed, s, m, trial_index))


def run_phase_grid(
    s_values,
    m_values,
    trials: int,
    base: TrialSpec,
    workers: int = 1,
    algorithms=None,
) -> PhaseGrid | dict[str, PhaseGrid]:
    """T independent trials per (s, m) cell; returns per-cell success counts.

    With `algorithms`, every instance is built once and solved by each of
    them in turn, and the result is ``{algorithm: PhaseGrid}``; each grid
    equals a separate call with ``base.algorithm`` set to that algorithm.
    """
    s_values = tuple(int(s) for s in s_values)
    m_values = tuple(int(m) for m in m_values)
    names = (base.algorithm,) if algorithms is None else tuple(algorithms)
    if not s_values or not m_values:
        raise ValueError("phase grid needs at least one s and one m value")
    if trials < 1:
        raise ValueError(f"trials must be positive, got {trials}")
    if not names or len(set(names)) != len(names):
        raise ValueError(f"algorithms must be distinct and non-empty, got {names}")
    # Algorithms innermost: consecutive trials share an instance.
    specs = []
    for si, s in enumerate(s_values):
        for mi, m in enumerate(m_values):
            for k in range(trials):
                cell = _grid_cell_spec(base, s, m, k)
                specs += [(ai, si, mi, replace(cell, algorithm=name))
                          for ai, name in enumerate(names)]
    trial_specs = [sp for *_, sp in specs]
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            # One instance's trials stay in one chunk, so one worker builds it.
            records = list(pool.map(run_trial, trial_specs, chunksize=4 * len(names)))
    else:
        records = map(run_trial, trial_specs)
    successes = np.zeros((len(names), len(s_values), len(m_values)), dtype=int)
    for (ai, si, mi, _), rec in zip(specs, records):
        successes[ai, si, mi] += int(rec.success)
    grids = {
        name: PhaseGrid(
            s_values=s_values,
            m_values=m_values,
            trials=trials,
            successes=successes[ai],
            prob=successes[ai] / float(trials),
        )
        for ai, name in enumerate(names)
    }
    return grids[base.algorithm] if algorithms is None else grids


def run_benchmark(specs, repeats: int = 5) -> list[dict]:
    """Median-of-`repeats` solve wall time per spec, excluding instance
    generation.  Consecutive specs share an instance as in run_trial."""
    rows = []
    for spec in specs:
        problem, _, _, _ = _instance(spec)
        times = []
        iters = 0
        for _ in range(repeats):
            start = time.perf_counter()
            result = _solve(problem, spec)
            times.append((time.perf_counter() - start) * 1e3)
            iters = result.iterations_run
        rows.append(
            {
                "algorithm": spec.algorithm,
                "n": spec.n,
                "s": spec.s,
                "m": spec.m,
                "link": spec.link,
                "repeats": repeats,
                "median_ms": float(np.median(times)),
                "iters": iters,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV export


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def _trial_row(rec: TrialRecord) -> list[str]:
    sp = rec.spec
    values = (
        sp.algorithm, sp.n, sp.s, sp.m, sp.basis_phi, sp.basis_psi,
        sp.ensemble, sp.link, float(sp.tau), sp.seed, float(rec.cosine),
        float(rec.cos_w), float(rec.cos_z), float(rec.l2_err),
        rec.iterations, float(rec.wall_time_ms), rec.success,
    )
    return [_fmt(v) for v in values]


def write_csv(payload, stream) -> None:
    """Write trial records, a phase grid, or benchmark rows to a text stream."""
    writer = csv.writer(stream, lineterminator="\n")
    if isinstance(payload, PhaseGrid):
        writer.writerow(PHASE_CSV_FIELDS)
        for si, s in enumerate(payload.s_values):
            for mi, m in enumerate(payload.m_values):
                writer.writerow([
                    str(s), str(m), str(payload.trials),
                    str(int(payload.successes[si, mi])),
                    repr(float(payload.prob[si, mi])),
                ])
    elif payload and isinstance(payload[0], dict):
        fields = list(payload[0].keys())
        writer.writerow(fields)
        for row in payload:
            writer.writerow([_fmt(row[f]) for f in fields])
    else:
        writer.writerow(TRIAL_CSV_FIELDS)
        for rec in payload:
            writer.writerow(_trial_row(rec))


def export_csv(payload, path: str) -> None:
    """Write trial records, a phase grid, or benchmark rows as a CSV file.

    UTF-8, LF line endings, floats in shortest round-trip form.
    """
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path!r}: {exc}") from exc
    with handle:
        write_csv(payload, handle)
