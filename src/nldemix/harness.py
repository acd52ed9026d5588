"""Seeded Monte-Carlo experiments: single trials, phase grids, benchmarks, CSV.

Seeding discipline: a trial's seed is split into independent streams for
signal, operator, and noise via numpy SeedSequence spawn keys, and phase
grids derive each trial seed as SeedSequence(base_seed, spawn_key=(s, m, k)).
Because the spawn key is built from the cell's values rather than its
position, adding rows or columns to a grid never perturbs existing cells,
and a TrialSpec fully determines its TrialRecord.
"""

from __future__ import annotations

import csv
import ctypes
import itertools
import os
import time
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .diagnostics import cosine_similarity
from .links import make_link
from .measurement import _check_ensemble, observe, sample_operator
from .solvers import (
    DemixProblem,
    SolveResult,
    SolverConfig,
    dht,
    dst,
    nlcd_lasso,
    oneshot,
)
from .transforms import (
    _check_choice, _check_instance, _check_int, _check_list, _check_real, _check_vector, _frozen,
    Basis, Dictionary, dict_apply,
)

__all__ = ["TrialSpec", "TrialRecord", "PhaseGrid", "generate_signal", "run_trial",
           "run_phase_grid", "run_benchmark"]

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
    success_threshold: ClassVar[float] = 0.99  # every trial's success rule

    def __post_init__(self) -> None:
        _check_int("n", self.n, 1)
        _check_int("m", self.m, 1)
        _check_int("seed", self.seed, 0)
        _check_int("s", self.s, 0, self.n)
        _check_choice("algorithm", self.algorithm, ALGORITHMS)
        _check_instance("solver", self.solver, SolverConfig)
        if not isinstance(self.solver.init, str):
            _check_vector(self.solver.init, 2 * self.n, "init")
        _check_real("tau", self.tau, positive=False)
        # The checks the instance build runs, so a bad spec fails here, not in a worker.
        Dictionary(Basis(self.basis_phi, self.n), Basis(self.basis_psi, self.n))
        make_link(self.link)
        _check_ensemble(self.ensemble, self.m, self.n)


@dataclass(frozen=True)
class TrialRecord:
    """Outcome of one trial; success means cosine >= 0.99 (TrialSpec.success_threshold)."""

    spec: TrialSpec
    cosine: float
    cos_w: float
    cos_z: float
    l2_err: float
    iterations: int
    wall_time_ms: float
    success: bool

    def row(self) -> dict:
        """This trial's CSV row, keyed in TRIAL_CSV_FIELDS order."""
        sp = self.spec
        return dict(zip(TRIAL_CSV_FIELDS, (
            sp.algorithm, sp.n, sp.s, sp.m, sp.basis_phi, sp.basis_psi, sp.ensemble, sp.link,
            float(sp.tau), sp.seed, float(self.cosine), float(self.cos_w), float(self.cos_z),
            float(self.l2_err), self.iterations, float(self.wall_time_ms), self.success)))


@dataclass(frozen=True, eq=False)
class PhaseGrid:
    """Per-cell success counts over T trials on an (s, m) grid.  It holds an
    array, so == and hash are identity; compare `successes` to compare grids."""

    s_values: tuple[int, ...]
    m_values: tuple[int, ...]
    trials: int
    successes: np.ndarray  # shape (len(s_values), len(m_values)), int

    def __post_init__(self) -> None:
        # A read-only copy: editing the caller's array cannot change the grid.
        object.__setattr__(self, "successes", _frozen(np.array(self.successes)))

    @property
    def prob(self) -> np.ndarray:
        return self.successes / float(self.trials)

    def rows(self) -> list[dict]:
        """One CSV row per cell, s-major, keyed in PHASE_CSV_FIELDS order."""
        prob = self.prob
        return [dict(zip(PHASE_CSV_FIELDS, (int(s), int(m), int(self.trials),
                                            int(self.successes[si, mi]), float(prob[si, mi]))))
                for si, s in enumerate(self.s_values) for mi, m in enumerate(self.m_values)]


def child_seed(base_seed: int, *key: int) -> int:
    """Derive an independent 64-bit stream seed from a base seed and key."""
    ss = np.random.SeedSequence(base_seed, spawn_key=tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint64)[0])


def generate_signal(
    n: int, s: int, seed: int, dictionary: Dictionary
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Draw s-sparse w, z with +/-1 entries on independent uniform supports
    and return (w, z, x) with x = Phi w + Psi z.  Deterministic in seed."""
    _check_int("s", s, 0, _check_int("n", n, 1))
    if dictionary.n != n:
        raise ValueError(f"dictionary dimension {dictionary.n} does not match n={n}")
    rng = np.random.default_rng(_check_int("seed", seed, 0))
    w = np.zeros(n)
    z = np.zeros(n)
    if s > 0:
        w[rng.choice(n, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
        z[rng.choice(n, size=s, replace=False)] = rng.choice([-1.0, 1.0], size=s)
    x = dict_apply(dictionary, np.concatenate([w, z]))
    return w, z, x


def _build_instance(spec: TrialSpec):
    """(problem, t_star, x): the planted t* = [w; z] and x = Phi w + Psi z,
    read-only like the problem's arrays.  The spec's seed splits into
    streams 0 (signal), 1 (operator), 2 (noise)."""
    d = Dictionary(Basis(spec.basis_phi, spec.n), Basis(spec.basis_psi, spec.n))
    link = make_link(spec.link)
    w, z, x = generate_signal(spec.n, spec.s, child_seed(spec.seed, 0), d)
    A = sample_operator(spec.ensemble, spec.m, spec.n, child_seed(spec.seed, 1))
    y = observe(A, link, x, spec.tau, child_seed(spec.seed, 2))
    return (DemixProblem(A=A, dictionary=d, link=link, y=y, s=spec.s),
            _frozen(np.concatenate([w, z])), _frozen(x))


def _solve(problem: DemixProblem, spec: TrialSpec) -> SolveResult:
    if spec.algorithm == "oneshot":
        return oneshot(problem)
    if spec.algorithm == "dht":
        return dht(problem, spec.solver)
    if spec.algorithm == "dst":
        return dst(problem, spec.solver)
    return nlcd_lasso(problem, spec.solver)


# (key, instance) of the last instance run_trial built, or None.
_last_instance: tuple | None = None


def _instance(spec: TrialSpec):
    """The instance of `spec`, reusing the last one built when only the
    algorithm or solver differ.

    The key is the spec with those fields reset, so a field added to
    TrialSpec later causes a rebuild, never a wrong reuse.  An instance's
    arrays are read-only: a solver that writes into them raises instead of
    corrupting the next trial's input.  The evicted instance is dropped
    before the build, so a gaussian draw can refill its matrix's memory
    when nothing else holds it (see measurement).
    """
    global _last_instance
    key = replace(spec, algorithm=ALGORITHMS[0], solver=SolverConfig())
    if _last_instance is None or _last_instance[0] != key:
        _last_instance = None  # dropped before the build, so the draw may refill it
        _last_instance = (key, _build_instance(spec))
    return _last_instance[1]


def run_trial(spec: TrialSpec) -> TrialRecord:
    """Generate an instance, solve it, and score the estimate.

    Consecutive trials whose specs differ only in algorithm or solver share
    one read-only instance.  dht and dst need a known link and raise
    CapabilityError on an unknown one (sign); oneshot and nlcdlasso take
    either.  l2_err is reported for a known link only.
    """
    problem, t_star, x = _instance(spec)
    start = time.perf_counter()
    result = _solve(problem, spec)
    wall_ms = (time.perf_counter() - start) * 1e3
    cos = cosine_similarity(x, result.x_hat)
    cos_w = cosine_similarity(t_star[:spec.n], result.w_hat)
    cos_z = cosine_similarity(t_star[spec.n:], result.z_hat)
    if problem.link.known:
        denom = np.linalg.norm(t_star)
        l2_err = float(np.linalg.norm(result.t_hat - t_star) / denom) if denom > 0 else 0.0
    else:
        # Unknown g: amplitude is unidentifiable, report only
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


def _successes(cell: TrialSpec, names) -> list[bool]:
    # One planted instance solved by each algorithm in turn.  Only bools come
    # back, so nothing holds the instance when the next one is built.
    return [run_trial(replace(cell, algorithm=name)).success for name in names]


def _openblas(verb: str):
    """(path, openblas_<verb>_num_threads) of each OpenBLAS loaded here; none without /proc."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            # The path is a line's sixth field, spaces and all.
            libs = {line.rstrip("\n").split(maxsplit=5)[5] for line in fh
                    if "openblas" in line.lower() and ".so" in line}
    except FileNotFoundError:  # no /proc: not Linux
        return
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in (f"scipy_openblas_{verb}_num_threads64_", f"openblas_{verb}_num_threads64_",
                     f"openblas_{verb}_num_threads"):
            if hasattr(lib, name):
                yield path, getattr(lib, name)
                break


def _share_cpus(workers: int) -> None:
    """Pool initializer: cap each OpenBLAS in this worker at max(1, cpus // workers) threads."""
    for _, setter in _openblas("set"):
        setter.argtypes, setter.restype = [ctypes.c_int], None
        setter(max(1, len(os.sched_getaffinity(0)) // workers))


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
    With `workers` > 1 the cells run in a pool of spawned processes, so a
    script that calls this needs an ``if __name__ == "__main__":`` guard.
    """
    s_values = _check_list("s_values", s_values, "integers", lambda s: _check_int("s", s, 0))
    m_values = _check_list("m_values", m_values, "integers", lambda m: _check_int("m", m, 1))
    names = _check_list("algorithms", (base.algorithm,) if algorithms is None else algorithms,
                        "names", lambda name: _check_choice("algorithm", name, ALGORITHMS))
    trials = _check_int("trials", trials, 1)
    cells = [replace(base, s=s, m=m, seed=child_seed(base.seed, s, m, k))
             for s in s_values for m in m_values for k in range(trials)]
    # No more workers than cells, so a one-cell grid runs serially.
    workers = min(_check_int("workers", workers, 1), len(cells))
    if workers > 1:
        import concurrent.futures
        import multiprocessing

        # Each worker gets its share of the CPUs.
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=multiprocessing.get_context("spawn"),
                initializer=_share_cpus, initargs=(workers,)) as pool:
            outcomes = list(pool.map(_successes, cells, itertools.repeat(names)))
    else:
        outcomes = list(map(_successes, cells, itertools.repeat(names)))
    # Cells run s, then m, then trial: sum each (s, m)'s trials per algorithm.
    shape = (len(s_values), len(m_values), trials, len(names))
    successes = np.array(outcomes, dtype=int).reshape(shape).sum(axis=2)
    grids = {name: PhaseGrid(s_values, m_values, trials, successes[..., ai])
             for ai, name in enumerate(names)}
    return grids[base.algorithm] if algorithms is None else grids


def _time_solves(spec: TrialSpec, repeats: int) -> tuple[list[float], int]:
    # Returning drops this frame's hold on the problem, so the next spec's
    # build can evict it and reuse its operator's memory.
    problem = _instance(spec)[0]
    times = []
    iters = 0
    for _ in range(repeats):
        fresh = replace(problem)
        start = time.perf_counter()
        result = _solve(fresh, spec)
        times.append((time.perf_counter() - start) * 1e3)
        iters = result.iterations_run
    return times, iters


def run_benchmark(specs, repeats: int = 5) -> list[dict]:
    """Median-of-`repeats` solve wall time per spec, excluding instance
    generation.  Consecutive specs share an instance as in run_trial, but
    each repeat solves a fresh copy of its problem, so it times a whole
    solve and never a start that an earlier solve left behind."""
    specs = _check_list("specs", specs, "TrialSpecs",
                        lambda spec: _check_instance("spec", spec, TrialSpec))
    repeats = _check_int("repeats", repeats, 1)
    rows = []
    for spec in specs:
        times, iters = _time_solves(spec, repeats)
        rows.append({"algorithm": spec.algorithm, "n": spec.n, "s": spec.s, "m": spec.m,
                     "link": spec.link, "repeats": repeats,
                     "median_ms": float(np.median(times)), "iters": iters})
    return rows


# ---------------------------------------------------------------------------
# CSV export


def _fmt(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # shortest round-trip decimal
    return str(value)


def write_csv(rows, stream) -> None:
    """Write a header of the first row's keys, then one line per row, to a
    text stream.  `rows` is a non-empty sequence whose items are dicts or
    records with a `row()` method; an empty one, or a row whose keys differ
    from the first row's, is a ValueError and writes nothing.

    LF line endings, floats in shortest round-trip form; open a file with
    newline="" so its line endings stay LF.
    """
    rows = [row if isinstance(row, dict) else row.row() for row in rows]
    if not rows:
        raise ValueError("write_csv was given no rows")
    fields = list(rows[0])
    for i, row in enumerate(rows):
        if row.keys() != rows[0].keys():
            raise ValueError(f"row {i} has keys {list(row)}, row 0 has {fields}")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(fields)
    for row in rows:
        writer.writerow([_fmt(row[f]) for f in fields])
