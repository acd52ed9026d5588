"""The benchmark's three workloads and the checks on their outputs.

Each workload turns a seed into one fixed *round* of operations.  The
runner repeats the round, so every round does exactly the same work: op
counts per round are exact, and each repeat of an operation must give the
same output as its first run, traced or not.

All calls into nldemix go through module attributes looked up at call time
(``harness.run_phase_grid``, ``solvers.dht``), so the tracer's wrappers see
them.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import hashlib
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass, replace

import numpy as np

import nldemix
from nldemix import cli, harness, solvers, transforms
from run import RESULTS, ROOT

CHILD = ROOT / "perfbench" / "child.py"
RUN = ROOT / "perfbench" / "run.py"
CHILD_TIMEOUT_S = 120
RSS_LAUNCHER = (
    "import resource, subprocess, sys; "
    "subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, check=True); "
    "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
)

# Sizes per scale.  "full" is the benchmark; "toy" (n=256) is for selftest.py.
SCALES = {
    "full": {
        # Corners and centre of the acceptance suite's GRID_S x GRID_M.
        "phase-grid": {"n": 4096, "s": (2, 7, 20), "m": (200, 600, 1600)},
        # (s, m, instances); the sizes get unequal counts so the median
        # latency falls inside one size class instead of between two.
        "solve-descent": {"n": 4096, "sizes": ((10, 800, 4), (20, 1600, 3))},
        "cli-onebit": {"n": 4096, "pairs": ((2, 800), (5, 1600), (10, 2400))},
    },
    "toy": {
        "phase-grid": {"n": 256, "s": (2, 5), "m": (40, 100)},
        "solve-descent": {"n": 256, "sizes": ((3, 80, 1), (5, 120, 1))},
        "cli-onebit": {"n": 256, "pairs": ((2, 64), (3, 128))},
    },
}

# The acceptance suite's phase-grid solver settings (GRID_SOLVER).
GRID_SOLVER = {"max_iters": 150, "rel_tol": 1e-6}
PHASE_TRIALS = 1
SOLVER_NAMES = {"oneshot": "oneshot", "dht": "dht", "dst": "dst", "nlcd_lasso": "nlcdlasso"}
TIME_FIELD = harness.TRIAL_CSV_FIELDS.index("time_ms")


@dataclass
class Outcome:
    """What the runner keeps from one operation after checking it."""

    fingerprint: str
    problems: list[str]
    trials: int = 0
    successes: int = 0
    cosines: tuple[float, ...] = ()


def _seeds(workload: str, seed: int, count: int) -> list[int]:
    rng = random.Random(f"{workload}:{seed}")
    return [rng.randrange(2**32) for _ in range(count)]


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.tobytes() if isinstance(part, np.ndarray) else repr(part).encode())
    return h.hexdigest()[:16]


def check_solve(problem, config, algorithm: str, result) -> list[str]:
    """Output checks every SolveResult must pass."""
    problems = []
    t = result.t_hat
    if not all(np.all(np.isfinite(v)) for v in (result.w_hat, result.z_hat, result.x_hat)):
        problems.append(f"{algorithm}: non-finite estimate")
    ref = transforms.dict_apply(problem.dictionary, t)
    err = float(np.linalg.norm(result.x_hat - ref))
    if err > 1e-10 * max(float(np.linalg.norm(ref)), float(np.linalg.norm(result.x_hat))):
        problems.append(f"{algorithm}: x_hat differs from dict_apply(t_hat) by {err:.3e}")
    if algorithm == "dht" and np.count_nonzero(t) > 2 * problem.s:
        problems.append(f"dht: {np.count_nonzero(t)} nonzeros exceed 2s={2 * problem.s}")
    if algorithm == "nlcdlasso":
        radius = config.lasso_radius or 2.0 * np.sqrt(problem.s)
        if np.abs(t).sum() > radius * (1 + 1e-9):
            problems.append(f"nlcdlasso: l1 norm {np.abs(t).sum():.6g} exceeds radius {radius:.6g}")
    if algorithm in ("dht", "dst"):
        if isinstance(config.init, str):
            init = (np.zeros(2 * problem.n) if config.init == "zero"
                    else solvers.oneshot(problem).t_hat)
        else:
            init = config.init
        before, after = solvers.loss(problem, init), solvers.loss(problem, t)
        if not after <= before + 1e-12:
            problems.append(f"{algorithm}: loss rose from {before!r} to {after!r}")
    return problems


class SolveCapture:
    """Keeps the (problem, config, result) of solver calls made by harness.

    Installed on the solver names ``nldemix.harness`` resolves at call time,
    so harness-driven trials can be checked like direct solves.
    """

    def __init__(self) -> None:
        self.calls: list[tuple] = []

    def install(self) -> None:
        for name, algorithm in SOLVER_NAMES.items():
            setattr(harness, name, self._wrap(getattr(harness, name), algorithm))

    def _wrap(self, fn, algorithm: str):
        @functools.wraps(fn)
        def capture(problem, *args):
            result = fn(problem, *args)
            self.calls.append((problem, args[0] if args else None, algorithm, result))
            return result

        return capture

    def take(self) -> list[tuple]:
        calls, self.calls = self.calls, []
        return calls


# ---------------------------------------------------------------------------
# workloads


def _spawn(cmd: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)


def child_cmd(workload: str, seed: int, scale: str, what: str) -> list[str]:
    """run.py in a fresh interpreter: prepare `workload` ("setup") or also
    run one round of it ("round"), then exit."""
    return [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--scale", scale, "--child", what]


def child_peak_rss_mb(cmd: list[str]) -> float:
    """Peak RSS of `cmd`, run from a small launcher process.

    A child's ru_maxrss also counts the memory image of the process that
    started it, which for the runner is larger than the program measured.
    """
    proc = subprocess.run([sys.executable, "-c", RSS_LAUNCHER, *cmd], cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return int(proc.stdout) / 1024.0


class InProcess:
    """Peak RSS of a workload whose operations run in the runner.

    Measured over one round in a fresh interpreter, so neither the runner's
    reference work nor its checks count.
    """

    name: str
    seed: int
    scale: str

    def peak_rss_mb(self) -> float:
        return child_peak_rss_mb(child_cmd(self.name, self.seed, self.scale, "round"))


class PhaseGrid(InProcess):
    """run_phase_grid((s,), (m,), T, base) per cell and algorithm."""

    name = "phase-grid"
    tail_pct = 90

    def __init__(self, seed: int, scale: str) -> None:
        self.seed, self.scale = seed, scale
        cfg = SCALES[scale][self.name]
        (base_seed,) = _seeds(self.name, seed, 1)
        self.base = harness.TrialSpec(
            n=cfg["n"], basis_phi="identity", basis_psi="dct", ensemble="gaussian",
            link="linsin", solver=solvers.SolverConfig(**GRID_SOLVER), seed=base_seed,
        )
        self.ops = [(s, m, a) for s in cfg["s"] for m in cfg["m"] for a in harness.ALGORITHMS]
        self.capture = SolveCapture()
        self.capture.install()

    def label(self, op) -> str:
        return "s={} m={} {}".format(*op)

    def run(self, op):
        s, m, algorithm = op
        self.capture.take()
        grid = harness.run_phase_grid((s,), (m,), PHASE_TRIALS,
                                      replace(self.base, algorithm=algorithm), workers=1)
        return grid, self.capture.take()

    def check(self, op, out) -> Outcome:
        grid, calls = out
        problems = []
        if len(calls) != PHASE_TRIALS:
            problems.append(f"expected {PHASE_TRIALS} captured solves, got {len(calls)}")
        for problem, config, algorithm, result in calls:
            problems += check_solve(problem, config, algorithm, result)
        successes = int(grid.successes.sum())
        if grid.successes.shape != (1, 1) or not 0 <= successes <= PHASE_TRIALS:
            problems.append(f"bad success counts {grid.successes!r}")
        digests = [_digest(r.t_hat, r.iterations_run, r.converged) for *_, r in calls]
        return Outcome(_digest(successes, digests), problems, PHASE_TRIALS, successes)


class SolveDescent(InProcess):
    """dht and dst with default settings on instances built in set-up."""

    name = "solve-descent"
    tail_pct = 90

    def __init__(self, seed: int, scale: str) -> None:
        self.seed, self.scale = seed, scale
        cfg = SCALES[scale][self.name]
        n = cfg["n"]
        count = sum(c for _, _, c in cfg["sizes"])
        seeds = iter(_seeds(self.name, seed, 2 * count))
        d = transforms.Dictionary(transforms.Basis("identity", n), transforms.Basis("dct", n))
        link = nldemix.make_link("linsin")
        self.instances = []
        for s, m, c in cfg["sizes"]:
            for _ in range(c):
                w, z, x = harness.generate_signal(n, s, next(seeds), d)
                A = nldemix.sample_operator("gaussian", m, n, next(seeds))
                y = nldemix.observe(A, link, x)
                problem = solvers.DemixProblem(A=A, dictionary=d, link=link, y=y, s=s)
                self.instances.append((problem, x))
        self.ops = [(i, a) for i in range(len(self.instances)) for a in ("dht", "dst")]
        self.config = solvers.SolverConfig()

    def label(self, op) -> str:
        problem = self.instances[op[0]][0]
        return f"s={problem.s} m={problem.A.m} #{op[0]} {op[1]}"

    def run(self, op):
        problem = self.instances[op[0]][0]
        return getattr(solvers, op[1])(problem, self.config)

    def check(self, op, result) -> Outcome:
        problem, x = self.instances[op[0]]
        problems = check_solve(problem, self.config, op[1], result)
        cos = nldemix.cosine_similarity(x, result.x_hat) if np.any(result.x_hat) else 0.0
        return Outcome(_digest(result.t_hat, result.iterations_run, result.converged),
                       problems, 1, int(cos >= harness.TrialSpec().success_threshold), (cos,))


def onebit_specs(seed: int, scale: str) -> list:
    cfg = SCALES[scale][CliOnebit.name]
    seeds = iter(_seeds(CliOnebit.name, seed, 2 * len(cfg["pairs"])))
    return [
        harness.TrialSpec(
            n=cfg["n"], s=s, m=m, basis_phi="identity", basis_psi="haar",
            ensemble="subfast", link="sign", algorithm=algorithm, seed=next(seeds),
        )
        for s, m in cfg["pairs"] for algorithm in ("oneshot", "nlcdlasso")
    ]


def cli_argv(spec) -> list[str]:
    return [
        "trial", "--n", str(spec.n), "--s", str(spec.s), "--m", str(spec.m),
        "--phi", spec.basis_phi, "--psi", spec.basis_psi, "--ensemble", spec.ensemble,
        "--link", spec.link, "--algorithm", spec.algorithm, "--seed", str(spec.seed),
    ]


def cli_main_in_process(argv: list[str]) -> None:
    """One in-process ``cli.main`` call with its CSV discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"cli.main returned {code}")


class CliOnebit:
    """Sequential ``python -m nldemix.cli trial`` children, one-bit sign link."""

    name = "cli-onebit"
    tail_pct = 75

    def __init__(self, seed: int, scale: str) -> None:
        self.ops = onebit_specs(seed, scale)
        self.capture = SolveCapture()
        self.capture.install()
        self.reference_rows: dict = {}  # spec -> (in-process CSV rows, solve problems)
        self.tracer = None  # set for the traced half of a traced run

    def label(self, spec) -> str:
        return f"s={spec.s} m={spec.m} {spec.algorithm}"

    def run(self, spec):
        if self.tracer is None:
            return _spawn([sys.executable, "-m", "nldemix.cli", *cli_argv(spec)])
        spans_file = RESULTS / "child-spans.json"
        proc = _spawn([sys.executable, str(CHILD), str(spans_file), *cli_argv(spec)])
        with open(spans_file, encoding="utf-8") as fh:
            self.tracer.adopt(json.load(fh), parent=self.tracer.current())
        spans_file.unlink()
        return proc

    def peak_rss_mb(self) -> float:
        """Peak RSS of the largest CLI child over one round of specs."""
        return max(child_peak_rss_mb([sys.executable, "-m", "nldemix.cli", *cli_argv(spec)])
                   for spec in self.ops)

    def _reference_rows(self, spec) -> tuple[list[list[str]], list[str]]:
        """The CSV rows ``run_trial`` writes in-process for `spec`, and the
        problems its solve checks found.  Computed on the first check of a
        spec only: the solve is deterministic, and every later child row is
        compared with the same rows."""
        if spec not in self.reference_rows:
            self.capture.take()
            ref = io.StringIO()
            harness.write_csv([harness.run_trial(spec)], ref)
            problems = [p for problem, config, algorithm, result in self.capture.take()
                        for p in check_solve(problem, config, algorithm, result)]
            self.reference_rows[spec] = (list(csv.reader(io.StringIO(ref.getvalue()))), problems)
        return self.reference_rows[spec]

    def check(self, spec, proc) -> Outcome:
        problems = []
        if proc.returncode != 0:
            problems.append(f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}")
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        ref_rows, ref_problems = self._reference_rows(spec)
        problems += ref_problems
        if len(rows) != 2 or len(rows[1]) != len(harness.TRIAL_CSV_FIELDS):
            problems.append(f"expected a header and one 17-field row, got {proc.stdout!r}")
            return Outcome(_digest(proc.stdout), problems)
        row = rows[1][:TIME_FIELD] + rows[1][TIME_FIELD + 1:]
        ref_row = ref_rows[1][:TIME_FIELD] + ref_rows[1][TIME_FIELD + 1:]
        if rows[0] != ref_rows[0] or row != ref_row:
            problems.append(f"child row {rows[1]} differs from in-process {ref_rows[1]}")
        fields = dict(zip(rows[0], rows[1]))
        return Outcome(_digest(row), problems, 1, int(fields["success"] == "true"),
                       (float(fields["cosine"]),))


WORKLOADS = {w.name: w for w in (PhaseGrid, SolveDescent, CliOnebit)}
