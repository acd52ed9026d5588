"""Timed loop, metrics, provenance and report for run.py.

Imported by run.py after it has fixed the thread settings and the path to
the sources, because importing this module imports numpy and nldemix.
"""

from __future__ import annotations

import ctypes
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy
import scipy.fft

import nldemix
import tracer as tracing
import workloads
from run import PROBE_REPEATS, RESULTS, ROOT, SETUP_REPEATS, SRC, THREAD_VARS

# End-to-end metrics in report order; BENCHMARK.json lists the gated ones.
E2E_UNITS = {
    "setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_tail": "ms",
    "fail_frac": "ratio", "recovery_rate": "ratio", "cosine_p50": "cosine",
    "peak_rss_mb": "MB",
}


# ---------------------------------------------------------------------------
# provenance


def _git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "nldemix").glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads() -> dict[str, int]:
    """Thread count reported by each OpenBLAS library loaded in this process."""
    out = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def provenance(args) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nldemix": nldemix.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "trace": bool(args.trace),
        "seconds": args.seconds,
    }


# ---------------------------------------------------------------------------
# timing


class Reference:
    """Fixed work timed next to every operation and set-up sample.

    The shared machine's speed drifts by about 20% over tens of seconds,
    far more than the bounds the benchmark gates on.  The reference work
    (interpreter loop, random draws, a 32 MB dense matvec, a DCT) slows down
    with it, so timings are reported at the reference's nominal speed:
    raw time x NOMINAL_S / (reference time measured alongside).  The
    reference does not touch nldemix, so program changes are not scaled away.
    """

    NOMINAL_S = 0.0071  # median reference time on the development machine

    def __init__(self) -> None:
        # Larger than the last-level cache, like the workloads' operators.
        self.matrix = np.random.default_rng(0).standard_normal((1024, 4096))
        self.vector = np.ones(4096)
        self.time()

    def time(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        v = np.random.default_rng(0).standard_normal(65536)
        self.matrix @ self.vector
        scipy.fft.dct(v, norm="ortho")
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# set-up and CLI probes (fresh interpreters)


def _wall(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} failed: {proc.stderr.strip()[-500:]}")
    return elapsed, proc


def measure_setup(args, reference: Reference) -> tuple[list[float], list[float]]:
    """Wall time of a fresh interpreter importing nldemix and preparing the
    workload, SETUP_REPEATS times: (raw, at reference speed)."""
    cmd = workloads.child_cmd(args.workload, args.seed, args.scale, "setup")
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        refs = [reference.time() for _ in range(3)]
        elapsed = _wall(cmd)[0]
        refs += [reference.time() for _ in range(3)]
        raw.append(elapsed)
        scaled.append(elapsed * Reference.NOMINAL_S / statistics.median(refs))
    return raw, scaled


def _importtime(stderr: str) -> tuple[float, float]:
    """(cumulative import of nldemix.cli, of nldemix.links) in seconds."""
    top = links = 0.0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue
        if name.strip() == "nldemix.links":
            links = int(cumulative) / 1e6
        if name.startswith(" nldemix") and not name.startswith("  "):
            top += int(cumulative) / 1e6
    return top, links


def cli_probes(workload_args) -> dict[str, float]:
    interp = [_wall([sys.executable, "-c", "pass"])[0] for _ in range(PROBE_REPEATS)]
    imports = [_importtime(_wall([sys.executable, "-X", "importtime", "-c",
                                  "import nldemix.cli"])[1].stderr)
               for _ in range(PROBE_REPEATS)]
    argv = workloads.cli_argv(workloads.onebit_specs(*workload_args)[0])
    mains = []
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        workloads.cli_main_in_process(argv)
        mains.append(time.perf_counter() - start)
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(i[0] for i in imports),
        "links.import_s": statistics.median(i[1] for i in imports),
        "cli.main_ms": 1e3 * statistics.median(mains),
    }


# ---------------------------------------------------------------------------
# the timed loop

# op_ms_tail is taken at a fixed percentile per workload (so commits are
# compared at the same one), chosen to have at least this many samples
# beyond it.  An untraced run goes on until it has enough operations.
TAIL_BEYOND = 10


def tail_min_ops(pct: int) -> int:
    """Fewest samples with TAIL_BEYOND of them beyond the pct-th percentile."""
    return math.ceil(TAIL_BEYOND * 100 / (100 - pct)) + 1


@dataclass
class Timings:
    raw: list[float]     # seconds per operation, NaN where it failed
    scaled: list[float]  # the same at the reference's nominal speed

    def ok(self, which: str) -> list[float]:
        return [x for x in getattr(self, which) if not math.isnan(x)]

    def __add__(self, other: "Timings") -> "Timings":
        return Timings(self.raw + other.raw, self.scaled + other.scaled)


class Loop:
    """Runs rounds of a workload's operations and keeps latencies and checks."""

    def __init__(self, workload, reference: Reference) -> None:
        self.workload = workload
        self.reference = reference
        self.first: dict[int, workloads.Outcome] = {}
        self.failures: list[str] = []
        self.attempted = 0

    def run(self, seconds: float, min_ops: int = 0, tracer=None) -> Timings:
        """Whole rounds, at least one, until `seconds` have passed and at
        least `min_ops` operations have run."""
        raw: list[float] = []
        refs = [self.reference.time()]
        start = time.perf_counter()
        done = 0
        while done == 0 or time.perf_counter() - start < seconds or len(raw) < min_ops:
            for index, op in enumerate(self.workload.ops):
                raw.append(self._one(index, op, tracer))
                refs.append(self.reference.time())
            done += 1
        # refs[i] is taken just before operation i and refs[i + 1] just after;
        # each operation is scaled by the median of the six around it.
        scaled = [x * Reference.NOMINAL_S / statistics.median(refs[max(0, i - 2):i + 4])
                  for i, x in enumerate(raw)]
        return Timings(raw, scaled)

    def _one(self, index: int, op, tracer) -> float:
        self.attempted += 1
        label = self.workload.label(op)
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.workload.run(op)
                t1 = time.perf_counter()
            else:
                with tracer.operation(self.attempted):
                    t0 = time.perf_counter()
                    out = self.workload.run(op)
                    t1 = time.perf_counter()
        except Exception as exc:  # any raise is a failed operation, reported below
            self.failures.append(f"{label}: raised {exc!r}")
            return float("nan")
        try:
            if tracer is None:
                outcome = self.workload.check(op, out)
            else:
                with tracer.paused():
                    outcome = self.workload.check(op, out)
        except Exception as exc:
            self.failures.append(f"{label}: check raised {exc!r}")
            return t1 - t0
        problems = list(outcome.problems)
        first = self.first.setdefault(index, outcome)
        if outcome.fingerprint != first.fingerprint:
            problems.append(f"output {outcome.fingerprint} differs from the first round's "
                            f"{first.fingerprint}")
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return t1 - t0


def _by_label(workload, timings: Timings) -> dict[str, float]:
    """Median scaled latency of each operation of the round, in ms."""
    count = len(workload.ops)
    return {
        workload.label(op): 1e3 * float(np.nanmedian(timings.scaled[i::count]))
        for i, op in enumerate(workload.ops)
    }


def _rate(values: list[float]) -> float:
    return len(values) / math.fsum(values) if values else float("nan")


def e2e_metrics(workload, loop: Loop, timings: Timings, setup: list[float],
                peak_rss_mb: float, which: str) -> dict:
    """The eight end-to-end metrics from raw or reference-speed timings."""
    ok = timings.ok(which)
    first = [loop.first[i] for i in sorted(loop.first)]
    trials = sum(o.trials for o in first)
    cosines = [c for o in first for c in o.cosines]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": _rate(ok) if ok else None,
        "op_ms_p50": 1e3 * float(np.percentile(ok, 50)) if ok else None,
        "op_ms_tail": 1e3 * float(np.percentile(ok, workload.tail_pct)) if ok else None,
        "fail_frac": len(loop.failures) / loop.attempted,
        "recovery_rate": sum(o.successes for o in first) / trials if trials else None,
        "cosine_p50": statistics.median(cosines) if cosines else None,
        "peak_rss_mb": peak_rss_mb,
    }


# ---------------------------------------------------------------------------
# entry point


def _gated(trace: int) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def _report(args, prov, e2e, e2e_raw, tail, layers, loop: Loop) -> str:
    lines = [f"nldemix benchmark: workload {args.workload}, seed {args.seed}, "
             f"scale {args.scale}, trace {'on' if args.trace else 'off'}",
             "provenance: " + json.dumps(prov),
             "end-to-end (times at the reference's nominal speed; raw wall time after it):"]
    for name, unit in E2E_UNITS.items():
        value, raw = e2e[name], e2e_raw[name]
        text = "n/a" if value is None else f"{value:.6g} {unit}"
        if unit in ("s", "ms", "1/s") and value is not None:
            text += f"  (raw {raw:.6g})"
        if name == "op_ms_tail":
            text += f"  (p{tail['percentile']}, {tail['samples']} samples, {tail['beyond']} beyond)"
        if name == "fail_frac":
            text += f"  ({len(loop.failures)}/{loop.attempted})"
        lines.append(f"  {name:<16} {text}")
    if layers:
        lines.append("per-layer (traced half, and fresh-interpreter probes for cli.*):")
    for name in sorted(layers):
        lines.append(f"  {name:<36} {layers[name]:.6g}")
    if not tail["enough"]:
        lines.append(f"  WARNING op_ms_tail has {tail['beyond']} samples beyond "
                     f"p{tail['percentile']}, fewer than {TAIL_BEYOND}")
    for failure in loop.failures[:20]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def run(args) -> int:
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}"
    reference = Reference()
    setup_raw, setup = measure_setup(args, reference)
    workload_args = (args.seed, args.scale)
    workload = workloads.WORKLOADS[args.workload](*workload_args)
    prov = provenance(args)
    probes = cli_probes(workload_args) if args.trace else {}

    workload.run(workload.ops[0])  # warm-up: lazy imports, page cache
    loop = Loop(workload, reference)
    if args.trace:
        timings = loop.run(args.seconds / 2)
    else:
        timings = loop.run(args.seconds, tail_min_ops(workload.tail_pct))
    layers: dict[str, float] = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(nldemix)
        workload.tracer = tracer
        try:
            traced = loop.run(args.seconds / 2, tracer=tracer)
        finally:
            tracer.uninstall()
            workload.tracer = None
        tracer.dump(RESULTS / f"spans-{stem}.jsonl")
        layers = tracing.layer_metrics(tracer.spans)
        layers.update(probes)
        layers["trace.overhead_frac"] = 1.0 - _rate(traced.ok("scaled")) / _rate(
            timings.ok("scaled"))
        timings = timings + traced
    peak_rss_mb = workload.peak_rss_mb()
    e2e = e2e_metrics(workload, loop, timings, setup, peak_rss_mb, "scaled")
    e2e_raw = e2e_metrics(workload, loop, timings, setup_raw, peak_rss_mb, "raw")
    samples = len(timings.ok("scaled"))
    tail = {"percentile": workload.tail_pct, "samples": samples,
            "beyond": sum(1 for x in timings.ok("scaled") if x * 1e3 > e2e["op_ms_tail"])
            if samples else 0}
    tail["enough"] = tail["beyond"] >= TAIL_BEYOND

    print(_report(args, prov, e2e, e2e_raw, tail, layers, loop))

    wanted = _gated(args.trace)
    source = layers if args.trace else e2e
    metrics = {name: {"value": source[name], "unit": unit} for name, unit in wanted.items()}
    record = {
        "provenance": prov, "end_to_end": e2e, "end_to_end_raw": e2e_raw, "tail": tail,
        "per_layer": layers, "setup_samples_s": setup, "setup_samples_raw_s": setup_raw,
        "attempted": loop.attempted, "failures": loop.failures,
        "fingerprints": [loop.first[i].fingerprint for i in sorted(loop.first)],
        "op_ms_p50_by_label": _by_label(workload, timings),
    }
    with open(RESULTS / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({"correct": not loop.failures, "attempted": loop.attempted,
                      "failed": len(loop.failures), "metrics": metrics}))
    return 0
