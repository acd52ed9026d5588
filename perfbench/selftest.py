"""Self-test of the benchmark at toy sizes (n=256).

    python3 perfbench/selftest.py

For every workload it runs run.py with --seconds 0 once untraced and twice
traced (one round per half; an untraced run still goes on until its tail
percentile has enough samples), and checks that:

* each run exits 0 and ends with the result line, correct and with no
  failed operation;
* every metric BENCHMARK.json names is present with its unit (end-to-end
  untraced, per-layer traced);
* traced and untraced runs give identical outputs, operation by operation;
* operation counts repeat exactly across the two traced runs.

It also checks that run.py fails without printing a result in a directory
holding only BENCHMARK.json and perfbench/.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "perfbench" / "results"
SEED = 3
COUNTS = (
    "harness.builds_per_trial", "measurement.apply_per_iter", "measurement.adjoint_per_iter",
    "transforms.calls_per_iter", "solvers.objective_evals_per_iter",
    "solvers.step_accept_ratio", "solvers.iters_per_solve", "solvers.converged_frac",
    "links.eval_calls_per_solve",
)


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--scale", "toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int, spec: dict, errors: list[str]) -> dict:
    proc = run(workload, trace)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        errors.append(f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return {}
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(line)}")
    if not line["correct"] or line["failed"] or line["attempted"] < 1:
        errors.append(f"{where}: correct={line['correct']} failed={line['failed']}")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in line["metrics"].items()}
    if got != wanted:
        errors.append(f"{where}: metrics {got} differ from BENCHMARK.json {wanted}")
    for name, m in line["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            errors.append(f"{where}: {name} = {m['value']!r}")
    with open(RESULTS / f"{workload}-toy-seed{SEED}-trace{trace}.json", encoding="utf-8") as fh:
        return json.load(fh)


def bare_checkout_fails(errors: list[str]) -> None:
    bare = RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in (ROOT / "perfbench").glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run("phase-grid", 0, cwd=bare)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            errors.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    errors: list[str] = []
    for workload in [w["name"] for w in spec["workloads"]]:
        plain = result(workload, 0, spec, errors)
        traced = [result(workload, 1, spec, errors) for _ in range(2)]
        if not plain or not all(traced):
            continue
        for rec in traced:
            if rec["fingerprints"] != plain["fingerprints"]:
                errors.append(f"{workload}: traced outputs differ from untraced")
        first, second = (rec["per_layer"] for rec in traced)
        for name in COUNTS:
            if first[name] != second[name]:
                errors.append(f"{workload}: {name} {first[name]!r} != {second[name]!r}")
        print(f"{workload}: checked")
    bare_checkout_fails(errors)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    raise SystemExit(main())
