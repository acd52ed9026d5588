"""nldemix benchmark runner.

    python3 perfbench/run.py --workload phase-grid --seed 1 --seconds 25 --trace 0

Times one workload (see README.md) in a closed loop with one client: the
next operation starts when the previous one has ended.  Rounds of the
workload's operations repeat until --seconds have passed (whole rounds, at
least one, and untraced until the tail percentile has enough samples),
every output is checked, and a report is printed.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  A fuller record,
provenance included, goes to perfbench/results/.

--trace 1 spends the first half of the time untraced and the second half
traced, so the tracing overhead is measured in the same run; spans are
written to perfbench/results/ as JSON lines.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = ROOT / "perfbench" / "results"

# One BLAS/OpenMP thread for the runner and every child it starts: a plain
# single-threaded baseline on a small shared machine.  Set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_REPEATS = 5
PROBE_REPEATS = 3


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("phase-grid", "solve-descent", "cli-onebit"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy (n=256) is for selftest.py")
    p.add_argument("--child", choices=("setup", "round"),
                   help="import nldemix, prepare the workload (and with 'round' run one "
                        "round of its operations) and exit; used to time set-up and to "
                        "measure peak RSS in a fresh interpreter")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nldemix" / "__init__.py").is_file():
        print(f"error: no nldemix sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC)
    sys.path.insert(0, str(SRC))
    if args.child:
        import workloads

        workload = workloads.WORKLOADS[args.workload](args.seed, args.scale)
        if args.child == "round":
            for op in workload.ops:
                workload.run(op)
        return 0
    import bench

    return bench.run(args)


if __name__ == "__main__":
    raise SystemExit(main())
