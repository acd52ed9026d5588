"""Command-line front end.

Subcommands:

* ``trial``  - run one recovery trial, emit one CSV row.
* ``phase``  - Monte-Carlo success probabilities over an (s, m) grid.
* ``bench``  - median-of-N solve wall times for one or more algorithms.
* ``diag``   - diagnostics: ``coherence``, ``rscrss``, ``linkconst``.

``--config FILE`` supplies a JSON object mirroring the trial fields
(with an optional nested "solver" object) and the command's own flags;
explicit flags override the file.  CSV goes to ``--out`` when given,
else stdout.

Exit codes: 0 success, 1 usage error, 2 runtime or capability error.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
from dataclasses import replace

from .diagnostics import coherence_report, estimate_rsc_rss, link_constants
from .harness import (
    ALGORITHMS,
    TrialSpec,
    _build_instance,
    export_csv,
    run_benchmark,
    run_phase_grid,
    run_trial,
    write_csv,
)
from .links import CapabilityError, LINK_KINDS, make_link
from .measurement import ENSEMBLE_KINDS, sample_operator
from .solvers import SolverConfig
from .transforms import BASIS_KINDS, Basis, Dictionary, stack_constituents

_SPEC_KEYS = {
    "n", "s", "m", "basis_phi", "basis_psi", "ensemble", "link", "tau",
    "algorithm", "seed", "success_threshold", "link_radius",
}
_SOLVER_KEYS = {
    "step_size", "max_iters", "rel_tol", "init", "projection_mode",
    "lasso_radius", "dst_beta",
}
_EXTRA_KEYS = {
    "s_list", "m_list", "trials", "workers", "algorithms", "repeats",
    "sparsity", "num_supports",
}


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    runtime failures, so remap to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _step_size(text: str):
    if text == "auto":
        return "auto"
    try:
        return float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"step size must be a number or 'auto', got {text!r}") from exc


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON config; flags override it")
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--phi", dest="basis_phi", choices=BASIS_KINDS)
    p.add_argument("--psi", dest="basis_psi", choices=BASIS_KINDS)
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS)
    p.add_argument("--link", choices=LINK_KINDS)
    p.add_argument("--tau", type=float)
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", dest="success_threshold", type=float)
    p.add_argument("--link-radius", dest="link_radius", type=float)
    p.add_argument("--out", metavar="CSV")
    p.add_argument("--step-size", dest="step_size", type=_step_size)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--init", choices=("oneshot", "zero"))
    p.add_argument("--projection", dest="projection_mode", choices=("stacked2s", "perblocks"))
    p.add_argument("--lasso-radius", dest="lasso_radius", type=float)
    p.add_argument("--dst-beta", dest="dst_beta", type=float)


def build_parser() -> _Parser:
    parser = _Parser(prog="nldemix", description="sparse demixing from nonlinear observations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trial = sub.add_parser("trial", help="run one recovery trial")
    _add_common(p_trial)

    p_phase = sub.add_parser("phase", help="success probabilities over an (s, m) grid")
    _add_common(p_phase)
    p_phase.add_argument("--s-list", dest="s_list", type=_int_list)
    p_phase.add_argument("--m-list", dest="m_list", type=_int_list)
    p_phase.add_argument("--trials", type=int)
    p_phase.add_argument("--workers", type=int)

    p_bench = sub.add_parser("bench", help="median solve wall times")
    _add_common(p_bench)
    p_bench.add_argument("--algorithms", help="comma-separated algorithm names")
    p_bench.add_argument("--repeats", type=int)

    p_diag = sub.add_parser("diag", help="diagnostics")
    dsub = p_diag.add_subparsers(dest="diag_command", required=True)
    for name in ("coherence", "rscrss", "linkconst"):
        dp = dsub.add_parser(name)
        _add_common(dp)
        if name == "rscrss":
            dp.add_argument("--sparsity", type=int)
            dp.add_argument("--num-supports", dest="num_supports", type=int)
        if name == "linkconst":
            dp.add_argument("--trials", type=int)
    return parser


def _load_config(path: str, parser: _Parser, extra_keys: set) -> dict:
    """The config file's object; `extra_keys` are the grid, bench and
    diag keys the command uses, and any other such key is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config {path!r}: {exc}")
    if not isinstance(cfg, dict):
        parser.error(f"config {path!r} must be a JSON object")
    solver = cfg.get("solver", {})
    if not isinstance(solver, dict):
        parser.error("config key 'solver' must be an object")
    unknown = (set(cfg) - _SPEC_KEYS - _EXTRA_KEYS - {"solver"}) | (set(solver) - _SOLVER_KEYS)
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    unused = set(cfg) & (_EXTRA_KEYS - extra_keys)
    if unused:
        parser.error(f"config keys not used by this command: {sorted(unused)}")
    return cfg


def _resolve(args: argparse.Namespace, parser: _Parser) -> dict:
    """defaults < config file < explicit flags."""
    cfg: dict = {}
    if getattr(args, "config", None):
        cfg = _load_config(args.config, parser, _EXTRA_KEYS & set(vars(args)))
    solver_cfg = dict(cfg.get("solver", {}))
    merged = {k: v for k, v in cfg.items() if k != "solver"}
    for key in _SPEC_KEYS | _EXTRA_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            merged[key] = val
    for key in _SOLVER_KEYS:
        val = getattr(args, key, None)
        if val is not None:
            solver_cfg[key] = val
    merged["solver"] = solver_cfg
    return merged


def _make_spec(merged: dict) -> TrialSpec:
    solver = SolverConfig(**merged.get("solver", {}))
    fields = {k: merged[k] for k in _SPEC_KEYS if k in merged}
    return TrialSpec(solver=solver, **fields)


def _emit(payload, out: str | None) -> None:
    if out:
        export_csv(payload, out)
    else:
        buf = io.StringIO()
        write_csv(payload, buf)
        sys.stdout.write(buf.getvalue())


def _cmd_trial(args, parser) -> int:
    merged = _resolve(args, parser)
    record = run_trial(_make_spec(merged))
    _emit([record], args.out)
    return 0


def _cmd_phase(args, parser) -> int:
    merged = _resolve(args, parser)
    s_list = merged.get("s_list")
    m_list = merged.get("m_list")
    if not s_list or not m_list:
        parser.error("phase requires --s-list and --m-list (or config keys s_list/m_list)")
    grid = run_phase_grid(
        s_list, m_list,
        trials=int(merged.get("trials", 20)),
        base=_make_spec(merged),
        workers=int(merged.get("workers", 1)),
    )
    _emit(grid, args.out)
    return 0


def _cmd_bench(args, parser) -> int:
    merged = _resolve(args, parser)
    names = merged.get("algorithms") or merged.get("algorithm") or "oneshot"
    if isinstance(names, str):
        names = [p.strip() for p in names.split(",") if p.strip()]
    for name in names:
        if name not in ALGORITHMS:
            parser.error(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    base = _make_spec(merged)
    specs = [replace(base, algorithm=name) for name in names]
    rows = run_benchmark(specs, repeats=int(merged.get("repeats", 5)))
    _emit(rows, args.out)
    return 0


def _cmd_diag(args, parser) -> int:
    merged = _resolve(args, parser)
    spec = _make_spec(merged)
    if args.diag_command == "coherence":
        d = Dictionary(Basis(spec.basis_phi, spec.n), Basis(spec.basis_psi, spec.n))
        A = None
        if "ensemble" in merged and "m" in merged:
            A = sample_operator(spec.ensemble, spec.m, spec.n, spec.seed)
        rep = coherence_report(d, spec.s, A)
        row = {
            "basis_phi": spec.basis_phi, "basis_psi": spec.basis_psi,
            "n": spec.n, "s": spec.s, "gamma": rep.gamma,
            "epsilon_bound": rep.epsilon_bound,
            "vartheta": rep.vartheta if rep.vartheta is not None else "",
        }
    elif args.diag_command == "rscrss":
        problem, w, z, _ = _build_instance(spec)
        est = estimate_rsc_rss(
            problem,
            t_ref=stack_constituents(w, z),
            sparsity=merged.get("sparsity"),
            num_supports=int(merged.get("num_supports", 8)),
            seed=spec.seed,
        )
        row = {
            "n": spec.n, "s": spec.s, "m": spec.m, "link": spec.link,
            "sparsity_level": est.sparsity_level,
            "supports_probed": est.supports_probed,
            "m_hat": est.m_hat, "M_hat": est.M_hat,
            "ratio": est.M_hat / est.m_hat if est.m_hat > 0 else float("inf"),
        }
    else:
        link = make_link(spec.link, radius=spec.link_radius)
        mu, sigma2, eta2 = link_constants(
            link, trials=int(merged.get("trials", 100000)), seed=spec.seed
        )
        row = {"link": spec.link, "trials": int(merged.get("trials", 100000)),
               "seed": spec.seed, "mu": mu, "sigma2": sigma2, "eta2": eta2}
    _emit([row], args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "trial":
            return _cmd_trial(args, parser)
        if args.command == "phase":
            return _cmd_phase(args, parser)
        if args.command == "bench":
            return _cmd_bench(args, parser)
        return _cmd_diag(args, parser)
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except (CapabilityError, ValueError, RuntimeError, OSError) as exc:
        print(f"nldemix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
