"""Command-line front end.

Subcommands:

* ``trial``  - run one recovery trial, emit one CSV row.
* ``phase``  - Monte-Carlo success probabilities over an (s, m) grid.
* ``bench``  - median-of-N solve wall times for one or more algorithms.
* ``diag``   - diagnostics: ``coherence``, ``rscrss``, ``linkconst``.

``--config FILE`` supplies a JSON object keyed by the command's own flags
(their dests, e.g. ``basis_phi`` for ``--phi``), with the solver settings
in a nested "solver" object; explicit flags override the file.  CSV goes
to ``--out`` when given, else stdout.

Exit codes: 0 success, 1 usage error, 2 runtime or capability error.
"""

from __future__ import annotations

import argparse
import io
import sys
from dataclasses import fields, replace

from .diagnostics import cross_coherence, estimate_rsc_rss, link_constants, mutual_coherence
from .harness import (
    ALGORITHMS,
    TrialSpec,
    _build_instance,
    run_benchmark,
    run_phase_grid,
    run_trial,
    write_csv,
)
from .links import CapabilityError, LINK_KINDS, make_link
from .measurement import ENSEMBLE_KINDS, sample_operator
from .solvers import INIT_MODES, PROJECTION_MODES, SolverConfig
from .transforms import BASIS_KINDS, Basis, Dictionary, stack_constituents

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract reserves 2 for
    runtime failures, so remap to 1.  Flags are never abbreviated, so a
    flag a command lacks (``diag linkconst --s``) cannot pass as a prefix of
    one it has (``--seed``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

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


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="FILE", help="JSON config; flags override it")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", metavar="CSV")


def _add_instance_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=int)
    p.add_argument("--s", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--phi", dest="basis_phi", choices=BASIS_KINDS)
    p.add_argument("--psi", dest="basis_psi", choices=BASIS_KINDS)
    p.add_argument("--ensemble", choices=ENSEMBLE_KINDS)
    p.add_argument("--link", choices=LINK_KINDS)
    p.add_argument("--tau", type=float)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--algorithm", choices=ALGORITHMS)
    p.add_argument("--threshold", dest="success_threshold", type=float)
    p.add_argument("--step-size", dest="step_size", type=_step_size)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.add_argument("--rel-tol", dest="rel_tol", type=float)
    p.add_argument("--init", choices=INIT_MODES)
    p.add_argument("--projection", dest="projection_mode", choices=PROJECTION_MODES)
    p.add_argument("--lasso-radius", dest="lasso_radius", type=float)
    p.add_argument("--dst-beta", dest="dst_beta", type=float)


def build_parser() -> _Parser:
    """Each command takes only the flags it reads."""
    parser = _Parser(prog="nldemix", description="sparse demixing from nonlinear observations")
    sub = parser.add_subparsers(dest="command", required=True)

    p_trial = sub.add_parser("trial", help="run one recovery trial")
    p_phase = sub.add_parser("phase", help="success probabilities over an (s, m) grid")
    p_bench = sub.add_parser("bench", help="median solve wall times")
    for p in (p_trial, p_phase, p_bench):
        _add_run_flags(p)
        _add_instance_flags(p)
        _add_solver_flags(p)
    p_phase.add_argument("--s-list", dest="s_list", type=_int_list)
    p_phase.add_argument("--m-list", dest="m_list", type=_int_list)
    p_phase.add_argument("--trials", type=int)
    p_phase.add_argument("--workers", type=int)
    p_bench.add_argument("--algorithms", help="comma-separated algorithm names")
    p_bench.add_argument("--repeats", type=int)

    p_diag = sub.add_parser("diag", help="diagnostics")
    dsub = p_diag.add_subparsers(dest="diag_command", required=True)
    p_coherence = dsub.add_parser("coherence")
    p_rscrss = dsub.add_parser("rscrss")
    p_linkconst = dsub.add_parser("linkconst")
    for p in (p_coherence, p_rscrss, p_linkconst):
        _add_run_flags(p)
    for p in (p_coherence, p_rscrss):
        _add_instance_flags(p)
    p_rscrss.add_argument("--sparsity", type=int)
    p_rscrss.add_argument("--num-supports", dest="num_supports", type=int)
    p_linkconst.add_argument("--link", choices=LINK_KINDS)
    p_linkconst.add_argument("--trials", type=int)
    return parser


# Parser dests no config file may set: the subcommands, the file itself, the output.
_NOT_CONFIG = {"command", "diag_command", "config", "out"}
_SPEC_FIELDS = {f.name for f in fields(TrialSpec)} - {"solver"}
_SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}


def _resolve(args: argparse.Namespace, parser: _Parser) -> dict:
    """defaults < config file < explicit flags, as one flat dict.

    A config key is valid only if it is one of the command's own flags
    (by dest); those that are SolverConfig fields sit in a nested "solver"
    object, the rest at the top level.
    """
    dests = set(vars(args)) - _NOT_CONFIG
    cfg: dict = {}
    if args.config:
        import json

        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config {args.config!r}: {exc}")
        if not isinstance(cfg, dict):
            parser.error(f"config {args.config!r} must be a JSON object")
    solver = cfg.pop("solver", {})
    if not isinstance(solver, dict):
        parser.error("config key 'solver' must be an object")
    unknown = (set(cfg) - (dests - _SOLVER_FIELDS)) | (set(solver) - (dests & _SOLVER_FIELDS))
    if unknown:
        parser.error(f"unknown config keys: {sorted(unknown)}")
    merged = {**cfg, **solver}
    merged.update((k, v) for k, v in vars(args).items() if k in dests and v is not None)
    return merged


def _given(merged: dict, *names: str) -> dict:
    """The settings among `names` that a flag or the config file set; the
    library function that takes them checks them and defaults the rest."""
    return {name: merged[name] for name in names if name in merged}


def _make_spec(merged: dict) -> TrialSpec:
    solver = SolverConfig(**{k: merged[k] for k in _SOLVER_FIELDS & merged.keys()})
    return TrialSpec(solver=solver, **{k: merged[k] for k in _SPEC_FIELDS & merged.keys()})


def _emit(payload, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            write_csv(payload, handle)
    else:
        buf = io.StringIO()
        write_csv(payload, buf)
        sys.stdout.write(buf.getvalue())


# Each command maps (args, merged settings, parser) to the payload it writes.
def _cmd_trial(args, merged: dict, parser):
    return [run_trial(_make_spec(merged))]


def _cmd_phase(args, merged: dict, parser):
    s_list = merged.get("s_list")
    m_list = merged.get("m_list")
    if not s_list or not m_list:
        parser.error("phase requires --s-list and --m-list (or config keys s_list/m_list)")
    return run_phase_grid(s_list, m_list, trials=merged.get("trials", 20),
                          base=_make_spec(merged), **_given(merged, "workers"))


def _cmd_bench(args, merged: dict, parser):
    names = merged["algorithms"] if "algorithms" in merged else merged.get("algorithm", "oneshot")
    if isinstance(names, str):
        names = [p.strip() for p in names.split(",") if p.strip()]
    elif not isinstance(names, list):
        parser.error(f"algorithms must be a comma-separated string or a list of names, got {names!r}")
    if not names:
        parser.error("bench needs at least one algorithm")
    for name in names:
        if name not in ALGORITHMS:
            parser.error(f"unknown algorithm {name!r}; expected one of {ALGORITHMS}")
    base = _make_spec(merged)
    specs = [replace(base, algorithm=name) for name in names]
    return run_benchmark(specs, **_given(merged, "repeats"))


def _cmd_diag(args, merged: dict, parser):
    spec = _make_spec(merged)
    if args.diag_command == "coherence":
        d = Dictionary(Basis(spec.basis_phi, spec.n), Basis(spec.basis_psi, spec.n))
        gamma = mutual_coherence(d)
        vartheta = ""
        if "ensemble" in merged and "m" in merged:
            vartheta = cross_coherence(sample_operator(spec.ensemble, spec.m, spec.n, spec.seed), d)
        row = {
            "basis_phi": spec.basis_phi, "basis_psi": spec.basis_psi,
            "n": spec.n, "s": spec.s, "gamma": gamma,
            "epsilon_bound": spec.s * gamma, "vartheta": vartheta,
        }
    elif args.diag_command == "rscrss":
        problem, w, z, _ = _build_instance(spec)
        est = estimate_rsc_rss(problem, t_ref=stack_constituents(w, z), seed=spec.seed,
                               **_given(merged, "sparsity", "num_supports"))
        row = {
            "n": spec.n, "s": spec.s, "m": spec.m, "link": spec.link,
            "sparsity_level": est.sparsity_level,
            "supports_probed": est.supports_probed,
            "m_hat": est.m_hat, "M_hat": est.M_hat,
            "ratio": est.M_hat / est.m_hat if est.m_hat > 0 else float("inf"),
        }
    else:
        trials = merged.get("trials", 100000)
        mu, sigma2, eta2 = link_constants(make_link(spec.link), trials=trials, seed=spec.seed)
        row = {"link": spec.link, "trials": trials,
               "seed": spec.seed, "mu": mu, "sigma2": sigma2, "eta2": eta2}
    return [row]


_COMMANDS = {"trial": _cmd_trial, "phase": _cmd_phase, "bench": _cmd_bench, "diag": _cmd_diag}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _emit(_COMMANDS[args.command](args, _resolve(args, parser), parser), args.out)
        return 0
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except (CapabilityError, ValueError, RuntimeError, OSError) as exc:
        print(f"nldemix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
