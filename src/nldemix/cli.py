"""Command-line front end.

Subcommands:

* ``trial``  - run one recovery trial, emit one CSV row.
* ``phase``  - Monte-Carlo success probabilities over an (s, m) grid.
* ``bench``  - median-of-N solve wall times for one or more algorithms.
* ``diag``   - diagnostics: ``coherence``, ``rscrss``, ``linkconst``.

``--config FILE`` supplies a JSON object keyed by the command's own flags
(their dests, e.g. ``basis_phi`` for ``--phi``; lists as JSON lists), with
the solver settings in a nested "solver" object; explicit flags override
the file.  CSV goes to ``--out`` when given, else stdout.

Exit codes: 0 success; 1 usage error (a flag that does not parse, or a
command line of the wrong shape); 2 a setting the library rejects, from a
flag or the file, or a runtime or capability error.
"""

from __future__ import annotations

import argparse
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
from .measurement import ENSEMBLE_KINDS
from .solvers import INIT_MODES, PROJECTION_MODES, SolverConfig
from .transforms import _check_list, BASIS_KINDS, Basis, Dictionary

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


def _names(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in _names(text)]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


# Each flag defined once, by dest: (flag, add_argument keywords).
_FLAGS = {
    "config": ("--config", {"metavar": "FILE", "help": "JSON config; flags override it"}),
    "seed": ("--seed", {"type": int}), "out": ("--out", {"metavar": "CSV"}),
    "n": ("--n", {"type": int}), "s": ("--s", {"type": int}), "m": ("--m", {"type": int}),
    "basis_phi": ("--phi", {"choices": BASIS_KINDS}),
    "basis_psi": ("--psi", {"choices": BASIS_KINDS}),
    "ensemble": ("--ensemble", {"choices": ENSEMBLE_KINDS}),
    "link": ("--link", {"choices": LINK_KINDS}), "tau": ("--tau", {"type": float}),
    "algorithm": ("--algorithm", {"choices": ALGORITHMS}),
    "success_threshold": ("--threshold", {"type": float}),
    "step_size": ("--step-size", {"type": _step_size}),
    "max_iters": ("--max-iters", {"type": int}),
    "rel_tol": ("--rel-tol", {"type": float}),
    "init": ("--init", {"choices": INIT_MODES}),
    "projection_mode": ("--projection", {"choices": PROJECTION_MODES}),
    "lasso_radius": ("--lasso-radius", {"type": float}),
    "dst_beta": ("--dst-beta", {"type": float}),
    "s_list": ("--s-list", {"type": _int_list}), "m_list": ("--m-list", {"type": _int_list}),
    "trials": ("--trials", {"type": int}), "workers": ("--workers", {"type": int}),
    "algorithms": ("--algorithms", {"type": _names, "help": "comma-separated algorithm names"}),
    "repeats": ("--repeats", {"type": int}),
    "sparsity": ("--sparsity", {"type": int}),
    "num_supports": ("--num-supports", {"type": int}),
}


def build_parser() -> _Parser:
    """Each command takes only the flags it reads: its dests in `_COMMANDS`."""
    parser = _Parser(prog="nldemix", description="sparse demixing from nonlinear observations")
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for name, (help_text, dests, _) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:  # "diag", made before its first subcommand
            subs[group] = subs[""].add_parser(group, help="diagnostics").add_subparsers(
                dest="diag_command", required=True)
        p = subs[group].add_parser(leaf, help=help_text)
        for dest in dests.split():
            flag, kwargs = _FLAGS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
    return parser


# Dests no config file may set: the file itself and the output.
_NOT_CONFIG = {"config", "out"}
_SPEC_FIELDS = {f.name for f in fields(TrialSpec)} - {"solver"}
_SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}


def _resolve(dests: str, args: argparse.Namespace, parser: _Parser) -> dict:
    """defaults < config file < explicit flags, as one flat dict.

    A config key is valid only if it is one of the command's own flags
    (`dests`, from `_COMMANDS`); those that are SolverConfig fields sit in a
    nested "solver" object, the rest at the top level.
    """
    dests = set(dests.split()) - _NOT_CONFIG
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


def _emit(rows, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            write_csv(rows, handle)
    else:
        write_csv(rows, sys.stdout)


# Each command maps (merged settings, parser) to the rows it writes: dicts or records.
def _cmd_trial(merged: dict, parser):
    return [run_trial(_make_spec(merged))]


def _cmd_phase(merged: dict, parser):
    if "s_list" not in merged or "m_list" not in merged:
        parser.error("phase requires --s-list and --m-list (or config keys s_list/m_list)")
    # Every cell sets its own s and m; the base's are placeholders any n allows.
    grid = run_phase_grid(merged["s_list"], merged["m_list"], trials=merged.get("trials", 20),
                          base=_make_spec({**merged, "s": 0, "m": 1}), **_given(merged, "workers"))
    return grid.rows()


def _cmd_bench(merged: dict, parser):
    if "algorithm" in merged and "algorithms" in merged:
        parser.error("bench takes --algorithm or --algorithms, not both")
    base = _make_spec(merged)
    names = merged.get("algorithms", [merged.get("algorithm", "oneshot")])
    specs = _check_list("algorithms", names, "names", lambda name: replace(base, algorithm=name))
    return run_benchmark(specs, **_given(merged, "repeats"))


def _cmd_coherence(merged: dict, parser):
    spec = _make_spec(merged)
    d = Dictionary(Basis(spec.basis_phi, spec.n), Basis(spec.basis_psi, spec.n))
    gamma = mutual_coherence(d)
    vartheta = ""
    if "ensemble" in merged or "m" in merged:  # the spec defaults the other
        vartheta = cross_coherence(_build_instance(spec)[0].A, d)  # trial's operator
    return [{"basis_phi": spec.basis_phi, "basis_psi": spec.basis_psi,
             "n": spec.n, "s": spec.s, "gamma": gamma,
             "epsilon_bound": spec.s * gamma, "vartheta": vartheta}]


def _cmd_rscrss(merged: dict, parser):
    spec = _make_spec(merged)
    problem, t_star, _ = _build_instance(spec)
    est = estimate_rsc_rss(problem, t_ref=t_star, seed=spec.seed,
                           **_given(merged, "sparsity", "num_supports"))
    return [{"n": spec.n, "s": spec.s, "m": spec.m, "link": spec.link,
             "sparsity_level": est.sparsity_level, "supports_probed": est.supports_probed,
             "m_hat": est.m_hat, "M_hat": est.M_hat,
             "ratio": est.M_hat / est.m_hat if est.m_hat > 0 else float("inf")}]


def _cmd_linkconst(merged: dict, parser):
    spec = _make_spec(merged)
    trials = merged.get("trials", 100000)
    mu, sigma2, eta2 = link_constants(make_link(spec.link), trials=trials, seed=spec.seed)
    return [{"link": spec.link, "trials": trials,
             "seed": spec.seed, "mu": mu, "sigma2": sigma2, "eta2": eta2}]


# The flags that trial, phase and bench all take.
_SOLVE = ("config seed out n basis_phi basis_psi ensemble link tau algorithm "
          "step_size max_iters rel_tol init projection_mode lasso_radius dst_beta")
# Each command: (help, the dests of the flags it takes, which are the settings
# it reads, handler).  The parser, the config-key check and main read this.
_COMMANDS = {
    "trial": ("run one recovery trial", _SOLVE + " s m success_threshold", _cmd_trial),
    "phase": ("success probabilities over an (s, m) grid",
              _SOLVE + " success_threshold s_list m_list trials workers", _cmd_phase),
    "bench": ("median solve wall times", _SOLVE + " s m algorithms repeats", _cmd_bench),
    "diag coherence": ("dictionary and operator coherence",
                       "config seed out n s m basis_phi basis_psi ensemble", _cmd_coherence),
    "diag rscrss": ("restricted curvature interval", "config seed out n s m basis_phi "
                    "basis_psi ensemble link sparsity num_supports", _cmd_rscrss),
    "diag linkconst": ("link constants", "config seed out link trials", _cmd_linkconst),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        name = f"diag {args.diag_command}" if args.command == "diag" else args.command
        _, dests, handler = _COMMANDS[name]
        _emit(handler(_resolve(dests, args, parser), parser), args.out)
        return 0
    except SystemExit as exc:  # parser.error inside a handler
        return int(exc.code or 0)
    except (CapabilityError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"nldemix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
