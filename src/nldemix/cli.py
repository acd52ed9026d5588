"""Command-line front end.

Subcommands:

* ``trial``  - run one recovery trial, emit one CSV row.
* ``phase``  - Monte-Carlo success probabilities over an (s, m) grid.
* ``bench``  - median-of-N solve wall times for one or more algorithms.
* ``diag``   - diagnostics: ``coherence``, ``rscrss``, ``linkconst``.

An argument ``@FILE`` is replaced by FILE's lines, one argument each
(``--n=4096``, or ``--n`` and ``4096``); a later flag overrides the file's.
CSV goes to ``--out`` when given, else stdout.

Exit codes: 0 success; 1 usage error (a flag that does not parse, or a
command line of the wrong shape), shown with the command's usage; 2 a
setting the library rejects, or a runtime or capability error.
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
from .solvers import INIT_MODES, SolverConfig
from .transforms import _check_list, BASIS_KINDS, Basis, Dictionary

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
    "seed": ("--seed", {"type": int}), "out": ("--out", {"metavar": "CSV"}),
    "n": ("--n", {"type": int}), "s": ("--s", {"type": int}), "m": ("--m", {"type": int}),
    "basis_phi": ("--phi", {"choices": BASIS_KINDS}),
    "basis_psi": ("--psi", {"choices": BASIS_KINDS}),
    "ensemble": ("--ensemble", {"choices": ENSEMBLE_KINDS}),
    "link": ("--link", {"choices": LINK_KINDS}), "tau": ("--tau", {"type": float}),
    "algorithm": ("--algorithm", {"choices": ALGORITHMS}),
    "step_size": ("--step-size", {"type": _step_size}),
    "max_iters": ("--max-iters", {"type": int}),
    "rel_tol": ("--rel-tol", {"type": float}),
    "init": ("--init", {"choices": INIT_MODES}),
    "lasso_radius": ("--lasso-radius", {"type": float}),
    "dst_beta": ("--dst-beta", {"type": float}),
    "s_list": ("--s-list", {"type": _int_list, "required": True}),
    "m_list": ("--m-list", {"type": _int_list, "required": True}),
    "trials": ("--trials", {"type": int}), "workers": ("--workers", {"type": int}),
    "algorithms": ("--algorithms", {"type": _names, "help": "comma-separated algorithm names"}),
    "repeats": ("--repeats", {"type": int}),
    "sparsity": ("--sparsity", {"type": int}),
    "num_supports": ("--num-supports", {"type": int}),
}


def build_parser() -> argparse.ArgumentParser:
    """Each command takes only the flags it reads: its dests in `_COMMANDS`.
    Its subparser sets `command` to (itself, its dests, its handler) for
    `main`.  Flags are never abbreviated: ``phase --trial`` is not taken
    for ``--trials``.  ``@FILE`` arguments are read before the command is
    chosen, so an unreadable file is a usage error of the root parser."""
    parser = argparse.ArgumentParser(prog="nldemix", allow_abbrev=False, fromfile_prefix_chars="@",
                                     description="sparse demixing from nonlinear observations")
    subs = {"": parser.add_subparsers(required=True)}
    for name, (help_text, dests, handler) in _COMMANDS.items():
        group, _, leaf = name.rpartition(" ")
        if group not in subs:  # "diag", made before its first subcommand
            subs[group] = subs[""].add_parser(
                group, help="diagnostics", allow_abbrev=False).add_subparsers(required=True)
        p = subs[group].add_parser(leaf, help=help_text, allow_abbrev=False)
        for dest in dests.split():
            flag, kwargs = _FLAGS[dest]
            p.add_argument(flag, dest=dest, **kwargs)
        p.set_defaults(command=(p, dests, handler))
    return parser


_SPEC_FIELDS = {f.name for f in fields(TrialSpec)} - {"solver"}
_SOLVER_FIELDS = {f.name for f in fields(SolverConfig)}


def _given(settings: dict, *names: str) -> dict:
    """The settings among `names` that a flag set; the library function
    that takes them checks them and defaults the rest."""
    return {name: settings[name] for name in names if name in settings}


def _make_spec(settings: dict) -> TrialSpec:
    solver = SolverConfig(**{k: settings[k] for k in _SOLVER_FIELDS & settings.keys()})
    return TrialSpec(solver=solver, **{k: settings[k] for k in _SPEC_FIELDS & settings.keys()})


def _emit(rows, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="") as handle:
            write_csv(rows, handle)
    else:
        write_csv(rows, sys.stdout)


# Each command maps the settings its flags set to the rows it writes: dicts
# or records.
def _cmd_trial(settings: dict):
    return [run_trial(_make_spec(settings))]


def _cmd_phase(settings: dict):
    # Every cell sets its own s and m; the base's are placeholders any n allows.
    grid = run_phase_grid(settings["s_list"], settings["m_list"],
                          trials=settings.get("trials", 20),
                          base=_make_spec({**settings, "s": 0, "m": 1}),
                          **_given(settings, "workers"))
    return grid.rows()


def _cmd_bench(settings: dict):
    base = _make_spec(settings)
    names = settings.get("algorithms", [base.algorithm])  # the spec's default: dht
    specs = _check_list("algorithms", names, "names", lambda name: replace(base, algorithm=name))
    return run_benchmark(specs, **_given(settings, "repeats"))


def _cmd_coherence(settings: dict):
    spec = _make_spec(settings)
    d = Dictionary(Basis(spec.basis_phi, spec.n), Basis(spec.basis_psi, spec.n))
    gamma = mutual_coherence(d)
    vartheta = ""
    if "ensemble" in settings or "m" in settings:  # the spec defaults the other
        vartheta = cross_coherence(_build_instance(spec)[0].A, d)  # trial's operator
    return [{"basis_phi": spec.basis_phi, "basis_psi": spec.basis_psi,
             "n": spec.n, "s": spec.s, "gamma": gamma,
             "epsilon_bound": spec.s * gamma, "vartheta": vartheta}]


def _cmd_rscrss(settings: dict):
    spec = _make_spec(settings)
    problem, t_star, _ = _build_instance(spec)
    est = estimate_rsc_rss(problem, t_ref=t_star, seed=spec.seed,
                           **_given(settings, "sparsity", "num_supports"))
    return [{"n": spec.n, "s": spec.s, "m": spec.m, "link": spec.link,
             "sparsity_level": est.sparsity_level, "supports_probed": est.supports_probed,
             "m_hat": est.m_hat, "M_hat": est.M_hat,
             "ratio": est.M_hat / est.m_hat if est.m_hat > 0 else float("inf")}]


def _cmd_linkconst(settings: dict):
    link = _make_spec(settings).link
    mu, sigma2, eta2 = link_constants(make_link(link))
    return [{"link": link, "mu": mu, "sigma2": sigma2, "eta2": eta2}]


# The flags that trial, phase and bench all take; bench names its algorithms
# with --algorithms alone, the other two take one --algorithm.
_SOLVE = ("seed out n basis_phi basis_psi ensemble link tau "
          "step_size max_iters rel_tol init lasso_radius dst_beta")
# Each command: (help, the dests of the flags it takes, which are the settings
# it reads, handler).  build_parser hands each entry to its subparser.
_COMMANDS = {
    "trial": ("run one recovery trial", _SOLVE + " algorithm s m", _cmd_trial),
    "phase": ("success probabilities over an (s, m) grid",
              _SOLVE + " algorithm s_list m_list trials workers", _cmd_phase),
    "bench": ("median solve wall times", _SOLVE + " s m algorithms repeats", _cmd_bench),
    "diag coherence": ("dictionary and operator coherence",
                       "seed out n s m basis_phi basis_psi ensemble", _cmd_coherence),
    "diag rscrss": ("restricted curvature interval", "seed out n s m basis_phi "
                    "basis_psi ensemble link sparsity num_supports", _cmd_rscrss),
    "diag linkconst": ("link constants", "out link", _cmd_linkconst),
}


def main(argv=None) -> int:
    try:
        args, extra = build_parser().parse_known_args(argv)
        parser, dests, handler = args.command
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        settings = {dest: value for dest in dests.split()
                    if (value := getattr(args, dest)) is not None}
        _emit(handler(settings), args.out)
        return 0
    except SystemExit as exc:  # argparse exits 2 on a usage error; the contract says 1
        return 1 if exc.code == 2 else int(exc.code or 0)
    except (CapabilityError, ValueError, RuntimeError, OSError, MemoryError) as exc:
        print(f"nldemix: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
