"""The package's public surface."""

import ast
import dataclasses
import inspect
import re
import reprlib
from pathlib import Path

import numpy as np
import pytest

import nldemix


def test_every_exported_name_resolves():
    missing = [name for name in nldemix.__all__ if not hasattr(nldemix, name)]
    assert missing == []
    assert len(set(nldemix.__all__)) == len(nldemix.__all__)


LIBRARY_MODULES = (nldemix.transforms, nldemix.measurement, nldemix.links, nldemix.solvers,
                   nldemix.diagnostics, nldemix.harness)


def test_each_exported_name_is_declared_once_by_its_module():
    # The package re-exports the six modules' __all__ lists and writes no name itself.
    assert nldemix.__all__ == [name for module in LIBRARY_MODULES
                               for name in module.__all__] + ["__version__"]
    assert set(nldemix.__all__) == {
        "Basis", "Dictionary", "basis_apply", "basis_adjoint", "basis_matrix",
        "dict_apply", "dict_adjoint",
        "MeasurementOperator", "sample_operator", "observe",
        "LinkFunction", "CapabilityError", "make_link", "link_eval", "link_deriv",
        "link_potential",
        "DemixProblem", "SolverConfig", "SolveResult", "TraceRecord",
        "hard_threshold", "soft_threshold", "project_l1_ball", "oneshot",
        "loss", "loss_gradient", "loss_hessian_matvec", "dht", "dst", "nlcd_lasso",
        "RscRssEstimate", "cosine_similarity", "mutual_coherence", "cross_coherence",
        "link_constants", "estimate_rsc_rss",
        "TrialSpec", "TrialRecord", "PhaseGrid", "generate_signal", "run_trial",
        "run_phase_grid", "run_benchmark",
        "__version__",
    }
    for module in LIBRARY_MODULES:
        for name in module.__all__:
            obj = getattr(module, name)
            assert getattr(nldemix, name) is obj
            assert obj.__module__ == module.__name__, name
    init = Path(nldemix.__file__).read_text(encoding="utf-8")
    assert not any(f'"{name}"' in init for name in nldemix.__all__ if name != "__version__")


def test_deleted_aliases_and_bundles_stay_gone():
    # derivative_bounds read two link fields that are gone too; the others only
    # bundled names that remain: mutual_coherence and cross_coherence, write_csv.
    # split_constituents copied the halves of t, which t[:n] and t[n:] give as views;
    # stack_constituents checked the halves np.concatenate([w, z]) joins.
    for name in ("derivative_bounds", "coherence_report", "CoherenceReport", "export_csv",
                 "split_constituents", "stack_constituents"):
        assert name not in nldemix.__all__
        assert not hasattr(nldemix, name)


def test_a_link_is_its_name_and_three_functions():
    # No solver stepped by derivative bounds or a working interval, so a link
    # carries neither: it is its name plus (g, g', Theta).
    assert list(inspect.signature(nldemix.make_link).parameters) == ["name"]
    assert [f.name for f in dataclasses.fields(nldemix.LinkFunction)] == [
        "name", "eval_fn", "deriv_fn", "potential_fn"]
    # The CLI's --link choices list the links in this order.
    assert nldemix.links.LINK_KINDS == ("sign", "linsin", "logistic", "shifted-logistic")


@pytest.mark.parametrize("name", [["linsin"], {"linsin": 1}, np.array(["linsin"]), None],
                         ids=["list", "dict", "array", "None"])
def test_unknown_link_is_a_value_error(name):
    with pytest.raises(ValueError, match=r"^unknown link .*; expected one of \('sign', "):
        nldemix.make_link(name)


# ---------------------------------------------------------------------------
# Input checks: each rule has one implementation, and every public entry
# that takes a vector calls it.

N, M = 16, 20


def _problem(link="linsin"):
    d = nldemix.Dictionary(nldemix.Basis("identity", N), nldemix.Basis("dct", N))
    A = nldemix.sample_operator("gaussian", M, N, 0)
    return nldemix.DemixProblem(A=A, dictionary=d, link=nldemix.make_link(link),
                                y=np.zeros(M), s=2)


# name -> (call with the vector under test, the argument's name, its length)
VECTOR_ENTRIES = {
    "loss": (nldemix.loss, "t", 2 * N),
    "loss_gradient": (nldemix.loss_gradient, "t", 2 * N),
    "loss_hessian_matvec-t": (
        lambda p, v: nldemix.loss_hessian_matvec(p, v, np.zeros(2 * N)), "t", 2 * N),
    "loss_hessian_matvec-v": (
        lambda p, v: nldemix.loss_hessian_matvec(p, np.zeros(2 * N), v), "v", 2 * N),
    "dict_adjoint": (lambda p, v: nldemix.dict_adjoint(p.dictionary, v), "x", N),
    "observe": (lambda p, v: nldemix.observe(p.A, p.link, v, tau=0.5, seed=1), "x", N),
    "estimate_rsc_rss-t_ref": (lambda p, v: nldemix.estimate_rsc_rss(p, t_ref=v), "t_ref", 2 * N),
    "estimate_rsc_rss-u_ref": (lambda p, v: nldemix.estimate_rsc_rss(p, np.zeros(2 * N), u_ref=v),
                               "u_ref", M),
    "DemixProblem-y": (
        lambda p, v: nldemix.DemixProblem(A=p.A, dictionary=p.dictionary, link=p.link,
                                          y=v, s=2), "y", M),
}
FINITE_ENTRIES = ("loss", "loss_gradient", "loss_hessian_matvec-t", "loss_hessian_matvec-v",
                  "observe", "estimate_rsc_rss-t_ref", "estimate_rsc_rss-u_ref")


@pytest.mark.parametrize("entry", sorted(VECTOR_ENTRIES))
@pytest.mark.parametrize("shape", ["batch", "long"])
def test_vector_entries_reject_misshaped_input(entry, shape):
    call, what, k = VECTOR_ENTRIES[entry]
    bad = np.zeros((2, k) if shape == "batch" else (k + 1,))
    message = f"{what} must be a vector of length {k}, got shape {bad.shape}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(_problem(), bad)
    call(_problem(), np.zeros(k))  # the right shape passes


@pytest.mark.parametrize("entry", FINITE_ENTRIES)
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_boundary_entries_reject_non_finite_vectors(entry, bad):
    call, what, k = VECTOR_ENTRIES[entry]
    v = np.zeros(k)
    v[1] = bad
    with pytest.raises(ValueError, match=f"{what} must be finite; it holds NaN or infinite"):
        call(_problem(), v)


# name -> (call with the vector under test, its name, the length it must have:
# None where any length will do, else that of the other vector, np.ones(3))
SIZED_BY_INPUT_ENTRIES = {
    "hard_threshold": (lambda v: nldemix.hard_threshold(v, 2), "v", None),
    "project_l1_ball": (lambda v: nldemix.project_l1_ball(v, 1.0), "v", None),
    "cosine_similarity-x": (
        lambda v: nldemix.cosine_similarity(v, np.ones(np.size(v))), "x", None),
    "cosine_similarity-x_hat": (lambda v: nldemix.cosine_similarity(np.ones(3), v), "x_hat", 3),
}


@pytest.mark.parametrize("entry", sorted(SIZED_BY_INPUT_ENTRIES))
@pytest.mark.parametrize("shape", [(2, 3), (), (4,)], ids=["matrix", "scalar", "long"])
def test_entries_sized_by_their_input_reject_misshaped_vectors(entry, shape):
    call, what, k = SIZED_BY_INPUT_ENTRIES[entry]
    bad = np.ones(shape)
    if k is None and len(shape) == 1:
        call(bad)  # any length will do
        return
    message = f"{what} must be a vector of length {k or bad.size}, got shape {bad.shape}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)
    call(np.ones(3))


def test_per_iteration_entries_do_not_check_finiteness():
    p = _problem()
    assert np.isnan(nldemix.dict_adjoint(p.dictionary, np.full(N, np.nan))).all()
    assert np.isnan(nldemix.dict_apply(p.dictionary, np.full(2 * N, np.nan))).all()
    assert np.isnan(p.A.apply(np.full(N, np.nan))).all()
    assert np.isnan(p.A.adjoint(np.full(M, np.nan))).all()


@pytest.mark.parametrize("build, message", [
    (lambda: nldemix.Basis("dct", 0), "n must be >= 1, got 0"),
    (lambda: nldemix.sample_operator("gaussian", 0, 4, 0), "m must be >= 1, got 0"),
    (lambda: nldemix.sample_operator("gaussian", 4, 0, 0), "n must be >= 1, got 0"),
    (lambda: nldemix.TrialSpec(n=0), "n must be >= 1, got 0"),
    (lambda: nldemix.TrialSpec(m=0), "m must be >= 1, got 0"),
    (lambda: nldemix.TrialSpec(s=-1), "s must be >= 0, got -1"),
    (lambda: nldemix.TrialSpec(seed=-1), "seed must be >= 0, got -1"),
    (lambda: nldemix.sample_operator("gaussian", 4, 4, -1), "seed must be >= 0, got -1"),
    (lambda: nldemix.generate_signal(N, 2, -1, _problem().dictionary),
     "seed must be >= 0, got -1"),
    (lambda: nldemix.observe(_problem().A, nldemix.make_link("linsin"), np.zeros(N), seed=-1),
     "seed must be >= 0, got -1"),
    (lambda: nldemix.estimate_rsc_rss(_problem(), np.zeros(2 * N), seed=-1),
     "seed must be >= 0, got -1"),
    (lambda: nldemix.generate_signal(0, 0, 0, _problem().dictionary), "n must be >= 1, got 0"),
    (lambda: nldemix.estimate_rsc_rss(_problem(), np.zeros(2 * N), sparsity=0),
     "sparsity must be >= 1, got 0"),
], ids=["Basis-n", "operator-m", "operator-n", "TrialSpec-n", "TrialSpec-m", "TrialSpec-s",
        "TrialSpec-seed", "operator-seed", "generate_signal-seed", "observe-seed",
        "estimate_rsc_rss-seed", "generate_signal-n",
        "estimate_rsc_rss-sparsity"])
def test_sizes_below_minimum_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


@pytest.mark.parametrize("build, message", [
    (lambda: nldemix.TrialSpec(n=N, s=N + 1), "s must be <= 16, got 17"),
    (lambda: nldemix.generate_signal(N, N + 1, 0, _problem().dictionary),
     "s must be <= 16, got 17"),
    (lambda: nldemix.DemixProblem(A=_problem().A, dictionary=_problem().dictionary,
                                  link=_problem().link, y=np.zeros(M), s=N + 1),
     "s must be <= 16, got 17"),
    (lambda: nldemix.estimate_rsc_rss(_problem(), np.zeros(2 * N), sparsity=2 * N + 1),
     "sparsity must be <= 32, got 33"),
], ids=["TrialSpec-s", "generate_signal-s", "DemixProblem-s", "estimate_rsc_rss-sparsity"])
def test_counts_above_maximum_rejected(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def _raisers(pattern: str) -> set[str]:
    """module.function for every function in the package whose raise
    statements' source matches `pattern`."""
    raisers = set()
    for path in Path(nldemix.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Raise) and re.search(pattern, ast.unparse(node))
                    for node in ast.walk(fn)):
                raisers.add(f"{path.stem}.{fn.name}")
    return raisers


def test_capability_error_is_raised_in_one_function():
    assert _raisers("CapabilityError") == {"links._require"}


def test_solve_results_are_built_in_one_function():
    builders = set()
    for path in Path(nldemix.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(
                    isinstance(node, ast.Call) and ast.unparse(node.func) == "SolveResult"
                    for node in ast.walk(fn)):
                builders.add(f"{path.stem}.{fn.name}")
    assert builders == {"solvers._finish"}


def _freezes(node) -> bool:
    """Whether `node` sets an array read-only: a setflags call with write
    False, or an assignment to a .writeable attribute."""
    if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("setflags"):
        write = [*node.args[:1], *(k.value for k in node.keywords if k.arg == "write")]
        return any(isinstance(v, ast.Constant) and v.value is False for v in write)
    return isinstance(node, ast.Assign) and any(
        ast.unparse(target).endswith(".writeable") for target in node.targets)


def test_arrays_are_made_read_only_in_one_function():
    freezers = set()
    for path in Path(nldemix.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef) and any(map(_freezes, ast.walk(fn))):
                freezers.add(f"{path.stem}.{fn.name}")
    assert freezers == {"transforms._frozen"}


def test_seed_streams_are_derived_in_harness_only():
    callers = set()
    for path in Path(nldemix.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func).endswith("child_seed"):
                callers.add(path.stem)
    assert callers == {"harness"}


@pytest.mark.parametrize("pattern, checks", [
    (r"unknown .*expected one of", {"transforms._check_choice"}),
    (r"must be (>=|<=|in \[|at most)|exceeds", {"transforms._check_int"}),
    (r"vectors? of|last axis|1-D", {"transforms._check_vector", "transforms._check_last_axis"}),
    (r"sequence of|distinct|non-empty|at least one", {"transforms._check_list"}),
    (r"must be an? (\{|[A-Z])", {"transforms._check_instance"}),
], ids=["choice", "count-bound", "vector-shape", "list", "type"])
def test_each_input_rule_is_raised_in_its_own_check(pattern, checks):
    assert _raisers(pattern) == checks


# name -> (call with the value under test, what the message calls it, the choices)
CHOICE_ENTRIES = {
    "TrialSpec-algorithm": (lambda v: nldemix.TrialSpec(algorithm=v), "algorithm",
                            ("oneshot", "dht", "dst", "nlcdlasso")),
    "make_link": (nldemix.make_link, "link", ("sign", "linsin", "logistic", "shifted-logistic")),
    "sample_operator": (lambda v: nldemix.sample_operator(v, 4, 4, 0), "ensemble kind",
                        ("gaussian", "rademacher", "subfast")),
    "Basis": (lambda v: nldemix.Basis(v, N), "basis kind", ("identity", "dct", "haar")),
    "SolverConfig-init": (lambda v: nldemix.SolverConfig(init=v), "init mode",
                          ("oneshot", "zero")),
    "SolverConfig-projection_mode": (lambda v: nldemix.SolverConfig(projection_mode=v),
                                     "projection mode", ("stacked2s", "perblocks")),
}


@pytest.mark.parametrize("entry", sorted(CHOICE_ENTRIES))
@pytest.mark.parametrize("bad", ["unknown", "list", "None", "array-1", "array-2"])
def test_choice_entries_reject_what_is_not_one_name(entry, bad):
    call, what, choices = CHOICE_ENTRIES[entry]
    value = {"unknown": "bogus", "list": [choices[0]], "None": None,
             "array-1": np.array(choices[:1]), "array-2": np.array(choices[:2])}[bad]
    message = f"unknown {what} {value!r}; expected one of {choices}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
    for name in choices:  # every listed name passes, as a numpy string too
        call(name)
        call(np.str_(name))


_SPEC = nldemix.TrialSpec(n=N, s=2, m=M, algorithm="oneshot")
# name -> (call with the list under test, its name, what its entries are, two valid entries)
LIST_ENTRIES = {
    "run_phase_grid-s_values": (lambda v: nldemix.run_phase_grid(v, [M], 1, _SPEC),
                                "s_values", "integers", (1, 2)),
    "run_phase_grid-m_values": (lambda v: nldemix.run_phase_grid([2], v, 1, _SPEC),
                                "m_values", "integers", (M, M + 4)),
    "run_phase_grid-algorithms": (
        lambda v: nldemix.run_phase_grid([2], [M], 1, _SPEC, algorithms=v), "algorithms",
        "names", ("oneshot", "nlcdlasso")),
    "run_benchmark": (lambda v: nldemix.run_benchmark(v, repeats=1), "specs", "TrialSpecs",
                      (_SPEC, dataclasses.replace(_SPEC, algorithm="nlcdlasso"))),
}


@pytest.mark.parametrize("entry", sorted(LIST_ENTRIES))
@pytest.mark.parametrize("bad", ["str", "entry", "set", "dict", "iterator", "empty", "repeated"])
def test_list_entries_follow_one_rule(entry, bad):
    call, name, of, (a, b) = LIST_ENTRIES[entry]
    value = {"str": "ab", "entry": a, "set": {a}, "dict": {a: 1}, "iterator": iter([a, b]),
             "empty": [], "repeated": [a, b, a]}[bad]
    rule = "distinct and non-empty" if bad in ("empty", "repeated") else f"a sequence of {of}"
    repeat = "; entry 2 repeats entry 0" if bad == "repeated" else ""
    message = f"{name} must be {rule}, got {reprlib.repr(value)}{repeat}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(value)
    for good in ([a, b], (b,), np.array([a, b], dtype=object)):  # any sequence or 1-D array
        call(good)


@pytest.mark.parametrize("call", [
    lambda p: nldemix.link_deriv(p.link, 0.0),
    lambda p: nldemix.link_potential(p.link, 0.0),
    lambda p: nldemix.estimate_rsc_rss(p, np.zeros(2 * N)),
    lambda p: nldemix.loss(p, np.zeros(2 * N)),
    lambda p: nldemix.dht(p),
], ids=["link_deriv", "link_potential", "estimate_rsc_rss", "loss", "dht"])
def test_capability_messages_name_the_caller(call):
    with pytest.raises(nldemix.CapabilityError, match="requires a link with a .*; 'sign' has none"):
        call(_problem("sign"))
