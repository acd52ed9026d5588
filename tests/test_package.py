"""The package's public surface."""

import dataclasses
import inspect

import nldemix


def test_every_exported_name_resolves():
    missing = [name for name in nldemix.__all__ if not hasattr(nldemix, name)]
    assert missing == []
    assert len(set(nldemix.__all__)) == len(nldemix.__all__)


def test_deleted_aliases_and_bundles_stay_gone():
    # Each only renamed or bundled names that remain: l1/l2 on LinkFunction,
    # mutual_coherence and cross_coherence, write_csv on an open file.
    for name in ("derivative_bounds", "coherence_report", "CoherenceReport", "export_csv"):
        assert name not in nldemix.__all__
        assert not hasattr(nldemix, name)


def test_links_take_no_working_interval():
    # l1, l2 hold on the fixed interval [-20, 20]; no solver reads them, so a
    # radius setting changed no result.
    assert list(inspect.signature(nldemix.make_link).parameters) == ["name"]
    assert "radius" not in {f.name for f in dataclasses.fields(nldemix.LinkFunction)}
