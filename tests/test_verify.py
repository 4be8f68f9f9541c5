from __future__ import annotations

import pytest

from forcing_lab.errors import DomainError
from forcing_lab.verify import SUITES, CheckResult, run_suite


def test_registry_names():
    assert sorted(SUITES) == [
        "cycle-factorization",
        "de-bruijn",
        "gen-families",
        "gimbert",
        "kautz",
        "line-zf",
        "nullity-collapse",
        "pd-identity",
        "pd-zf-bridge",
        "sandwich",
        "wrapped-butterfly",
    ]


def test_unknown_suite_rejected():
    with pytest.raises(DomainError):
        run_suite("everything-else")


def test_families_composite_aggregates_four_suites():
    results = run_suite("families")
    assert len(results) == 18
    assert all(isinstance(r, CheckResult) for r in results)
    assert all(r.passed for r in results)


def test_checks_carry_labels_and_details():
    for result in run_suite("de-bruijn"):
        assert result.label and isinstance(result.details, str)

