from __future__ import annotations

from dataclasses import replace

import pytest

from forcing_lab import verify
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


@pytest.mark.parametrize("suite", ["nullity-collapse", "pd-identity"])
def test_a_check_left_with_no_instance_fails(monkeypatch, suite):
    monkeypatch.setattr(verify, "regular_digraphs_up_to_iso", lambda n, d: [])
    [result] = run_suite(suite)
    assert not result.passed
    assert result.details.startswith("0/0 ")


@pytest.mark.parametrize("suite", ["nullity-collapse", "pd-identity"])
def test_one_disagreeing_instance_fails_its_check(monkeypatch, suite):
    real = verify.min_zero_forcing
    calls = []

    def one_too_high_once(g):
        result = real(g)
        calls.append(g)
        return replace(result, number=result.number + 1) if len(calls) == 1 else result

    monkeypatch.setattr(verify, "min_zero_forcing", one_too_high_once)
    [result] = run_suite(suite)
    k = len(calls)
    assert k > 1 and not result.passed
    assert result.details.startswith(f"{k - 1}/{k} ")


def test_a_solver_off_by_one_fails_both_line_zf_checks(monkeypatch):
    real = verify.min_zero_forcing
    calls = []

    def one_too_high_once(g):
        result = real(g)
        calls.append(g)
        return replace(result, number=result.number + 1) if len(calls) == 1 else result

    monkeypatch.setattr(verify, "min_zero_forcing", one_too_high_once)
    agree, witness = run_suite("line-zf")
    assert len(calls) == 100
    assert not agree.passed and agree.details == "99/100 seeded digraphs agree"
    assert not witness.passed and witness.details == "99/100 witnesses verified"
