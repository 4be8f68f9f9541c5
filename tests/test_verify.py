from __future__ import annotations

import pytest

from forcing_lab import verify
from forcing_lab.cli import main
from forcing_lab.constructions import CycleFactorization, OneFactor
from forcing_lab.errors import DomainError
from forcing_lab.families import complete_with_loops
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


def _first_zero_forcing_one_too_high(monkeypatch) -> list:
    """Make the first zero forcing number ``verify`` reads one too high;
    the list returned collects every digraph whose Z it reads."""
    real = verify.fort_cover_minimum
    calls = []

    def one_too_high_once(g, dominate):
        result = real(g, dominate)
        if dominate:
            return result
        calls.append(g)
        return result._replace(number=result.number + 1) if len(calls) == 1 else result

    monkeypatch.setattr(verify, "fort_cover_minimum", one_too_high_once)
    return calls


@pytest.mark.parametrize("suite", ["nullity-collapse", "pd-identity"])
def test_one_disagreeing_instance_fails_its_check(monkeypatch, suite):
    calls = _first_zero_forcing_one_too_high(monkeypatch)
    [result] = run_suite(suite)
    k = len(calls)
    assert k > 1 and not result.passed
    assert result.details.startswith(f"{k - 1}/{k} ")


def test_a_solver_off_by_one_fails_both_line_zf_checks(monkeypatch):
    calls = _first_zero_forcing_one_too_high(monkeypatch)
    agree, witness = run_suite("line-zf")
    assert len(calls) == 100
    assert not agree.passed and agree.details == "99/100 seeded digraphs agree"
    assert not witness.passed and witness.details == "99/100 witnesses verified"


def _cycle_factorization_run(capsys) -> tuple[CheckResult, int, str]:
    """The check, then ``verify cycle-factorization``'s exit code and stderr."""
    [result] = verify.check_cycle_factorization()
    code = main(["verify", "cycle-factorization"])
    return result, code, capsys.readouterr().err


def test_factors_that_repeat_an_arc_fail_cycle_factorization(monkeypatch, capsys):
    result, code, _ = _cycle_factorization_run(capsys)
    assert result.passed and result.details.startswith("20/20 ") and code == 0
    real = verify.cycle_factorization

    def last_factor_repeats_the_first(g):
        # still d factors, each a permutation made of arcs of g
        first, *rest = real(g).factors
        return CycleFactorization((first, *rest[:-1], first))

    monkeypatch.setattr(verify, "cycle_factorization", last_factor_repeats_the_first)
    result, code, err = _cycle_factorization_run(capsys)
    assert not result.passed and result.details.startswith("0/20 ")
    assert code == 1 and err.startswith("FAIL cycle factorization ")


# Three factors of K3+loops: the identity with the two shifts splits its
# nine arcs, and the identity with a swap and a shift does not.
IDENTITY = OneFactor((0, 1, 2))
SWAP = OneFactor((0, 2, 1))
SHIFTS = OneFactor((1, 2, 0)), OneFactor((2, 0, 1))


@pytest.mark.parametrize(
    "factors, held",
    [((IDENTITY, *SHIFTS), 20), ((IDENTITY, SWAP, SHIFTS[0]), 10)],
    ids=["split", "shared-loop"],
)
def test_cycle_factorization_reads_each_k3_factorization(
    monkeypatch, capsys, factors, held
):
    # the ten 3-regular instances become K3+loops with ``factors``; the ten
    # 2-regular ones keep their own digraph and factorization
    assert IDENTITY.arcs() & SWAP.arcs() == {(0, 0)}
    k3 = complete_with_loops(3)
    real_regular = verify.random_regular_digraph
    real_factorization = verify.cycle_factorization

    def regular(rng, n, d):
        g = real_regular(rng, n, d)
        return k3 if d == 3 else g

    def factorization(g):
        return CycleFactorization(factors) if g == k3 else real_factorization(g)

    monkeypatch.setattr(verify, "random_regular_digraph", regular)
    monkeypatch.setattr(verify, "cycle_factorization", factorization)
    result, code, err = _cycle_factorization_run(capsys)
    assert result.details.startswith(f"{held}/20 ")
    assert result.passed == (code == 0) == (held == 20)
    assert err.startswith("PASS " if held == 20 else "FAIL ")
