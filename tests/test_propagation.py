from __future__ import annotations

import dataclasses
from collections import defaultdict
from random import Random

import pytest
from hypothesis import given, settings

from forcing_lab.digraph import Digraph
from forcing_lab.errors import DomainError
from forcing_lab.families import cycle, de_bruijn
from forcing_lab.propagation import (
    MODE_POWER_DOMINATION,
    PropagationTrace,
    is_power_dominating_set,
    is_zero_forcing_set,
    pd_closure,
    zf_closure,
)

from oracles import naive_rounds
from strategies import digraph_with_set


def _replay(g: Digraph, trace: PropagationTrace) -> None:
    """Re-validate every certificate entry against the color rule, and
    the rounds and final set against the naive rescan."""
    expected_rounds, expected_final = naive_rounds(
        g, set(trace.initial), trace.mode == MODE_POWER_DOMINATION
    )
    colored = set(trace.initial)
    loop_rule = g.has_loops
    by_round: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for u, v, r in trace.certificate:
        by_round[r].append((u, v))
    assert set(by_round) <= set(range(1, len(expected_rounds) + 1))
    for r, block in enumerate(expected_rounds, start=1):
        snapshot = set(colored)
        newly = set()
        for u, v in by_round.get(r, []):
            assert v not in snapshot and v not in newly
            if trace.mode == MODE_POWER_DOMINATION and r == 1:
                dominators = [
                    s for s in trace.initial if v in g.out_neighborhood(s)
                ]
                assert dominators and u == min(dominators)
            else:
                valid = [
                    x
                    for x in range(g.n)
                    if (loop_rule or x in snapshot)
                    and g.out_neighborhood(x) - snapshot == {v}
                ]
                assert valid and u == min(valid)
            newly.add(v)
        assert newly == block
        colored |= newly
    assert colored == expected_final
    assert [set(block) for block in trace.rounds] == expected_rounds
    assert trace.final == expected_final
    assert trace.covers_all == (len(colored) == g.n)


def test_frozen_de_bruijn_trace():
    g = de_bruijn(2, 2)
    trace = zf_closure(g, {1, 2})
    assert trace.initial == frozenset({1, 2})
    assert [sorted(block) for block in trace.rounds] == [[0, 3]]
    assert trace.certificate == ((0, 0, 1), (1, 3, 1))
    assert trace.covers_all


def test_loop_free_forcer_must_be_colored():
    path = Digraph(3, [(0, 1), (1, 2)])
    assert is_zero_forcing_set(path, {0})
    trace = zf_closure(path, {1})
    assert not trace.covers_all
    assert trace.final == frozenset({1, 2})


def test_loop_rule_lets_uncolored_vertices_force():
    g = Digraph(2, [(0, 1), (1, 1)])
    trace = zf_closure(g, {0})
    assert trace.covers_all
    _replay(g, trace)


def test_loop_rule_is_global():
    # the loop sits far from the forcing site but still switches the rule:
    # vertex 3 is uncolored yet forces 0 (3 itself has in-degree 0, so it
    # can never be forced and the closure stops there)
    g = Digraph(4, [(0, 1), (1, 2), (2, 2), (3, 0)])
    assert is_zero_forcing_set(g, {0, 3})
    trace = zf_closure(g, {1, 2})
    assert trace.certificate == ((3, 0, 1),)
    assert trace.final == frozenset({0, 1, 2})
    _replay(g, trace)


def test_closure_of_full_set_has_no_rounds():
    g = cycle(4)
    trace = zf_closure(g, range(4))
    assert trace.rounds == ()
    assert trace.covers_all


def test_cycle_forces_from_single_vertex():
    trace = zf_closure(cycle(5), {0})
    assert trace.covers_all
    assert len(trace.rounds) == 4
    _replay(cycle(5), trace)


def test_pd_records_domination_round():
    star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
    trace = pd_closure(star, {0})
    assert trace.mode == MODE_POWER_DOMINATION
    assert [sorted(block) for block in trace.rounds] == [[1, 2, 3]]
    assert trace.certificate == ((0, 1, 1), (0, 2, 1), (0, 3, 1))
    assert trace.covers_all


def test_pd_domination_then_forcing():
    g = cycle(3)
    trace = pd_closure(g, {0})
    assert [sorted(block) for block in trace.rounds] == [[1], [2]]
    _replay(g, trace)


def test_pd_closure_of_full_set_has_no_rounds():
    trace = pd_closure(cycle(3), {0, 1, 2})
    assert trace.rounds == ()


def test_pd_keeps_an_empty_domination_round_before_forcing():
    g = Digraph(2, [(0, 0), (1, 1)])
    trace = pd_closure(g, {0})
    assert [sorted(block) for block in trace.rounds] == [[], [1]]
    assert trace.certificate == ((1, 1, 2),)
    assert trace.covers_all
    _replay(g, trace)


def test_pd_with_nothing_colored_has_no_rounds():
    g = Digraph(2, [(0, 0)])
    trace = pd_closure(g, {0})
    assert trace.rounds == ()
    assert trace.certificate == ()
    assert not trace.covers_all
    _replay(g, trace)


def test_trace_stores_only_its_certificate():
    names = [field.name for field in dataclasses.fields(PropagationTrace)]
    assert names == ["mode", "initial", "certificate", "covers_all"]
    trace = zf_closure(cycle(4), {0})
    assert trace.rounds == (frozenset({1}), frozenset({2}), frozenset({3}))
    assert trace.final == frozenset(range(4))


def test_empty_start_set_rejected():
    g = cycle(3)
    with pytest.raises(DomainError):
        zf_closure(g, [])
    with pytest.raises(DomainError):
        pd_closure(g, [])


def _relabeled_chain(n: int, bidirected: bool) -> tuple[Digraph, list[int]]:
    """A relabeled cycle, or a relabeled bidirected path, together with
    its vertices in chain order."""
    perm = list(range(n))
    Random(n).shuffle(perm)
    steps = list(zip(perm, perm[1:]))
    if bidirected:
        steps += [(v, u) for u, v in steps]
    else:
        steps.append((perm[-1], perm[0]))
    return Digraph(n, steps), perm


@pytest.mark.parametrize("bidirected", [False, True])
def test_long_chain_closure_certificate(bidirected):
    g, perm = _relabeled_chain(10_000, bidirected)
    chain = tuple((perm[r - 1], perm[r], r) for r in range(1, g.n))
    for closure in (zf_closure, pd_closure):
        trace = closure(g, {perm[0]})
        assert trace.covers_all
        assert len(trace.rounds) == g.n - 1
        assert trace.certificate == chain


def test_bad_vertex_rejected():
    with pytest.raises(DomainError):
        zf_closure(cycle(3), {0, 7})


@settings(max_examples=100, deadline=None)
@given(digraph_with_set(6))
def test_closure_matches_naive_oracle(pair):
    g, s = pair
    _, final = naive_rounds(g, set(s), dominate=False)
    assert zf_closure(g, s).final == final


@settings(max_examples=100, deadline=None)
@given(digraph_with_set(6))
def test_certificates_replay(pair):
    g, s = pair
    _replay(g, zf_closure(g, s))
    _replay(g, pd_closure(g, s))


@settings(max_examples=100, deadline=None)
@given(digraph_with_set(6))
def test_pd_equals_zf_of_closed_neighborhood(pair):
    g, s = pair
    closed = g.out_neighborhood_of_set(s)
    assert is_power_dominating_set(g, s) == is_zero_forcing_set(g, closed)
    assert set(pd_closure(g, s).final) == set(
        zf_closure(g, closed).final
    ) | set(s)


@settings(max_examples=60, deadline=None)
@given(digraph_with_set(6))
def test_forcing_sets_are_monotone(pair):
    g, s = pair
    if not is_zero_forcing_set(g, s):
        return
    bigger = set(s) | {min(range(g.n))}
    assert is_zero_forcing_set(g, bigger)
