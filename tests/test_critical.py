from __future__ import annotations

from itertools import combinations
from random import Random

import pytest
from hypothesis import given, settings

from forcing_lab.critical import (
    in_twin_classes,
    is_critical,
    is_strongly_critical,
    twin_forcing_lower_bound,
)
from forcing_lab.corpus import random_digraph, random_digraph_min_degrees
from forcing_lab.digraph import Digraph
from forcing_lab.errors import DomainError
from forcing_lab.families import (
    complete_with_loops,
    complete_without_loops,
    de_bruijn,
    kautz,
)
from forcing_lab.lines import iterated_line, line_digraph
from forcing_lab.solvers import min_zero_forcing

from strategies import digraph_with_set


def _naive_critical(g: Digraph, w: frozenset[int]) -> bool:
    return all(
        len(g.out_neighborhood(v) & w) != 1 for v in range(g.n) if v not in w
    )


def _naive_strongly_critical(g: Digraph, w: frozenset[int]) -> bool:
    return all(len(g.out_neighborhood(v) & w) != 1 for v in range(g.n))


def test_critical_but_not_strongly():
    g = complete_without_loops(3)
    assert is_critical(g, {0, 1})
    assert not is_strongly_critical(g, {0, 1})


def test_full_vertex_set_is_critical():
    g = Digraph(4, [(0, 1), (1, 2), (2, 3)])
    assert is_critical(g, range(4))


def test_empty_set_rejected():
    g = complete_without_loops(3)
    with pytest.raises(DomainError):
        is_critical(g, [])
    with pytest.raises(DomainError):
        is_strongly_critical(g, [])


@settings(max_examples=80, deadline=None)
@given(digraph_with_set(6))
def test_predicates_match_definition(pair):
    g, w = pair
    assert is_critical(g, w) == _naive_critical(g, w)
    assert is_strongly_critical(g, w) == _naive_strongly_critical(g, w)


def test_line_digraph_out_neighborhood_pairs_are_strongly_critical():
    rng = Random(404)
    for _ in range(5):
        base = random_digraph_min_degrees(rng, 5, min_out=2, min_in=1)
        lg = line_digraph(base).graph
        for v in range(lg.n):
            for pair in combinations(sorted(lg.out_neighborhood(v)), 2):
                assert is_strongly_critical(lg, frozenset(pair))


def test_in_twin_classes_on_complete_line_digraph():
    lg = line_digraph(complete_without_loops(3)).graph
    assert in_twin_classes(lg) == [
        frozenset({0, 1}),
        frozenset({2, 3}),
        frozenset({4, 5}),
    ]


def test_twin_bound_on_de_bruijn():
    assert twin_forcing_lower_bound(de_bruijn(2, 2)) == 2
    assert twin_forcing_lower_bound(kautz(3, 3)) == 24


def _corpus(seed: int, count: int) -> list[Digraph]:
    rng = Random(seed)
    return [
        random_digraph(
            rng,
            1 + i % 7,
            arc_probability=rng.choice([0.2, 0.35, 0.5]),
            loop_probability=0.3 if i % 2 else 0.0,
        )
        for i in range(count)
    ]


def test_lower_bounds_never_exceed_brute_force():
    positive = tight = 0
    for g in _corpus(1105, 300):
        z = min_zero_forcing(g).number
        bound = twin_forcing_lower_bound(g)
        assert bound <= z
        positive += bound > 0
        tight += bound == z
    assert positive > 40 and tight > 15


def test_twin_class_pairs_are_strongly_critical():
    rng = Random(404)
    graphs = _corpus(2210, 300) + [
        line_digraph(random_digraph_min_degrees(rng, 5, min_out=2, min_in=1)).graph
        for _ in range(5)
    ]
    pairs = 0
    for g in graphs:
        groups: dict[frozenset[int], list[int]] = {}
        for v in range(g.n):
            if g.in_neighborhood(v):
                groups.setdefault(g.in_neighborhood(v), []).append(v)
        expected = [frozenset(c) for c in groups.values() if len(c) > 1]
        classes = in_twin_classes(g)
        assert classes == expected
        for c in classes:
            for pair in combinations(sorted(c), 2):
                assert is_strongly_critical(g, pair)
                pairs += 1
    assert pairs > 60


def test_twin_bound_equals_arcs_minus_vertices_on_line_digraphs():
    rng = Random(77)
    for i in range(40):
        base = random_digraph_min_degrees(
            rng,
            2 + i % 5,
            min_out=1,
            min_in=1,
            extra_arcs=i % 4,
            allow_loops=i % 2 == 0,
        )
        lg = line_digraph(base).graph
        assert twin_forcing_lower_bound(lg) == base.arc_count - base.n


def test_twin_bound_at_order_32768():
    g = iterated_line(complete_with_loops(2), 14).graph
    assert g.n == 32768
    classes = in_twin_classes(g)
    assert twin_forcing_lower_bound(g) == 16384
    covered: set[int] = set()
    for c in classes:
        members = sorted(c)
        into = set(g.in_neighborhood(members[0]))
        assert into
        assert all(set(g.in_neighborhood(v)) == into for v in members)
        assert not covered & set(members)
        covered |= set(members)
    assert len(classes) == 16384 and len(covered) == 32768
