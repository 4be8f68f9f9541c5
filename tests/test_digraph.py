from __future__ import annotations

from random import Random

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab.digraph import Digraph
from forcing_lab.errors import DomainError


def _nx_of(g: Digraph) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.arcs)
    return h


def _random_digraphs() -> st.SearchStrategy[Digraph]:
    def build(n: int, picks: list[bool]) -> Digraph:
        pairs = [(u, v) for u in range(n) for v in range(n)]
        arcs = [pair for pair, keep in zip(pairs, picks) if keep]
        return Digraph(n, arcs)

    return st.integers(min_value=1, max_value=6).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.booleans(), min_size=n * n, max_size=n * n),
        )
    )


def test_rejects_bad_order():
    with pytest.raises(DomainError):
        Digraph(-1, [])
    with pytest.raises(DomainError):
        Digraph(True, [])


def test_rejects_out_of_range_arc():
    with pytest.raises(DomainError):
        Digraph(2, [(0, 2)])
    with pytest.raises(DomainError):
        Digraph(2, [(-1, 0)])


def test_rejects_duplicate_arc():
    with pytest.raises(DomainError):
        Digraph(2, [(0, 1), (0, 1)])


def test_rejects_bool_vertex():
    with pytest.raises(DomainError):
        Digraph(2, [(True, 0)])


@pytest.mark.parametrize(
    ("n", "arcs", "message"),
    [
        (2, [(0, 1), [0, 1, 2], (0, 1)], r"arc must be a pair, got \[0, 1, 2\]"),
        (2, [(0, 1), 0], r"arc must be a pair, got 0"),
        (2, [None], r"arc must be a pair, got None"),
        (2, [(1, 0), "01"], r"arc '01' has endpoint outside 0\.\.1"),
        (2, [(0, 1), (1, True)], r"arc \(1, True\) has endpoint outside 0\.\.1"),
        (3, [(0.0, 1)], r"arc \(0\.0, 1\) has endpoint outside 0\.\.2"),
        # the first offending arc is reported, so an out-of-range arc before
        # a duplicate wins over it, and a duplicate before a bad arc wins too
        (2, [(0, 1), (0, 2), (0, 1)], r"arc \(0, 2\) has endpoint outside 0\.\.1"),
        (2, [(0, 1), [0, 1], (0, 5)], r"duplicate arc \(0, 1\)"),
        (3, [(2, 2), (2, 2), None], r"duplicate arc \(2, 2\)"),
    ],
)
def test_constructor_reports_the_first_bad_arc(n, arcs, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        Digraph(n, arcs)


def test_constructor_state_from_one_pass():
    g = Digraph(3, iter([(2, 0), (0, 1), (1, 1), (0, 2)]))
    assert g.arcs == frozenset({(0, 1), (0, 2), (1, 1), (2, 0)})
    assert [g.out_neighborhood(v) for v in range(3)] == [{1, 2}, {1}, {0}]
    assert [g.in_neighborhood(v) for v in range(3)] == [{2}, {0, 1}, {0}]
    assert hash(g) == hash((3, g.arcs))


def test_rejects_empty_vertex_set():
    with pytest.raises(DomainError):
        Digraph(0, [])


def test_neighborhoods():
    g = Digraph(4, [(0, 1), (0, 2), (1, 2), (3, 3)])
    assert g.out_neighborhood(0) == frozenset({1, 2})
    assert g.in_neighborhood(2) == frozenset({0, 1})
    assert g.out_neighborhood(3) == frozenset({3})
    assert g.out_neighborhood_of_set({0, 1}) == frozenset({0, 1, 2})


def test_neighborhood_rejects_bad_vertex():
    g = Digraph(2, [(0, 1)])
    with pytest.raises(DomainError):
        g.out_neighborhood(2)
    with pytest.raises(DomainError):
        g.out_neighborhood_of_set({0, 5})


def test_degree_summary():
    g = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    degrees = g.degrees()
    assert degrees.out_degrees == (2, 1, 0)
    assert degrees.in_degrees == (0, 1, 2)
    assert degrees.max_out == 2 and degrees.min_out == 0
    assert degrees.max_in == 2 and degrees.min_in == 0


def test_is_regular():
    loopy = Digraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert loopy.is_regular() == 2
    assert Digraph(3, [(0, 1), (1, 2), (2, 0)]).is_regular() == 1
    assert Digraph(3, [(0, 1), (0, 2), (1, 2)]).is_regular() is None


def test_has_loops_and_sorted_arcs():
    g = Digraph(3, [(2, 0), (0, 1), (1, 1)])
    assert g.has_loops
    assert g.arcs_sorted == ((0, 1), (1, 1), (2, 0))
    assert not Digraph(2, [(0, 1)]).has_loops


def test_name_not_part_of_equality():
    a = Digraph(2, [(0, 1)], name="a")
    b = Digraph(2, [(0, 1)], name="b")
    assert a == b and hash(a) == hash(b)


def test_weak_components_against_networkx():
    g = Digraph(7, [(0, 1), (1, 2), (3, 4), (5, 5)])
    expected = sorted(
        (sorted(block) for block in nx.weakly_connected_components(_nx_of(g))),
        key=min,
    )
    assert [sorted(block) for block in g.weak_components()] == expected
    assert not g.is_weakly_connected()
    assert Digraph(2, [(0, 1)]).is_weakly_connected()


@settings(max_examples=60, deadline=None)
@given(_random_digraphs())
def test_strong_components_match_networkx(g: Digraph):
    ours = {frozenset(block) for block in g.strong_components().components}
    theirs = {frozenset(block) for block in nx.strongly_connected_components(_nx_of(g))}
    assert ours == theirs


@settings(max_examples=60, deadline=None)
@given(_random_digraphs())
def test_strong_components_reverse_topological(g: Digraph):
    info = g.strong_components()
    for u, v in g.arcs:
        # arcs run from later-listed components to earlier-listed ones
        assert info.component_of[u] >= info.component_of[v]


@settings(max_examples=40, deadline=None)
@given(_random_digraphs())
def test_condensation_is_acyclic(g: Digraph):
    cond = g.strong_components().condensation
    assert nx.is_directed_acyclic_graph(_nx_of(cond))
    assert not cond.has_loops


def test_is_strongly_connected():
    assert Digraph(3, [(0, 1), (1, 2), (2, 0)]).is_strongly_connected()
    assert not Digraph(3, [(0, 1), (1, 2)]).is_strongly_connected()


def test_divergence_path_is_stable():
    assert not Digraph(3, [(0, 1), (1, 2)]).is_L_divergent()


def test_divergence_single_cycle_is_stable():
    assert not Digraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]).is_L_divergent()
    assert not Digraph(1, [(0, 0)]).is_L_divergent()


def test_divergence_component_with_extra_arcs():
    # two cycles sharing vertex 0: the strong component has 4 arcs on 3 vertices
    g = Digraph(3, [(0, 1), (1, 0), (0, 2), (2, 0)])
    assert g.is_L_divergent()


def test_divergence_two_joined_cycles():
    g = Digraph(6, [(0, 1), (1, 0), (2, 3), (3, 2), (1, 2)])
    assert g.is_L_divergent()


def test_divergence_two_unjoined_cycles():
    g = Digraph(4, [(0, 1), (1, 0), (2, 3), (3, 2)])
    assert not g.is_L_divergent()


def test_divergence_loop_feeding_loop():
    g = Digraph(2, [(0, 0), (0, 1), (1, 1)])
    assert g.is_L_divergent()


def _walk_counts(n: int, arcs: list[tuple[int, int]], longest: int) -> list[int]:
    """The number of walks of each length 0..longest, the orders of the
    iterated line digraphs, counted from the arc list alone."""
    starting = [1] * n  # walks of the current length starting at each vertex
    counts = [n]
    for _ in range(longest):
        longer = [0] * n
        for u, v in arcs:
            longer[u] += starting[v]
        starting = longer
        counts.append(sum(starting))
    return counts


def test_divergence_against_walk_counts():
    # The iterates of a digraph of order n <= 8 either grow without bound or
    # are constant from length n on; joined cycles already grow linearly.
    rng = Random(2024)
    divergent = 0
    for t in range(2000):
        n = rng.randint(1, 8)
        p = rng.choice([0.1, 0.2, 0.3, 0.45])
        loops = t % 2 == 0
        arcs = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if (u != v or loops) and rng.random() < p
        ]
        g = Digraph(n, arcs)
        counts = _walk_counts(n, arcs, 120)
        expected = counts[120] > max(counts[:60])
        assert g.is_L_divergent() == expected, sorted(arcs)
        divergent += expected
    assert 300 < divergent < 1700
