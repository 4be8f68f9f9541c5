from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab.digraph import Digraph
from forcing_lab.errors import DomainError
from forcing_lab.families import cycle, de_bruijn, complete_with_loops
from forcing_lab.iso import are_isomorphic
from forcing_lab.lines import LineLabeledDigraph, iterated_line, line_digraph


def _random_digraphs() -> st.SearchStrategy[Digraph]:
    def build(n: int, picks: list[bool]) -> Digraph:
        pairs = [(u, v) for u in range(n) for v in range(n)]
        arcs = [pair for pair, keep in zip(pairs, picks) if keep]
        return Digraph(n, arcs)

    return st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.booleans(), min_size=n * n, max_size=n * n),
        )
    )


def test_line_vertices_are_sorted_arcs():
    g = Digraph(3, [(2, 0), (0, 1)])
    lab = line_digraph(g)
    assert lab.labels == ((0, 1), (2, 0))
    assert lab.graph.n == 2
    # the only composition is 2->0 followed by 0->1
    assert lab.graph.arcs == frozenset({(1, 0)})


def test_line_of_de_bruijn_is_next_de_bruijn():
    lab = line_digraph(de_bruijn(2, 2))
    assert are_isomorphic(lab.graph, de_bruijn(2, 3)) is not None


def test_line_of_cycle_is_cycle():
    lab = line_digraph(cycle(4))
    assert are_isomorphic(lab.graph, cycle(4)) is not None


def test_line_arc_count_formula():
    # arcs of L(G) biject with length-2 walks of G
    g = Digraph(4, [(0, 1), (1, 2), (1, 3), (2, 1), (3, 3)])
    degrees = g.degrees()
    expected = sum(
        degrees.in_degrees[v] * degrees.out_degrees[v] for v in range(g.n)
    )
    assert line_digraph(g).graph.arc_count == expected


@settings(max_examples=50, deadline=None)
@given(_random_digraphs())
def test_line_arc_count_formula_random(g: Digraph):
    if g.arc_count == 0:
        return
    degrees = g.degrees()
    expected = sum(
        degrees.in_degrees[v] * degrees.out_degrees[v] for v in range(g.n)
    )
    assert line_digraph(g).graph.arc_count == expected


def test_line_of_arcless_digraph_rejected():
    with pytest.raises(DomainError):
        line_digraph(Digraph(3, []))


def test_iterated_line_depths():
    g = complete_with_loops(2)
    depth0 = iterated_line(g, 0)
    assert depth0.graph == g
    assert depth0.labels == ((0,), (1,))
    depth2 = iterated_line(g, 2)
    assert depth2.graph.n == 8
    assert are_isomorphic(depth2.graph, de_bruijn(2, 3)) is not None


def test_iterated_line_rejects_negative_depth():
    with pytest.raises(DomainError):
        iterated_line(complete_with_loops(2), -1)


def test_labels_are_walks():
    lab = iterated_line(complete_with_loops(2), 2)
    for (u, v) in lab.graph.arcs:
        # consecutive vertices overlap in all but one letter
        assert lab.labels[u][1:] == lab.labels[v][:-1]
    assert lab.depth == 2
    assert all(len(word) == 3 for word in lab.labels)


def test_label_strings_and_lookup():
    lab = line_digraph(de_bruijn(2, 2))
    strings = lab.label_strings()
    assert strings[0] == "0-0"


def test_labeled_digraph_validation():
    g = Digraph(2, [(0, 1)])
    with pytest.raises(DomainError):
        LineLabeledDigraph(g, ((0,),), 2)  # wrong label count
    with pytest.raises(DomainError):
        LineLabeledDigraph(g, ((0,), (0,)), 2)  # duplicate labels
    with pytest.raises(DomainError):
        LineLabeledDigraph(g, ((0,), (5,)), 2)  # letter outside base range


def test_line_name_tracks_operator():
    lab = line_digraph(de_bruijn(2, 2))
    assert lab.graph.name == "L(B(2,2))"
