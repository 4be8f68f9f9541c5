from __future__ import annotations

from random import Random

import time

import pytest
from hypothesis import given, settings

from forcing_lab.corpus import random_digraph
from forcing_lab.digraph import Digraph
from forcing_lab.errors import DomainError, ResourceLimitError
from forcing_lab.families import cycle, de_bruijn, complete_with_loops
from forcing_lab.iso import are_isomorphic
from forcing_lab import lines
from forcing_lab.lines import iterated_line, line_digraph

from strategies import random_digraphs


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
@given(random_digraphs(5))
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


def test_iterate_with_too_many_arcs_is_refused():
    # order 362**2 = 131044 is inside MAX_ORDER, but its 4.7*10**7 arcs are not
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match="^arc count above the limit"):
        line_digraph(complete_with_loops(362))
    assert time.perf_counter() - start < 2


def test_deep_iterates_of_out_degree_one_are_refused_by_their_letters():
    for base, k, refused_at in [(cycle(131072), 1000, 7), (cycle(1), 10**7, 2895)]:
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError, match=rf"^walk labels of L\^{refused_at} "):
            iterated_line(base, k)
        assert time.perf_counter() - start < 5


def test_letter_limit_admits_an_iterate_at_its_exact_letter_count(monkeypatch):
    # L^j(K_2 + loops) has 2**(j + 1) labels of j + 1 letters
    letters = sum(2 ** (j + 1) * (j + 1) for j in range(1, 11))
    monkeypatch.setattr(lines, "_MAX_LETTERS", letters)
    assert iterated_line(complete_with_loops(2), 10).graph.n == 2**11
    monkeypatch.setattr(lines, "_MAX_LETTERS", letters - 1)
    with pytest.raises(ResourceLimitError, match=r"^walk labels of L\^10 pass"):
        iterated_line(complete_with_loops(2), 10)


def test_labels_are_walks():
    lab = iterated_line(complete_with_loops(2), 2)
    for (u, v) in lab.graph.arcs:
        # consecutive vertices overlap in all but one letter
        assert lab.labels[u][1:] == lab.labels[v][:-1]
    assert all(len(word) == 3 for word in lab.labels)


def test_line_name_tracks_operator():
    lab = line_digraph(de_bruijn(2, 2))
    assert lab.graph.name == "L(B(2,2))"


def test_iterated_line_of_k2_with_loops_is_de_bruijn_with_the_same_ids():
    lab = iterated_line(complete_with_loops(2), 14)
    assert lab.graph == de_bruijn(2, 15)
    for v, walk in enumerate(lab.labels):
        assert walk == tuple(int(bit) for bit in format(v, "015b"))
    for d, k in [(3, 3), (4, 2)]:
        lab = iterated_line(complete_with_loops(d), k)
        assert lab.graph == de_bruijn(d, k + 1)
        for v, walk in enumerate(lab.labels):
            assert sum(x * d ** (k - i) for i, x in enumerate(walk)) == v


def _line_by_walk_dict(g: Digraph, k: int) -> tuple[Digraph, list[tuple[int, ...]]]:
    """``L^k(g)`` from its walks: the length-``k`` walks in lexicographic
    order, one dict from walk to id, and an arc from walk ``w`` to the id
    of every ``w[1:] + (x,)``."""
    out = [sorted(g.out_neighborhood(v)) for v in range(g.n)]
    walks = [(v,) for v in range(g.n)]
    for _ in range(k):
        walks = [w + (x,) for w in walks for x in out[w[-1]]]
    if not walks:
        raise DomainError("line digraph of an arc-free digraph is empty")
    if not k:
        return g, walks
    index = {w: i for i, w in enumerate(walks)}
    arcs = [(i, index[w[1:] + (x,)]) for i, w in enumerate(walks) for x in out[w[-1]]]
    name = None if g.name is None else "L(" * k + g.name + ")" * k
    return Digraph(len(walks), arcs, name=name), walks


def test_iterated_line_matches_the_walk_dict_reference():
    rng = Random(20261019)
    arc_free = with_sink = raised = deep_past_8 = 0
    for i in range(1200):
        # Orders past 8 give out-neighborhoods whose set order is not
        # sorted; their iterates grow faster, so they get fewer arcs.
        n = rng.randint(1, 12)
        densest = 0.5 if n <= 8 else 0.2
        g = random_digraph(
            rng,
            n,
            arc_probability=0.0 if i % 20 == 0 else rng.uniform(0.05, densest),
            loop_probability=rng.uniform(0.1, 0.6) if i % 2 else 0.0,
        )
        if i % 3:
            g = Digraph(g.n, g.arcs, name=f"G{i}")
        arc_free += g.arc_count == 0
        with_sink += any(not g.out_neighborhood(v) for v in range(g.n))
        for k in range(4):
            try:
                graph, walks = _line_by_walk_dict(g, k)
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{exc}$"):
                    iterated_line(g, k)
                raised += 1
                continue
            lab = iterated_line(g, k)
            assert lab.labels == tuple(walks)
            assert lab.graph == graph
            assert lab.graph.arcs_sorted == graph.arcs_sorted
            # the stores handed over equal the public constructor's, in-tuples too
            assert lab.graph._out == graph._out
            assert lab.graph._in == graph._in
            assert all(
                type(t) is tuple and list(t) == sorted(set(t))
                for t in lab.graph._out + lab.graph._in
            )
            assert lab.graph.name == graph.name
            assert hash(lab.graph) == hash(graph)
            if k == 0:
                assert lab.graph is g
            if k == 1:
                assert line_digraph(g) == lab
            deep_past_8 += k == 3 and n > 8
    assert arc_free >= 60 and with_sink > 100 and 0 < raised
    assert deep_past_8 > 300


def test_iterated_line_matches_one_step_at_a_time():
    # L^k is L applied to L^(k-1): the same ids, arcs and name, and each
    # label is the tail's walk plus the last letter of the head's walk.
    rng = Random(7)
    raised = 0
    for i in range(120):
        g = random_digraph(
            rng,
            rng.randint(1, 12),
            arc_probability=rng.uniform(0.05, 0.3),
            loop_probability=0.2 if i % 2 else 0.0,
        )
        if i % 3:
            g = Digraph(g.n, g.arcs, name=f"G{i}")
        below = iterated_line(g, 0)
        for k in range(1, 4):
            try:
                step = line_digraph(below.graph)
            except DomainError as exc:
                with pytest.raises(DomainError, match=f"^{exc}$"):
                    iterated_line(g, k)
                raised += 1
                break
            lab = iterated_line(g, k)
            assert lab.graph == step.graph
            assert lab.graph.name == step.graph.name
            assert lab.labels == tuple(
                below.labels[u] + (below.labels[v][-1],) for u, v in step.labels
            )
            below = lab
    assert 0 < raised < 120
