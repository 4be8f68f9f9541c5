from __future__ import annotations

import itertools
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from forcing_lab import iso
from forcing_lab.corpus import random_regular_digraph
from forcing_lab.digraph import Digraph
from forcing_lab.errors import ResourceLimitError
from forcing_lab.families import (
    complete_with_loops,
    cycle,
    de_bruijn,
    gen_de_bruijn,
    gen_kautz,
    kautz,
    wrapped_butterfly,
)
from forcing_lab.iso import are_isomorphic
from forcing_lab.lines import iterated_line, line_digraph

from strategies import random_digraphs


def _apply(g: Digraph, phi: list[int]) -> Digraph:
    return Digraph(g.n, [(phi[u], phi[v]) for u, v in g.arcs])


def _is_valid_mapping(g: Digraph, h: Digraph, phi: tuple[int, ...]) -> bool:
    if sorted(phi) != list(range(g.n)):
        return False
    return {(phi[u], phi[v]) for u, v in g.arcs} == h.arcs


def _naive_refine(g: Digraph, h: Digraph) -> tuple[list[int], list[int]] | None:
    """Round-by-round joint color refinement, kept as the oracle for the
    splitter refinement: every round re-signs every vertex by its color
    and the sorted colors of its out- and in-neighbors, and the rounds
    stop when the number of colors stays put.  None when the color
    histograms of the two sides ever differ."""

    def signatures(d: Digraph, colors: list[int]) -> list[tuple]:
        return [
            (
                colors[v],
                tuple(sorted(colors[w] for w in d._out[v])),
                tuple(sorted(colors[w] for w in d._in[v])),
            )
            for v in range(d.n)
        ]

    sig_g = [(len(g._out[v]), len(g._in[v]), v in g._out[v]) for v in range(g.n)]
    sig_h = [(len(h._out[v]), len(h._in[v]), v in h._out[v]) for v in range(h.n)]
    colors_g: list[int] = []
    for _ in range(g.n + 1):
        palette: dict[tuple, int] = {}
        new_g = [palette.setdefault(s, len(palette)) for s in sig_g]
        new_h = [palette.get(s, -1) for s in sig_h]
        if sorted(new_g) != sorted(new_h):
            return None
        if colors_g and len(set(new_g)) == len(set(colors_g)):
            break
        colors_g, colors_h = new_g, new_h
        sig_g, sig_h = signatures(g, colors_g), signatures(h, colors_h)
    return new_g, new_h


def _same_refinement(g: Digraph, h: Digraph) -> bool:
    """Asserts that the splitter refinement and the round-based oracle
    give the same verdict and, up to renaming the classes, the same
    partition of both sides; True when they refute the pair."""

    def classes(refined: tuple[list[int], list[int]]) -> list[int]:
        renamed: dict[int, int] = {}
        return [renamed.setdefault(c, len(renamed)) for c in refined[0] + refined[1]]

    expected, got = _naive_refine(g, h), iso._refine_colors(g, h)
    assert (got is None) == (expected is None)
    if got is None:
        return True
    assert classes(got) == classes(expected)
    return False


def test_identity_mapping_is_lex_least():
    g = cycle(5)
    assert are_isomorphic(g, g) == (0, 1, 2, 3, 4)


def test_relabelled_digraph_recovered():
    rng = Random(7)
    g = de_bruijn(2, 3)
    for _ in range(10):
        phi = list(range(g.n))
        rng.shuffle(phi)
        h = _apply(g, phi)
        found = are_isomorphic(g, h)
        assert found is not None
        assert _is_valid_mapping(g, h, found)


def test_lex_least_against_all_permutations():
    rng = Random(31)
    found = refuted = 0
    for i in range(400):
        n = rng.randint(1, 6)
        loops = i % 2 == 0
        density = rng.choice([0.2, 0.4, 0.6])
        pairs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
        g = Digraph(n, [p for p in pairs if rng.random() < density])
        phi = list(range(n))
        rng.shuffle(phi)
        arcs = {(phi[u], phi[v]) for u, v in g.arcs}
        if i % 4 >= 2 and arcs and len(arcs) < len(pairs):
            # Move one arc: same order and arc count, often not isomorphic.
            arcs.remove(rng.choice(sorted(arcs)))
            arcs.add(rng.choice([p for p in pairs if p not in arcs]))
        h = Digraph(n, arcs)
        expected = next(
            (p for p in itertools.permutations(range(n)) if _is_valid_mapping(g, h, p)),
            None,
        )
        assert are_isomorphic(g, h) == expected
        found += expected is not None
        refuted += expected is None
    assert found > 100 and refuted > 50


def test_refinement_matches_the_round_based_oracle():
    # Relabellings, one-arc moves and head swaps (which keep every degree)
    # at orders 1-12, with and without loops.  A refuted pair whose
    # (out-degree, in-degree, loop) histograms agree passes the first
    # check, so the refinement refutes it mid-way.
    rng = Random(23)
    refuted_mid_way = 0
    for i in range(1200):
        n = rng.randint(1, 12)
        loops = i % 2 == 0
        density = rng.choice([0.1, 0.2, 0.3, 0.5, 0.7])
        pairs = [(u, v) for u in range(n) for v in range(n) if loops or u != v]
        g = Digraph(n, [p for p in pairs if rng.random() < density])
        phi = list(range(n))
        rng.shuffle(phi)
        arcs = {(phi[u], phi[v]) for u, v in g.arcs}
        if i % 4 == 2 and arcs and len(arcs) < len(pairs):
            arcs.remove(rng.choice(sorted(arcs)))
            arcs.add(rng.choice([p for p in pairs if p not in arcs]))
        elif i % 4 == 3 and len(arcs) >= 2:
            (a, b), (c, d) = rng.sample(sorted(arcs), 2)
            if (a, d) in pairs and (c, b) in pairs and not {(a, d), (c, b)} & arcs:
                arcs -= {(a, b), (c, d)}
                arcs |= {(a, d), (c, b)}
        h = Digraph(n, arcs)
        refuted = _same_refinement(g, h)
        degrees = [
            sorted((len(d._out[v]), len(d._in[v]), v in d._out[v]) for v in range(n))
            for d in (g, h)
        ]
        refuted_mid_way += refuted and degrees[0] == degrees[1]
    assert refuted_mid_way >= 20


def test_refinement_matches_the_oracle_on_relabelled_families():
    rng = Random(29)
    sizes = [(2, 600), (3, 400), (2, 97), (4, 100)]
    family = [de_bruijn(2, k) for k in range(1, 10)]
    family += [kautz(3, k) for k in range(1, 6)]
    family += [gen_de_bruijn(d, n) for d, n in sizes]
    family += [gen_kautz(d, n) for d, n in sizes]
    family += [wrapped_butterfly(d, n) for d, n in [(2, 3), (2, 6), (3, 3), (3, 4)]]
    for g in family:
        for _ in range(2):
            phi = list(range(g.n))
            rng.shuffle(phi)
            assert not _same_refinement(g, _apply(g, phi))
    # generalised de Bruijn and Kautz digraphs of one order and degree
    for d, n in sizes:
        phi = list(range(n))
        rng.shuffle(phi)
        assert _same_refinement(gen_de_bruijn(d, n), _apply(gen_kautz(d, n), phi))


def test_relabellings_found_at_orders_3000_and_4096():
    rng = Random(3)
    for g in (cycle(3000), iterated_line(complete_with_loops(2), 11).graph):
        phi = list(range(g.n))
        rng.shuffle(phi)
        h = _apply(g, phi)
        found = are_isomorphic(g, h)
        assert found is not None
        assert _is_valid_mapping(g, h, found)


def test_dense_relabellings_searched_through_complements():
    # Complements of random 3-regular digraphs: 870 of 900 ordered pairs
    # are arcs, both sides relabelled.
    for seed in (1, 7):
        rng = Random(seed)
        for _ in range(20):
            sparse = random_regular_digraph(rng, 30, 3)
            g = Digraph(30, [(u, v) for u in range(30) for v in range(30)
                             if (u, v) not in sparse.arcs])
            phi, psi = list(range(30)), list(range(30))
            rng.shuffle(phi)
            rng.shuffle(psi)
            a, b = _apply(g, phi), _apply(g, psi)
            known = tuple(psi[phi.index(u)] for u in range(30))
            found = are_isomorphic(a, b)
            assert found is not None and found <= known
            assert _is_valid_mapping(a, b, found)


def test_order_mismatch():
    assert are_isomorphic(cycle(3), cycle(4)) is None


def test_arc_count_mismatch():
    assert are_isomorphic(Digraph(3, [(0, 1)]), Digraph(3, [(0, 1), (1, 2)])) is None


def test_same_degrees_not_isomorphic():
    # C6 versus two triangles: both 1-regular
    c6 = cycle(6)
    two_triangles = Digraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert are_isomorphic(c6, two_triangles) is None


def test_loop_moves_with_the_mapping():
    a = Digraph(2, [(0, 0), (0, 1)])
    b = Digraph(2, [(1, 0), (1, 1)])
    assert are_isomorphic(a, b) == (1, 0)
    # same degree sequences up to order, but the loop sits elsewhere
    c = Digraph(2, [(0, 1), (1, 1)])
    assert are_isomorphic(a, c) is None


def test_line_digraph_iso_de_bruijn():
    found = are_isomorphic(line_digraph(de_bruijn(2, 2)).graph, de_bruijn(2, 3))
    assert found is not None


def test_medium_kautz_instance():
    g = kautz(3, 3)
    h = _apply(g, [(7 * v + 3) % g.n for v in range(g.n)])
    found = are_isomorphic(g, h)
    assert found is not None
    assert _is_valid_mapping(g, h, found)


@settings(max_examples=40, deadline=None)
@given(random_digraphs(6), st.randoms(use_true_random=False))
def test_random_relabelling_found(g: Digraph, rng):
    phi = list(range(g.n))
    rng.shuffle(phi)
    h = _apply(g, phi)
    found = are_isomorphic(g, h)
    assert found is not None
    assert _is_valid_mapping(g, h, found)


@settings(max_examples=40, deadline=None)
@given(random_digraphs(6))
def test_arc_flip_breaks_isomorphism_or_not_reported_wrongly(g: Digraph):
    # removing one arc from a digraph with arcs can never stay isomorphic
    if g.arc_count == 0:
        return
    arc = min(g.arcs)
    h = Digraph(g.n, g.arcs - {arc})
    assert are_isomorphic(g, h) is None


def test_search_past_its_node_budget_raises(monkeypatch):
    # a found mapping tries at least one image per vertex; cycle(5)
    # against itself tries exactly five
    monkeypatch.setattr(iso, "_SEARCH_NODES", 5)
    assert are_isomorphic(cycle(5), cycle(5)) == (0, 1, 2, 3, 4)
    g = de_bruijn(2, 4)
    h = _apply(g, [(5 * v + 3) % g.n for v in range(g.n)])
    monkeypatch.setattr(iso, "_SEARCH_NODES", g.n - 1)
    with pytest.raises(ResourceLimitError, match="gave up after 15 images tried"):
        are_isomorphic(g, h)
    monkeypatch.setattr(iso, "_SEARCH_NODES", 10_000)
    assert _is_valid_mapping(g, h, are_isomorphic(g, h))


def test_orders_above_the_bound_are_refused_before_the_search(monkeypatch):
    monkeypatch.setattr(iso, "_MAX_ORDER", 5)
    assert are_isomorphic(cycle(5), cycle(5)) == (0, 1, 2, 3, 4)
    # unequal orders or arc counts are still answered, not refused
    assert are_isomorphic(cycle(6), cycle(5)) is None
    assert are_isomorphic(cycle(6), Digraph(6, [(0, 1)])) is None
    with pytest.raises(
        ResourceLimitError, match="^isomorphism search order 6 is above the limit of 5$"
    ):
        are_isomorphic(cycle(6), cycle(6))
