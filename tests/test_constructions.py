from __future__ import annotations

import itertools
from collections import Counter
from random import Random

import pytest

from forcing_lab import constructions
from forcing_lab.constructions import (
    OneFactor,
    construct_pds_L,
    construct_pds_L2,
    construct_zfs_line,
    cycle_factorization,
    in_degree_one_cycles,
    one_factor,
)
from forcing_lab.corpus import (
    random_digraph,
    random_digraph_min_degrees,
    random_regular_digraph,
)
from forcing_lab.critical import twin_forcing_lower_bound
from forcing_lab.digraph import MAX_ORDER, Digraph
from forcing_lab.errors import DomainError, ResourceLimitError
from forcing_lab.families import (
    complete_with_loops,
    complete_without_loops,
    cycle,
    de_bruijn,
    gen_kautz,
    kautz,
)
from forcing_lab.linalg import adjacency_rank
from forcing_lab.lines import LineLabeledDigraph, iterated_line, line_digraph
from forcing_lab.propagation import (
    is_power_dominating_set,
    is_zero_forcing_set,
    pd_closure,
    zf_closure,
)
from forcing_lab.solvers import min_power_dominating, min_zero_forcing
from forcing_lab.verify import SUITES, run_suite

from oracles import ilp_minimum, naive_rounds

# out-degree 2 everywhere, but vertices 0 and 1 have in-degree 1 and form
# a 2-cycle, so every 1-factor contains that cycle and none is good
_NO_GOOD_FACTOR = Digraph(
    4,
    [(0, 1), (0, 2), (1, 0), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)],
)


def _in_degree_one_two_cycle(n: int) -> Digraph:
    """Like ``_NO_GOOD_FACTOR`` at order ``n``: 0 and 1 form an
    in-degree-one 2-cycle, every other vertex has a loop and an arc to the
    next one round ``2 .. n-1``, and every out-degree is 2."""
    arcs = [(0, 1), (0, 2), (1, 0), (1, 3)]
    for v in range(2, n):
        arcs += [(v, v), (v, 2 + (v - 1) % (n - 2))]
    return Digraph(n, arcs)


def _chain_of_loops(n: int) -> Digraph:
    """Loops at ``0 .. n-2`` plus the cycle ``0 -> 1 -> ... -> n-1 -> 0``.
    The greedy pass matches every tail but ``n - 1`` to its loop, and the
    one augmenting path then runs through all ``n`` tails."""
    return Digraph(n, [(v, v) for v in range(n - 1)] + [(v, (v + 1) % n) for v in range(n)])


def _regular_chain_of_loops(n: int) -> Digraph:
    """2-regular: loops at ``0 .. n-2``, the chain ``2 -> 3 -> ... -> n-1``
    and the arcs ``0 -> 2``, ``1 -> n-1``, ``n-1 -> 0`` and ``n-1 -> 1``.
    The greedy pass matches every tail but ``n - 1`` to its loop, and the
    first factor's augmenting path runs through ``n - 1`` tails."""
    arcs = [(v, v) for v in range(n - 1)] + [(v, v + 1) for v in range(2, n - 1)]
    return Digraph(n, arcs + [(0, 2), (1, n - 1), (n - 1, 0), (n - 1, 1)])


def _is_factor_of(g: Digraph, f: tuple[int, ...]) -> bool:
    """``f`` is a permutation whose every ``(f[v], v)`` is an arc of ``g``."""
    return sorted(f) == list(range(g.n)) and all((u, v) in g.arcs for v, u in enumerate(f))


def _kuhn_matching(g: Digraph) -> list[int] | None:
    """Recursive Kuhn augmenting paths, heads tried in ascending order;
    ``result[v]`` is the tail matched to head ``v``.  The tests use it only
    to decide whether a perfect matching exists."""
    match = [-1] * g.n

    def augment(u: int, visited: set[int]) -> bool:
        for v in sorted(w for w in range(g.n) if (u, w) in g.arcs):
            if v not in visited:
                visited.add(v)
                if match[v] == -1 or augment(match[v], visited):
                    match[v] = u
                    return True
        return False

    if all(augment(u, set()) for u in range(g.n)):
        return match
    return None


def _all_factor_maps(g: Digraph):
    """Every perfect matching as an ``f`` list (``f[v]`` the tail of head ``v``)."""
    f = [-1] * g.n

    def extend(u: int):
        if u == g.n:
            yield list(f)
            return
        for v in range(g.n):
            if (u, v) in g.arcs and f[v] == -1:
                f[v] = u
                yield from extend(u + 1)
                f[v] = -1

    return extend(0)


def _good(g: Digraph, f: list[int]) -> bool:
    """Every cycle of the permutation ``f`` has a vertex of in-degree > 1."""
    in_degree = [sum(1 for u in range(g.n) if (u, v) in g.arcs) for v in range(g.n)]
    seen: set[int] = set()
    for start in range(g.n):
        cycle = []
        v = start
        while v not in seen:
            seen.add(v)
            cycle.append(v)
            v = f[v]
        if cycle and all(in_degree[w] == 1 for w in cycle):
            return False
    return True


def test_one_factor_cycles_and_arcs():
    factor = OneFactor((2, 1, 0))
    assert factor.arcs() == frozenset({(2, 0), (1, 1), (0, 2)})
    assert factor.cycles() == [[0, 2], [1]]
    assert _good(complete_with_loops(3), list(factor.f))


def test_in_degree_one_cycles():
    assert in_degree_one_cycles(cycle(5)) == [[0, 1, 2, 3, 4]]
    assert in_degree_one_cycles(de_bruijn(2, 2)) == []
    # 0 and 1 form a 2-cycle of in-degree-1 vertices
    assert in_degree_one_cycles(_NO_GOOD_FACTOR) == [[0, 1]]


def test_one_factor_of_cycle_is_the_cycle():
    factor = one_factor(cycle(5))
    assert factor is not None
    assert factor.f == (4, 0, 1, 2, 3)
    assert factor.cycles() == [[0, 1, 2, 3, 4]]


def test_one_factor_frozen_complete_case():
    factor = one_factor(complete_with_loops(3))
    assert factor is not None and factor.f == (0, 1, 2)


def test_one_factor_none_when_no_perfect_matching():
    assert one_factor(Digraph(3, [(0, 1), (1, 2)])) is None


def test_one_factor_good_requirement():
    assert one_factor(cycle(5), require_good=True) is None
    g = de_bruijn(2, 2)
    good = one_factor(g, require_good=True)
    assert good is not None and _good(g, list(good.f))


def test_one_factor_enumeration_limit():
    # the good-factor answer is exact at every order: no enumeration runs,
    # so no order limit applies
    assert one_factor(_NO_GOOD_FACTOR, require_good=True) is None
    g = _in_degree_one_two_cycle(12)
    assert one_factor(g) is not None
    assert one_factor(g, require_good=True) is None


def test_good_factor_refused_before_any_matching(monkeypatch):
    def no_matching(neighbors):
        raise AssertionError("a matching was computed")

    monkeypatch.setattr(constructions, "_perfect_matching", no_matching)
    assert one_factor(_NO_GOOD_FACTOR, require_good=True) is None
    assert one_factor(_in_degree_one_two_cycle(12), require_good=True) is None


def test_one_factor_matches_kuhn_and_enumeration():
    rng = Random(4177)
    outcomes = {True: 0, False: 0}
    for i in range(1500):
        g = random_digraph(
            rng,
            rng.randrange(1, 10),
            arc_probability=rng.choice([0.2, 0.35, 0.5]),
            loop_probability=0.3 if i % 2 == 0 else 0.0,
        )
        factor = one_factor(g)
        assert (factor is None) == (_kuhn_matching(g) is None)
        if factor is None:
            continue
        assert _is_factor_of(g, factor.f)
        good = one_factor(g, require_good=True)
        exists = any(_good(g, f) for f in _all_factor_maps(g))
        assert (good is not None) == exists
        if good is not None:
            assert good.f == factor.f
        outcomes[exists] += 1
    assert outcomes[True] > 50 and outcomes[False] > 50


def test_factors_of_a_long_chain_of_loops():
    n = 3000
    g = _chain_of_loops(n)
    around = tuple((v - 1) % n for v in range(n))
    assert one_factor(g).f == around
    assert one_factor(g, require_good=True).f == around
    h = _regular_chain_of_loops(n)
    first = (n - 1, 1, 0) + tuple(range(2, n - 1))
    second = (0, n - 1) + tuple(range(2, n - 1)) + (1,)
    assert [factor.f for factor in cycle_factorization(h).factors] == [first, second]


def test_matching_gives_up_past_its_head_bound(monkeypatch):
    # the layering of the chain's one free tail opens all 3000 tails, one
    # per layer, and tries 5999 heads
    g = _chain_of_loops(3000)
    assert one_factor(g) is not None
    monkeypatch.setattr(constructions, "_MATCHING_HEADS", 5000)
    message = "^perfect matching gave up after 5000 heads tried$"
    with pytest.raises(ResourceLimitError, match=message):
        one_factor(g)


def test_largest_family_factorization_stays_under_the_head_bound():
    # of the families at orders up to 2**17, the one whose matchings try
    # the most heads past the greedy pass: 699,052 in one phase
    g = gen_kautz(4, 131071)
    factors = cycle_factorization(g).factors
    assert len(factors) == 4
    arcs = [(u, v) for factor in factors for v, u in enumerate(factor.f)]
    assert len(arcs) == len(set(arcs)) and set(arcs) == g.arcs


def test_cycle_factorization_frozen_complete_case():
    factorization = cycle_factorization(complete_with_loops(3))
    assert [factor.f for factor in factorization.factors] == [
        (0, 1, 2),
        (2, 0, 1),
        (1, 2, 0),
    ]


def test_random_3_regular_factorization_at_order_16384():
    g = random_regular_digraph(Random(1), 16384, 3)
    factors = cycle_factorization(g).factors
    assert len(factors) == 3
    arcs = [(u, v) for factor in factors for v, u in enumerate(factor.f)]
    assert len(arcs) == len(set(arcs)) and set(arcs) == g.arcs


def test_cycle_factorization_partitions_arcs():
    g = de_bruijn(2, 3)
    factorization = cycle_factorization(g)
    assert len(factorization.factors) == 2
    covered: set[tuple[int, int]] = set()
    for factor in factorization.factors:
        arcs = factor.arcs()
        assert not (covered & arcs)
        covered |= arcs
    assert covered == g.arcs


def test_cycle_factorization_matches_kuhn_on_the_remaining_arcs():
    rng = Random(6043)
    for _ in range(40):
        n = rng.randrange(2, 10)
        g = random_regular_digraph(rng, n, rng.randrange(1, min(n, 4) + 1))
        remaining = g
        for factor in cycle_factorization(g).factors:
            assert _kuhn_matching(remaining) is not None
            assert _is_factor_of(remaining, factor.f)
            remaining = Digraph(g.n, remaining.arcs - factor.arcs())
        assert remaining.arc_count == 0


def test_cycle_factorization_of_cycle():
    factorization = cycle_factorization(cycle(4))
    assert len(factorization.factors) == 1


def test_cycle_factorization_rejects_irregular():
    with pytest.raises(DomainError):
        cycle_factorization(Digraph(3, [(0, 1), (1, 2)]))


def test_line_path_never_builds_the_arc_set():
    # ``Digraph.arcs`` is built on first read and kept in ``_arcs``; the
    # iterates, witnesses, factorizations and closures read only the
    # out- and in-tuples, so no digraph they build or take holds that set.
    base = complete_with_loops(2)
    g = iterated_line(base, 9).graph
    assert g.n == 1024
    zf_closure(g, range(0, g.n, 2))
    pd_closure(g, range(0, g.n, 3))
    touched = [
        base,
        g,
        construct_zfs_line(g).line.graph,
        construct_pds_L2(g).line.graph,
    ]
    cycle_factorization(g)
    assert [d._arcs for d in touched] == [None] * len(touched)


def test_certificate_of_l16_k2_with_loops_at_max_order():
    # Z(L^16) = M(L^16) = 65536 and gamma_P(L^16) <= 32768, at MAX_ORDER:
    # both witnesses are built on L^16 and close it, and the twin bound and
    # the adjacency nullity meet the zero forcing witness from below.
    base = complete_with_loops(2)
    zfs = construct_zfs_line(iterated_line(base, 15).graph)
    pds = construct_pds_L2(iterated_line(base, 14).graph)
    for witness, size in [(zfs, 65536), (pds, 32768)]:
        assert witness.line.graph.n == MAX_ORDER
        assert len(witness.vertices) == size
        assert witness.trace.covers_all
    top = iterated_line(base, 16).graph
    assert twin_forcing_lower_bound(top) == adjacency_rank(top).nullity == 65536


def test_construct_zfs_line_frozen_case():
    witness = construct_zfs_line(complete_with_loops(3))
    assert len(witness.vertices) == 6
    walks = [witness.line.labels[v] for v in sorted(witness.vertices)]
    assert walks == [(0, 1), (0, 2), (1, 1), (1, 2), (2, 1), (2, 2)]
    assert witness.trace.covers_all


def test_construct_zfs_line_on_loop_free_complete():
    witness = construct_zfs_line(complete_without_loops(3))
    assert len(witness.vertices) == 3
    assert is_zero_forcing_set(witness.line.graph, witness.vertices)


def _assert_selects(witness, walks) -> None:
    """``witness`` holds exactly the vertices labeled ``walks``, found by
    looking each walk up in a walk -> id dict."""
    index = {walk: i for i, walk in enumerate(witness.line.labels)}
    assert witness.vertices == {index[walk] for walk in walks}


def _zfs_walks(g: Digraph) -> list[tuple[int, int]]:
    """Every out-arc but the spared one: the least out-neighbor off the
    in-degree-one cycles."""
    on_bad_cycle = {v for cycle in in_degree_one_cycles(g) for v in cycle}
    walks = []
    for v in range(g.n):
        heads = g.out_neighborhood(v)
        spared = min(heads - on_bad_cycle)
        walks += [(v, w) for w in heads if w != spared]
    return walks


def test_construct_zfs_line_random_corpus():
    rng = Random(71)
    bases = [random_digraph_min_degrees(rng, 5, min_out=2, min_in=1) for _ in range(20)]
    bases += [_in_degree_one_two_cycle(n) for n in range(4, 9)]
    with_bad_cycle = 0
    for g in bases:
        witness = construct_zfs_line(g)
        assert len(witness.vertices) == g.arc_count - g.n
        assert is_zero_forcing_set(witness.line.graph, witness.vertices)
        _assert_selects(witness, _zfs_walks(g))
        with_bad_cycle += bool(in_degree_one_cycles(g))
    assert with_bad_cycle >= 5


def test_construct_zfs_line_degree_preconditions():
    with pytest.raises(DomainError):
        construct_zfs_line(cycle(5))  # out-degree 1
    source = Digraph(
        4, [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1), (3, 0), (3, 1)]
    )
    with pytest.raises(DomainError):
        construct_zfs_line(source)  # vertex 3 has in-degree 0


def test_construct_pds_l2_sizes():
    assert len(construct_pds_L2(complete_without_loops(4)).vertices) == 8
    assert len(construct_pds_L2(complete_with_loops(3)).vertices) == 6


def test_construct_pds_l2_witness_dominates_square_iterate():
    g = de_bruijn(2, 2)
    witness = construct_pds_L2(g)
    assert len(witness.vertices) == g.arc_count - g.n
    square = iterated_line(g, 2).graph
    assert witness.line.graph == square
    assert is_power_dominating_set(square, witness.vertices)


def test_construct_pds_l2_random_corpus():
    # Bases with a good 1-factor f give the walks f(u) -> u -> v over the
    # arcs (u, v) with u != f(v); the others raise.
    rng = Random(5309)
    built = 0
    for i in range(40):
        g = random_digraph_min_degrees(
            rng, rng.randint(3, 7), min_out=2, min_in=1, extra_arcs=i % 3
        )
        factor = one_factor(g, require_good=True)
        if factor is None:
            with pytest.raises(DomainError):
                construct_pds_L2(g)
            continue
        f = factor.f
        witness = construct_pds_L2(g)
        assert len(witness.vertices) == g.arc_count - g.n
        assert is_power_dominating_set(witness.line.graph, witness.vertices)
        _assert_selects(witness, [(f[u], u, v) for u, v in g.arcs if u != f[v]])
        built += 1
    assert built >= 20


def test_construct_pds_l2_needs_a_good_factor():
    with pytest.raises(DomainError):
        construct_pds_L2(_NO_GOOD_FACTOR)


def _is_disjoint_outneighborhood_set(g: Digraph, s: frozenset[int]) -> bool:
    for x in s:
        for y in s - {x}:
            if y in g.out_neighborhood(x):
                return False
            if g.out_neighborhood(x) & g.out_neighborhood(y):
                return False
    return True


def test_construct_pds_l_frozen_cases():
    witness = construct_pds_L(complete_with_loops(3), {0})
    assert len(witness.vertices) == 2
    assert is_power_dominating_set(witness.line.graph, witness.vertices)
    witness = construct_pds_L(de_bruijn(2, 2), {0, 3})
    assert len(witness.vertices) == 2
    assert is_power_dominating_set(witness.line.graph, witness.vertices)


def test_construct_pds_l_rejects_bad_set():
    # N+(0) = {0, 1} in B(2, 2) meets {0, 1} at 1 as well as at 0
    with pytest.raises(
        DomainError, match=r"out-neighborhood of 0 meets the set at \[1\] rather"
    ):
        construct_pds_L(de_bruijn(2, 2), {0, 1})
    # N+(1) = N+(5) = {2, 3} in B(2, 3)
    with pytest.raises(
        DomainError, match="vertices 1 and 5 have intersecting out-neighborhoods"
    ):
        construct_pds_L(de_bruijn(2, 3), {1, 5})


def _pds_l_walks(g: Digraph, s: frozenset[int]) -> list[tuple[int, int]]:
    """Each vertex outside ``s`` with its in-neighbor in ``s``, else with
    its least in-neighbor."""
    walks = []
    for v in sorted(set(range(g.n)) - s):
        owners = g.in_neighborhood(v) & s
        walks.append((min(owners or g.in_neighborhood(v)), v))
    return walks


def test_construct_pds_l_random_regular():
    # Every combination of size 1-3 goes through construct_pds_L: the valid
    # ones give a power dominating set of size n - |S|, the others raise.
    rng = Random(92)
    valid: Counter[int] = Counter()
    invalid = 0
    for _ in range(20):
        n = rng.randint(4, 7)
        g = random_regular_digraph(rng, n, rng.randint(2, min(n, 3)))
        for size in range(1, 4):
            for combination in itertools.combinations(range(n), size):
                s = frozenset(combination)
                if not _is_disjoint_outneighborhood_set(g, s):
                    with pytest.raises(DomainError):
                        construct_pds_L(g, s)
                    invalid += 1
                    continue
                witness = construct_pds_L(g, s)
                assert len(witness.vertices) == g.n - len(s)
                assert is_power_dominating_set(witness.line.graph, witness.vertices)
                _assert_selects(witness, _pds_l_walks(g, s))
                valid[size] += 1
    assert sorted(valid) == [1, 2, 3] and invalid > 100


def test_witness_shares_its_vertex_set_with_its_trace():
    k3 = complete_with_loops(3)
    for witness in (
        construct_zfs_line(k3),
        construct_pds_L2(k3),
        construct_pds_L(k3, {0}),
    ):
        assert witness.vertices is witness.trace.initial


def _zfs_ids_by_label(g: Digraph) -> set[int]:
    """The ids of ``construct_zfs_line(g)`` as the label comprehension
    picked them: every arc ``(v, w)`` but the spared one."""
    on_bad_cycle = {v for cycle in in_degree_one_cycles(g) for v in cycle}
    spared = [min(g.out_neighborhood(v) - on_bad_cycle) for v in range(g.n)]
    return {i for i, (v, w) in enumerate(line_digraph(g).labels) if w != spared[v]}


def _pds_l2_ids_by_label(g: Digraph) -> set[int]:
    """The walks ``f(u) -> u -> v`` with ``u != f(v)``, by label."""
    f = one_factor(g, require_good=True).f
    labels = iterated_line(g, 2).labels
    return {i for i, (t, u, v) in enumerate(labels) if t == f[u] and u != f[v]}


def _pds_l_ids_by_label(g: Digraph, s: frozenset[int]) -> set[int]:
    """Each vertex outside ``s`` with its paired in-neighbor, by label."""
    tail = {v: u for u, v in _pds_l_walks(g, s)}
    return {i for i, (u, v) in enumerate(line_digraph(g).labels) if tail.get(v) == u}


def _line_witness_bases() -> list[tuple[Digraph, int]]:
    """The seven bases of the ``line-witness`` benchmark workload, each with
    its depth ``k`` (``L^k`` has order 1024 to 4096); here the fixed ones
    keep their ids and the two random ones are drawn by the library."""
    rng = Random(3)
    return [
        (complete_with_loops(2), 11),
        (complete_with_loops(3), 6),
        (complete_with_loops(4), 4),
        (de_bruijn(2, 3), 8),
        (kautz(3, 2), 5),
        (random_regular_digraph(rng, 16, 2), 7),
        (random_regular_digraph(rng, 14, 3), 4),
    ]


def test_witness_ids_match_the_label_comprehensions():
    # The ids computed from arc order are the ids the walk labels picked,
    # on seeded bases with and without loops and on the benchmark's bases.
    rng = Random(20261020)
    zfs_bases, pds_l2_bases, pds_l_bases = [], [], []
    for i in range(60):
        loops = i % 2 == 0
        n = rng.randint(3, 9)
        zfs_bases.append(
            random_digraph_min_degrees(
                rng, n, min_out=2, min_in=1, extra_arcs=i % 4, allow_loops=loops
            )
        )
        pds_l_bases.append(
            random_digraph_min_degrees(rng, n, min_out=2, min_in=2, allow_loops=loops)
        )
    pds_l2_bases = [g for g in zfs_bases if one_factor(g, require_good=True)]
    for base, k in _line_witness_bases():
        below2 = iterated_line(base, k - 2).graph
        below1 = iterated_line(base, k - 1).graph
        zfs_bases.append(below1)
        pds_l2_bases.append(below2)
        pds_l_bases.append(below1)
    assert sum(g.has_loops for g in zfs_bases) >= 30
    assert len(pds_l2_bases) >= 30
    for g in zfs_bases:
        assert construct_zfs_line(g).vertices == _zfs_ids_by_label(g)
    for g in pds_l2_bases:
        assert construct_pds_L2(g).vertices == _pds_l2_ids_by_label(g)
    for g in pds_l_bases:
        s = frozenset({rng.randrange(g.n)})
        assert construct_pds_L(g, s).vertices == _pds_l_ids_by_label(g, s)


def _no_labels(line: LineLabeledDigraph) -> tuple[tuple[int, ...], ...]:
    raise AssertionError("the library read LineLabeledDigraph.labels")


def test_witnesses_and_verify_never_read_walk_labels(monkeypatch):
    # The labels are built on first read; the witnesses take their ids from
    # arc order, and every verify suite reads only the iterates' digraphs.
    monkeypatch.setattr(LineLabeledDigraph, "labels", property(_no_labels))
    base = random_regular_digraph(Random(3), 14, 3)
    for g in (complete_with_loops(3), base, iterated_line(base, 2).graph):
        assert construct_zfs_line(g).trace.covers_all
        assert construct_pds_L2(g).trace.covers_all
        assert construct_pds_L(g, {0}).trace.covers_all
    for suite in SUITES:
        results = run_suite(suite)
        assert results and all(result.passed for result in results), suite


# the base G of the next two tests
_GAMMA_P_BELOW_ARC_COUNT = Digraph(
    5,
    [(0, 1), (0, 2), (1, 2), (1, 3), (2, 1), (2, 3), (2, 4)]
    + [(3, 0), (3, 1), (3, 2), (3, 4), (4, 1), (4, 2)],
)


def test_power_domination_of_l2_drops_below_the_arc_count_off_the_regular_case():
    # G has min out-degree 2, min in-degree 1 and a good 1-factor, and
    # Z(L(G)) = |A| - |V| = 8, the size of construct_pds_L2's witness; yet
    # brute force on the order-34 L^2(G) finds a power dominating set of 7,
    # so the regular closed form gamma_P(L^2) = |A| - |V| does not carry over
    g = _GAMMA_P_BELOW_ARC_COUNT
    assert one_factor(g, require_good=True) is not None
    assert g.arc_count - g.n == 8
    assert min_zero_forcing(line_digraph(g).graph).number == 8
    l2 = iterated_line(g, 2).graph
    pd = min_power_dominating(l2)
    assert (l2.n, pd.number) == (34, 7)
    assert sorted(pd.witness) == [0, 18, 21, 23, 24, 25, 28]
    assert naive_rounds(l2, set(pd.witness), dominate=True)[1] == set(range(34))
    assert len(construct_pds_L2(g).vertices) == 8


def test_the_fort_cover_program_finds_the_same_drop():
    g = _GAMMA_P_BELOW_ARC_COUNT
    z = ilp_minimum(line_digraph(g).graph, dominate=False)
    pd = ilp_minimum(iterated_line(g, 2).graph, dominate=True)
    print(f"Z(L(G)) = {z}; gamma_P(L^2(G)) = {pd}")
    assert (len(z.witness), len(pd.witness)) == (8, 7)


def test_zero_forcing_of_a_line_digraph_counts_an_isolated_cycle_past_its_nullity():
    # H has every degree at least 1 and a component that is a 2-cycle: its
    # line digraph is again a loop-free 2-cycle, which needs a seed of its
    # own, so Z(L(H)) = |A| - |V| + 1 while the adjacency nullity stays
    # |A| - |V|; construct_zfs_line refuses H for its out-degree-1 vertices
    h = Digraph(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2), (2, 4)])
    line = line_digraph(h).graph
    assert h.arc_count - h.n == 1
    assert min_zero_forcing(line).number == 2
    assert adjacency_rank(line).nullity == 1
    with pytest.raises(DomainError, match="^minimum out-degree 1 below required 2$"):
        construct_zfs_line(h)
