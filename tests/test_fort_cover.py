"""The fort-cover solver ``solvers.fort_cover_minimum`` that ``verify``
reads, and the fort-cover integer program of ``oracles.ilp_minimum``.

The integer program covers the 3-regular depth-2 iterates of
``nullity-collapse`` and the size cut of ``pd-identity``, where the
exhaustive scan does not reach, and agrees with the scan where it does.
The solver agrees with the scan on every instance ``verify`` solves that
the scan reaches and on seeded random digraphs, and with the integer
program past that.
"""

from __future__ import annotations

from random import Random

import pytest

from forcing_lab import solvers, verify
from forcing_lab.constructions import construct_zfs_line
from forcing_lab.corpus import (
    random_digraph,
    random_digraph_min_degrees,
    regular_digraphs_up_to_iso,
)
from forcing_lab.digraph import Digraph
from forcing_lab.errors import ResourceLimitError
from forcing_lab.families import cycle, de_bruijn
from forcing_lab.linalg import adjacency_rank
from forcing_lab.lines import iterated_line, line_digraph
from forcing_lab.solvers import (
    _scan,
    fort_cover_minimum,
    min_power_dominating,
    min_zero_forcing,
)

from oracles import ilp_minimum, naive_rounds


def test_zero_forcing_equals_the_nullity_at_3_regular_depth_2():
    # Z(L^2(G)) of the 3-regular classes of order 3 and 4 is the adjacency
    # nullity, 18 at order 27, 24 at 36; the in-twin rows bound the search
    # to within a few dozen nodes, so a lost row bound fails here
    for n, order, z in [(3, 27, 18), (4, 36, 24)]:
        for g in regular_digraphs_up_to_iso(n, 3):
            l2 = iterated_line(g, 2).graph
            cover = ilp_minimum(l2, dominate=False)
            print(f"Z(L^2) of a 3-regular class of order {n} = {cover}")
            assert (l2.n, len(cover.witness)) == (order, z)
            assert adjacency_rank(l2).nullity == z
            assert _assert_closing_minimum(l2, False, z).nodes <= 100


def test_power_domination_of_l2_equals_zero_forcing_of_l_at_3_regular_order_4():
    # the pd-identity cut: gamma_P(L^2(G)) of each 3-regular order-4 class
    # equals the brute-forced Z(L(G)) = 8
    classes = regular_digraphs_up_to_iso(4, 3)
    assert len(classes) == 5
    for g in classes:
        line = line_digraph(g).graph
        cover = ilp_minimum(line_digraph(line).graph, dominate=True)
        print(f"gamma_P(L^2) of a 3-regular class of order 4 = {cover}")
        assert min_zero_forcing(line).number == len(cover.witness) == 8
        _assert_closing_minimum(line_digraph(line).graph, True, 8)


def test_the_integer_program_agrees_with_the_scan_on_random_digraphs():
    rng = Random(1313)
    rounds = constraints = 0
    for i in range(75):
        g = random_digraph(
            rng, 1 + i % 9, arc_probability=0.35, loop_probability=0.3 * (i % 2)
        )
        for dominate, scan in [(False, min_zero_forcing), (True, min_power_dominating)]:
            cover = ilp_minimum(g, dominate)
            assert len(cover.witness) == scan(g).number, (g.n, g.arcs_sorted, dominate)
            rounds += cover.rounds
            constraints += cover.constraints
    print(f"150 instances: {rounds} rounds, {constraints} constraints")


def _assert_closing_minimum(
    g: Digraph, dominate: bool, number: int
) -> solvers.FortCoverResult:
    """``fort_cover_minimum`` finds ``number``, with a witness of that many
    vertices that closes under the naive closure; returns its result."""
    found = fort_cover_minimum(g, dominate)
    assert (found.number, len(found.witness)) == (number, number)
    assert naive_rounds(g, set(found.witness), dominate)[1] == set(range(g.n))
    return found


def _line_zf_instances() -> list[Digraph]:
    """The line digraphs of the seeded ``line-zf`` draw."""
    rng = Random(20260823)
    bases = [
        random_digraph_min_degrees(
            rng,
            4 + i % 3,
            min_out=2,
            min_in=1,
            extra_arcs=i % 2,
            allow_loops=(i % 4 == 0),
        )
        for i in range(100)
    ]
    return [construct_zfs_line(g).line.graph for g in bases]


def _verify_instances() -> list[tuple[Digraph, bool]]:
    """Every digraph ``verify all`` solves, with ``dominate``, rebuilt
    through the suites' builders: the sandwich instances hold those of
    the de-bruijn, gen-families and wrapped-butterfly suites."""
    z = [*_line_zf_instances(), *verify._sandwich_instances()]
    z += verify._iterates([(2, (2, 3, 4), (1, 2)), (3, (3, 4), (1, 2))])
    lines = list(verify._iterates([(2, (2, 3, 4), (1,)), (3, (3,), (1,))]))
    gamma = [*verify._sandwich_instances()]
    gamma += [line_digraph(line).graph for line in lines]
    return [(g, False) for g in z + lines] + [(g, True) for g in gamma]


def _key(g: Digraph, dominate: bool) -> tuple:
    return g.n, g.arcs_sorted, dominate


def test_fort_cover_agrees_with_the_scan_on_every_verify_instance(monkeypatch):
    instances = {_key(g, d): (g, d) for g, d in _verify_instances()}
    solved = []

    def recorded(g: Digraph, dominate: bool):
        solved.append(_key(g, dominate))
        return fort_cover_minimum(g, dominate)

    monkeypatch.setattr(verify, "fort_cover_minimum", recorded)
    assert all(check.passed for check in verify.run_suite("all"))
    # 207 solves of 159 distinct instances
    assert (len(solved), len(instances)) == (207, 159)
    assert set(solved) == set(instances)
    # Z of the six 3-regular depth-2 iterates, at orders 27 and 36, is past
    # the scan; the integer program checks those
    past = {_key(g, False) for g in verify._iterates([(3, (3, 4), (2,))])}
    assert sorted(key[0] for key in past) == [27, 36, 36, 36, 36, 36]
    for key, (g, dominate) in instances.items():
        if key in past:
            number = len(ilp_minimum(g, dominate).witness)
        else:
            number = _scan(g, dominate).number
        _assert_closing_minimum(g, dominate, number)


def test_fort_cover_agrees_with_the_scan_on_random_digraphs():
    rng = Random(3737)
    rounds = []
    for i in range(1000):
        g = random_digraph(
            rng,
            1 + i % 10,
            arc_probability=rng.uniform(0.2, 0.5),
            loop_probability=0.5 if i % 2 else 0.0,
        )
        for dominate in (False, True):
            number = _scan(g, dominate).number
            rounds.append(_assert_closing_minimum(g, dominate, number).rounds)
    # the learning loop is exercised, not only the in-twin seeds
    assert sum(r > 1 for r in rounds) > 500 and max(rounds) > 20


def test_fort_cover_answers_1_when_the_loop_rule_closes_the_empty_set():
    # a looped vertex forces itself, so under the loop rule the empty set
    # closes; the answer keeps the scan's nonempty convention
    single = Digraph(1, [(0, 0)])
    chain = Digraph(3, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2)])
    for g in (single, chain):
        assert naive_rounds(g, set(), dominate=False)[1] == set(range(g.n))
        for dominate in (False, True):
            found = fort_cover_minimum(g, dominate)
            assert (found.number, found.witness) == (1, frozenset({0}))
            assert (found.rounds, found.nodes, found.subsets_tested) == (1, 1, 1)
            assert _scan(g, dominate).witness == found.witness


# (digraph, dominate, number, rounds, seeded, learned, nodes, closures)
_SEEDED_7 = random_digraph(Random(2), 7, arc_probability=0.35, loop_probability=0.0)
_WORK = [
    (de_bruijn(2, 3), False, 4, 1, 4, 0, 5, 1),
    (de_bruijn(2, 3), True, 2, 1, 4, 0, 10, 1),
    (_SEEDED_7, False, 3, 5, 1, 6, 24, 11),
    (_SEEDED_7, True, 2, 2, 1, 1, 7, 3),
]


def test_fort_cover_work_counts(monkeypatch):
    # B(2,3) has four in-twin classes of two: Z closes from their four
    # rows, a root and one node per row, and gamma_P from their four
    # N-[pair] seeds.  The seeded digraph of order 7 has one in-twin pair
    # and learns the rest.  A budget of exactly the nodes and closures
    # counted suffices.
    for g, dominate, number, rounds, seeded, learned, nodes, tested in _WORK:
        monkeypatch.setattr(solvers, "_MAX_FORT_STEPS", nodes + tested)
        found = fort_cover_minimum(g, dominate)
        assert (
            found.number,
            found.rounds,
            found.constraints_seeded,
            found.constraints_learned,
            found.nodes,
            found.subsets_tested,
        ) == (number, rounds, seeded, learned, nodes, tested)


def test_fort_cover_raises_once_its_budget_is_spent(monkeypatch):
    for g, dominate, *_, nodes, tested in _WORK:
        budget = nodes + tested - 1
        monkeypatch.setattr(solvers, "_MAX_FORT_STEPS", budget)
        with pytest.raises(ResourceLimitError, match=f"budget of {budget} steps"):
            fort_cover_minimum(g, dominate)


def test_fort_cover_refuses_an_order_above_the_limit():
    assert fort_cover_minimum(cycle(40), False).number == 1
    for dominate in (False, True):
        with pytest.raises(ResourceLimitError, match="order 41 exceeds"):
            fort_cover_minimum(cycle(41), dominate)
