"""The fort-cover integer program of ``oracles.ilp_minimum`` where the
exhaustive scan does not reach: both size cuts of ``verify`` in full, and
agreement with the scan where it does."""

from __future__ import annotations

from random import Random

from forcing_lab.corpus import random_digraph, regular_digraphs_up_to_iso
from forcing_lab.linalg import adjacency_rank
from forcing_lab.lines import iterated_line, line_digraph
from forcing_lab.solvers import min_power_dominating, min_zero_forcing

from oracles import ilp_minimum


def test_zero_forcing_equals_the_nullity_at_3_regular_depth_2():
    # the nullity-collapse cut: Z(L^2(G)) of the 3-regular classes of
    # order 3 and 4 is the adjacency nullity, 18 at order 27, 24 at 36
    for n, order, z in [(3, 27, 18), (4, 36, 24)]:
        for g in regular_digraphs_up_to_iso(n, 3):
            l2 = iterated_line(g, 2).graph
            cover = ilp_minimum(l2, dominate=False)
            print(f"Z(L^2) of a 3-regular class of order {n} = {cover}")
            assert (l2.n, len(cover.witness)) == (order, z)
            assert adjacency_rank(l2).nullity == z


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
