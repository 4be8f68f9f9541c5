from __future__ import annotations

import itertools
import math
from random import Random

import pytest

from forcing_lab.digraph import Digraph, adjacency_masks
from forcing_lab.errors import ResourceLimitError
from forcing_lab.corpus import random_digraph
from forcing_lab.families import cycle, de_bruijn
from forcing_lab import solvers, verify
from forcing_lab.lines import line_digraph
from forcing_lab.solvers import min_power_dominating, min_zero_forcing

from oracles import naive_rounds


def _naive_minimum(g: Digraph, dominate: bool) -> tuple[int, frozenset[int]]:
    everything = set(range(g.n))
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            if naive_rounds(g, set(combo), dominate)[1] == everything:
                return size, frozenset(combo)
    raise AssertionError("the full vertex set always works")


def test_frozen_de_bruijn_values_and_witnesses():
    g = de_bruijn(2, 2)
    zf = min_zero_forcing(g)
    assert (zf.number, sorted(zf.witness)) == (2, [0, 2])
    pd = min_power_dominating(g)
    assert (pd.number, sorted(pd.witness)) == (1, [1])

    h = de_bruijn(2, 3)
    assert sorted(min_zero_forcing(h).witness) == [0, 2, 4, 6]
    assert sorted(min_power_dominating(h).witness) == [1, 6]

    assert min_zero_forcing(de_bruijn(3, 2)).number == 6
    assert min_power_dominating(de_bruijn(3, 2)).number == 2


def test_cycle_needs_one_seed():
    result = min_zero_forcing(cycle(7))
    assert (result.number, sorted(result.witness)) == (1, [0])


def test_star_is_power_dominated_by_center():
    star = Digraph(4, [(0, 1), (0, 2), (0, 3)])
    result = min_power_dominating(star)
    assert (result.number, sorted(result.witness)) == (1, [0])
    assert min_zero_forcing(star).number == 3


def _assert_matches_naive_oracle(g: Digraph) -> None:
    got = min_zero_forcing(g)
    assert (got.number, got.witness) == _naive_minimum(g, dominate=False)
    got = min_power_dominating(g)
    assert (got.number, got.witness) == _naive_minimum(g, dominate=True)


def test_solver_matches_naive_oracle():
    rng = Random(60223)
    for i in range(1000):
        g = random_digraph(
            rng,
            1 + i % 10,
            arc_probability=rng.uniform(0.2, 0.5),
            loop_probability=0.5 if i % 2 else 0.0,
        )
        _assert_matches_naive_oracle(g)


def test_solver_matches_naive_oracle_on_line_digraphs():
    # many in-twins, so many seeds and out-neighborhoods already closed
    rng = Random(2)
    checked = 0
    while checked < 50:
        base = random_digraph(
            rng,
            rng.randrange(2, 7),
            arc_probability=rng.uniform(0.2, 0.5),
            loop_probability=0.3 if checked % 2 else 0.0,
        )
        if 1 <= len(base.arcs) <= 15:
            _assert_matches_naive_oracle(line_digraph(base).graph)
            checked += 1


def _disjoint_union(g: Digraph, h: Digraph) -> Digraph:
    arcs = list(g.arcs) + [(u + g.n, v + g.n) for u, v in h.arcs]
    return Digraph(g.n + h.n, arcs)


def test_additivity_over_weak_components_loop_free():
    rng = Random(31415)
    for _ in range(10):
        g = random_digraph(
            rng, rng.randrange(1, 5), arc_probability=0.4, loop_probability=0.0
        )
        h = random_digraph(
            rng, rng.randrange(1, 5), arc_probability=0.4, loop_probability=0.0
        )
        union = _disjoint_union(g, h)
        assert (
            min_zero_forcing(union).number
            == min_zero_forcing(g).number + min_zero_forcing(h).number
        )


def test_additivity_with_loops_when_components_need_seeds():
    # under the loop rule additivity needs every component to be unable
    # to close from nothing; de Bruijn digraphs qualify
    g = de_bruijn(2, 2)
    union = _disjoint_union(g, g)
    assert min_zero_forcing(union).number == 4
    assert min_power_dominating(union).number == 2


def test_loop_rule_can_defeat_additivity_of_the_nonempty_convention():
    # a single looped vertex closes from the empty set, so two copies
    # share one seed; this is why the guard in the previous test exists
    loop = Digraph(1, [(0, 0)])
    union = _disjoint_union(loop, loop)
    assert min_zero_forcing(union).number == 1


def test_wrapped_butterfly_power_domination_degree_three():
    # the claimed closed form 2(d-1) also matches brute force at d = 3
    from forcing_lab.families import wrapped_butterfly

    assert min_power_dominating(wrapped_butterfly(3, 2)).number == 4


def test_order_limit_is_forty():
    assert min_zero_forcing(cycle(40)).number == 1
    with pytest.raises(ResourceLimitError, match="order 41 exceeds"):
        min_zero_forcing(cycle(41))


def test_subset_budget(monkeypatch):
    monkeypatch.setattr(solvers, "_MAX_CLOSURES", 3)
    with pytest.raises(ResourceLimitError, match="subset budget of 3 exhausted"):
        min_zero_forcing(de_bruijn(2, 3))


def _unskipped_count(g: Digraph, number: int, witness: frozenset[int]) -> int:
    """Sets a lexicographic scan that skips none tests before it stops."""
    smaller = sum(math.comb(g.n, size) for size in range(1, number))
    combos = itertools.combinations(range(g.n), number)
    return smaller + 1 + next(i for i, c in enumerate(combos) if set(c) == witness)


def test_subsets_tested_counts_every_closure_at_every_size():
    # every set whose closure was computed counts, at every size; the
    # sibling rule skips children before their closure is computed, and
    # the memo drops the children whose closure an earlier set reached
    for solve, g, tested, pruned, skipped, unskipped in (
        (min_zero_forcing, de_bruijn(2, 3), 15, 0, 4, 113),
        (min_zero_forcing, de_bruijn(3, 2), 154, 30, 30, 405),
        (min_power_dominating, de_bruijn(2, 3), 13, 3, 4, 20),
        (min_power_dominating, de_bruijn(3, 2), 12, 0, 4, 18),
    ):
        result = solve(g)
        assert (
            result.subsets_tested,
            result.prefixes_pruned,
            result.siblings_skipped,
        ) == (tested, pruned, skipped)
        assert sum(result.tested_per_size) == tested
        assert len(result.tested_per_size) == result.number
        assert _unskipped_count(g, result.number, result.witness) == unskipped
        assert tested <= unskipped


def test_tested_per_size_on_de_bruijn_2_3():
    # 2k and 2k + 1 are in-twins and the closure of 2k holds 2k + 1, so Z
    # closes the 4 even vertices alone and leaves the odd ones out at
    # every size, then the 6 pairs and 4 triples of the even ones, and
    # the first set of size 4 it closes colors every vertex
    assert min_zero_forcing(de_bruijn(2, 3)).tested_per_size == (4, 6, 4, 1)
    assert min_power_dominating(de_bruijn(2, 3)).tested_per_size == (6, 7)


def _memo_only_scan(g: Digraph, dominate: bool) -> tuple[int, frozenset[int], int]:
    """The scan without the sibling rule: only the memo drops children.
    Returns the number, the witness and the closures computed."""
    n = g.n
    masks, inn = adjacency_masks(g)
    seeds = [(1 << v) | (masks[v] if dominate else 0) for v in range(n)]
    full = (1 << n) - 1
    level, tested = {0: 0}, 0
    pool = full if g.has_loops else 0
    for size in range(1, n + 1):
        nxt: dict[int, int] = {}
        for base, chosen in level.items():
            for v in range(chosen.bit_length(), n):
                fresh = seeds[v] & ~base
                if not fresh:
                    continue
                tested += 1
                colored = solvers._closure(
                    masks, inn, g.has_loops, base | fresh, fresh, pool
                )
                if colored == full:
                    chosen |= 1 << v
                    witness = frozenset(u for u in range(n) if chosen >> u & 1)
                    return size, witness, tested
                if colored not in level and colored not in nxt:
                    nxt[colored] = chosen | 1 << v
        level, pool = nxt, 0
    raise AssertionError("the full vertex set always succeeds")


def _assert_matches_memo_only_scan(g: Digraph, dominate: bool) -> int:
    got = solvers._scan(g, dominate)
    number, witness, tested = _memo_only_scan(g, dominate)
    assert (got.number, got.witness) == (number, witness)
    assert got.subsets_tested <= tested
    return got.siblings_skipped


def test_sibling_rule_keeps_the_answers_on_the_verify_iterates(monkeypatch):
    # every scan of the nullity-collapse, sandwich and pd-identity suites,
    # the order-27 gamma_P of L^2(K_3 + loops) among them
    scans = []
    for name, dominate in (
        ("min_zero_forcing", False),
        ("min_power_dominating", True),
    ):
        solve = getattr(verify, name)
        monkeypatch.setattr(
            verify, name, lambda g, s=solve, d=dominate: scans.append((g, d)) or s(g)
        )
    for suite in ("nullity-collapse", "sandwich", "pd-identity"):
        assert all(check.passed for check in verify.SUITES[suite]())
    assert (27, True) in {(g.n, d) for g, d in scans}
    skipped = [_assert_matches_memo_only_scan(g, d) for g, d in scans]
    assert len(skipped) == 92 and sum(s > 0 for s in skipped) > 80


def test_sibling_rule_keeps_the_answers_at_orders_11_to_20():
    # random digraphs of mean out-degree 2, and line digraphs of random
    # digraphs of 5-9 vertices, with and without loops
    rng = Random(25)
    fired = checked = 0
    while checked < 300:
        loops = 0.3 if checked % 4 >= 2 else 0.0
        if checked % 2:
            n = rng.randrange(11, 21)
            g = random_digraph(rng, n, arc_probability=2 / n, loop_probability=loops)
        else:
            base = random_digraph(
                rng,
                rng.randrange(5, 10),
                arc_probability=rng.uniform(0.2, 0.5),
                loop_probability=loops,
            )
            if not 11 <= base.arc_count <= 20 or base.arc_count - base.n > 6:
                continue
            g = line_digraph(base).graph
        checked += 1
        for dominate in (False, True):
            fired += _assert_matches_memo_only_scan(g, dominate) > 0
    assert fired > 500


def test_a_budget_of_exactly_the_sets_tested_suffices(monkeypatch):
    cases = [
        (solve, g, solve(g))
        for solve, g in (
            (min_zero_forcing, de_bruijn(2, 3)),
            (min_zero_forcing, de_bruijn(3, 2)),
            (min_power_dominating, de_bruijn(2, 4)),
        )
    ]
    for solve, g, free in cases:
        monkeypatch.setattr(solvers, "_MAX_CLOSURES", free.subsets_tested)
        exact = solve(g)
        assert (exact.number, exact.witness, exact.subsets_tested) == (
            free.number,
            free.witness,
            free.subsets_tested,
        )
        budget = free.subsets_tested - 1
        monkeypatch.setattr(solvers, "_MAX_CLOSURES", budget)
        with pytest.raises(ResourceLimitError, match=f"subset budget of {budget} "):
            solve(g)


def test_budgets_do_not_truncate_answers_silently(monkeypatch):
    # a budget generous enough to finish returns the exact optimum
    monkeypatch.setattr(solvers, "_MAX_CLOSURES", 100)
    g = de_bruijn(2, 2)
    result = min_zero_forcing(g)
    assert result.number == 2
