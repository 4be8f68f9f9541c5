"""Independent oracles shared by the tests.

They share no code with the engines they check: only ``Digraph`` is
imported from ``forcing_lab`` (``tests/test_package.py`` checks that),
and each is written straight from the definition.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from forcing_lab.digraph import Digraph


def naive_rounds(
    g: Digraph, start: set[int], dominate: bool
) -> tuple[list[set[int]], set[int]]:
    """The synchronous closure of ``start`` by a plain rescan, sets only:
    the set newly colored in each round, and the final set.  With
    ``dominate`` the first round colors the out-neighbors of ``start``
    (power domination); then, in every round, each vertex that may force
    colors its one white out-neighbor, where a vertex may force when it
    is colored or when ``g`` has a loop (the loop rule)."""
    colored = set(start)
    rounds: list[set[int]] = []
    if dominate:
        dominated = set()
        for s in start:
            dominated |= g.out_neighborhood(s)
        rounds.append(dominated - colored)
        colored |= dominated
    loop_rule = g.has_loops
    while True:
        new = set()
        for u in range(g.n):
            if not loop_rule and u not in colored:
                continue
            uncolored = [w for w in g.out_neighborhood(u) if w not in colored]
            if len(uncolored) == 1:
                new.add(uncolored[0])
        if not new:
            break
        rounds.append(new)
        colored |= new
    # only an empty domination round can end the list, and it is no round
    if rounds and not rounds[-1]:
        rounds.pop()
    return rounds, colored


class FortCover(NamedTuple):
    """A minimum set found by ``ilp_minimum``, with the hitting sets it
    solved (``rounds``) and the constraints it held at the end."""

    witness: frozenset[int]
    rounds: int
    constraints: int

    def __str__(self) -> str:
        return (
            f"{len(self.witness)}: {self.rounds} rounds, "
            f"{self.constraints} constraints"
        )


def ilp_minimum(g: Digraph, dominate: bool) -> FortCover:
    """A minimum zero forcing set of ``g``, or with ``dominate`` a minimum
    power dominating set, by the fort-cover integer program of Brimkov,
    Fast & Hicks ("Computational approaches for zero forcing and related
    problems", EJOR 2019), its constraints added lazily.

    Every answer must meet each constraint set.  The white set ``W`` a
    closure leaves is one: every vertex that may force has none or at
    least two of its out-neighbors in ``W``, so a set that misses ``W``
    never colors any of it; a power dominating set must meet ``N-[W]``.
    An in-twin pair ``{a, b}`` is one too, since every in-neighbor of one
    points to both.  The loop seeds the pairs, then solves the hitting
    set, closes it with ``naive_rounds`` and adds its white set, until a
    hitting set closes: it is minimum, as every closing set meets every
    constraint.  Sets are never empty, so an empty answer becomes
    ``{0}``, as in ``forcing_lab.solvers``.
    """

    def must_meet(white: set[int]) -> frozenset[int]:
        if dominate:
            white = white.union(*map(g.in_neighborhood, white))
        return frozenset(white)

    classes: dict[frozenset[int], list[int]] = {}
    for v in range(g.n):
        classes.setdefault(g.in_neighborhood(v), []).append(v)
    constraints = [
        must_meet({a, b})
        for twins in classes.values()
        for a, b in combinations(twins, 2)
    ]
    everything = set(range(g.n))
    rounds = 0
    while True:
        rounds += 1
        chosen = _minimum_hitting_set(g.n, constraints)
        colored = naive_rounds(g, chosen, dominate)[1]
        if colored == everything:
            return FortCover(frozenset(chosen or {0}), rounds, len(constraints))
        constraints.append(must_meet(everything - colored))


def _minimum_hitting_set(n: int, sets: list[frozenset[int]]) -> set[int]:
    """A least subset of ``0 .. n-1`` that meets every one of ``sets``, by
    ``scipy.optimize.milp``; scipy is imported here, so the other oracles
    load without it."""
    if not sets:
        return set()
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_array

    rows = [i for i, members in enumerate(sets) for _ in members]
    cols = [v for members in sets for v in members]
    rows_by_set = coo_array((np.ones(len(cols)), (rows, cols)), shape=(len(sets), n))
    found = milp(
        np.ones(n),
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        constraints=LinearConstraint(rows_by_set, lb=1),
        options={"mip_rel_gap": 0},
    )
    assert found.success, found.message
    return {v for v in range(n) if found.x[v] > 0.5}
