"""Independent oracles shared by the tests.

They share no code with the engines they check: only ``Digraph`` is
imported from ``forcing_lab`` (``tests/test_package.py`` checks that),
and each is written straight from the definition.
"""

from __future__ import annotations

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
