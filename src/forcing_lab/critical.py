"""Forts: the critical-set predicates and the in-twin lower bound.

A non-empty set ``W`` is critical when no vertex outside ``W`` has exactly
one out-neighbor inside ``W``; it is strongly critical (a fort) when no
vertex at all, members of ``W`` included, has exactly one out-neighbor
inside ``W``.  Every zero forcing set meets every fort: while ``W`` is all
white, a vertex with 0 or at least 2 out-neighbors in ``W`` cannot force
into it, whatever its own color, so nothing of ``W`` is ever colored.  In
loop-free digraphs only colored vertices force, so there every critical
set is met as well.

Twin-fort lemma: two vertices ``u != v`` with the same non-empty
in-neighborhood ``N`` form a fort.  Proof: a vertex has ``u`` as an
out-neighbor exactly when it lies in ``N``, and the same holds for ``v``,
so every vertex has 0 or 2 out-neighbors in ``{u, v}``.

Hence a zero forcing set misses at most one vertex of each in-twin class
``C``, and ``Z >= sum(|C| - 1)`` over the classes.  In ``L(G)`` an arc
``(u, v)`` has the in-neighborhood of the arcs into ``u``, so the classes
are the out-arc groups of the vertices of ``G`` of in-degree at least 1.
On a base whose degrees are all at least 1 the bound is therefore
``|A(G)| - |V(G)|``, which is ``Z(L(G))`` once every out-degree is at
least 2.
"""

from __future__ import annotations

from typing import Iterable

from .digraph import Digraph, check_nonempty_vertex_set


def is_critical(g: Digraph, w: Iterable[int]) -> bool:
    """No vertex outside ``w`` has exactly one out-neighbor in ``w``."""
    s = check_nonempty_vertex_set(g, w, "critical-set candidate")
    return all(
        len(g.out_neighborhood(v) & s) != 1 for v in range(g.n) if v not in s
    )


def is_strongly_critical(g: Digraph, w: Iterable[int]) -> bool:
    """No vertex anywhere has exactly one out-neighbor in ``w``."""
    s = check_nonempty_vertex_set(g, w, "critical-set candidate")
    return all(len(g.out_neighborhood(v) & s) != 1 for v in range(g.n))


def in_twin_classes(g: Digraph) -> list[frozenset[int]]:
    """The classes of at least two vertices that share one non-empty
    in-neighborhood, ordered by least member; every pair inside a class is
    a fort."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for v, into in enumerate(g._in):
        if into:
            classes.setdefault(into, []).append(v)
    return [frozenset(c) for c in classes.values() if len(c) > 1]


def twin_forcing_lower_bound(g: Digraph) -> int:
    """``sum(|C| - 1)`` over the in-twin classes: a lower bound on the
    zero forcing number of ``g``, with or without loops."""
    return sum(len(c) - 1 for c in in_twin_classes(g))
