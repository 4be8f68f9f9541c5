"""Constructive witnesses: zero forcing sets of line digraphs, 1-factors
and cycle factorizations, and power dominating sets of line iterates.

Each witness construction follows a constructive existence proof and then
verifies its own output with the propagation engine before returning it.  A
failed verification raises ``AssertionError``: under the documented
hypotheses the constructions are proven to work, so a failure is an
internal bug, never a property of the input.  Hypothesis violations raise
:class:`DomainError` instead.  A perfect matching that tries more than
``_MATCHING_HEADS`` heads raises :class:`ResourceLimitError`.

The factor records hold only their permutations, are built only from the
perfect matching and are not re-checked.  The checks share no code with
it: ``verify cycle-factorization`` checks that the factors split the arcs,
and the tests check each factor as a permutation on the host's arcs and
ask a reference matching only whether one exists.

The choices of excluded out-neighbor and of in-neighbor resolve to the
least vertex id.  The perfect matching is a greedy pass, tails in id order
each taking their least free head, then Hopcroft-Karp phases whose
searches start from the free tails in ascending order and try heads in
ascending order.  So every witness is reproducible.

A line-digraph witness makes one choice per base vertex and computes its
ids from arc order, with no walk built or looked up.  The walks of an
iterate are numbered in lexicographic order (see ``lines``), so in
``L(g)`` the arc ``(v, w)`` has id ``start[v]`` plus the place of ``w`` in
the out-tuple of ``v``, ``start`` the running sum of the out-degrees.  In
``L^2(g)`` the walks ``(t, u, .)`` are the arcs out of the vertex ``(t,
u)`` of ``L(g)``: one block of ids, ordered as the out-tuple of ``u``.
The CLI prints a witness with its walks, read from ``line.labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, Sequence

from .digraph import Digraph, check_nonempty_vertex_set
from .errors import DomainError, ResourceLimitError
from .lines import LineLabeledDigraph, iterated_line, line_digraph
from .propagation import PropagationTrace, pd_closure, zf_closure

# Heads one perfect matching may try in its phases: about six seconds of
# search at the 0.74 us a head measured at order 131072 (2-core x86_64,
# Python 3.11.7).  A random 3-regular digraph of order MAX_ORDER tries at
# most 3.6*10^6 in one matching (seeds 1-3) and a 4-regular one 3.7*10^6;
# no matching of the families measured tries more than 699,052
# (GK(4, 131071)).
_MATCHING_HEADS = 8_000_000


@dataclass(frozen=True)
class OneFactor:
    """A spanning 1-regular sub-digraph, stored as the permutation ``f``
    with ``f[v]`` the factor in-neighbor of ``v`` (so the factor arcs are
    exactly ``(f[v], v)``)."""

    f: tuple[int, ...]

    def arcs(self) -> frozenset[tuple[int, int]]:
        return frozenset((u, v) for v, u in enumerate(self.f))

    def cycles(self) -> list[list[int]]:
        """Factor cycles in arc order, each starting at its least vertex,
        listed by least vertex ascending."""
        return _predecessor_cycles(self.f)


@dataclass(frozen=True)
class CycleFactorization:
    """A partition of the arcs of a ``d``-regular digraph into ``d`` factors."""

    factors: tuple[OneFactor, ...]


def _predecessor_cycles(predecessor: Sequence[int]) -> list[list[int]]:
    """The cycles of a map sending each vertex to the tail of its one
    in-arc, or to -1 when it has none, in arc order, each starting at its
    least vertex, listed by least vertex ascending.  Each vertex is walked
    once."""
    walk_of = [-1] * len(predecessor)  # the start whose walk reached it
    cycles = []
    for start in range(len(predecessor)):
        path = []
        v = start
        while v >= 0 and walk_of[v] < 0:
            walk_of[v] = start
            path.append(v)
            v = predecessor[v]
        if v >= 0 and walk_of[v] == start:
            # Walked back onto this walk: its tail from v, reversed, is a
            # cycle in arc order.
            cycle = path[path.index(v) :][::-1]
            least = cycle.index(min(cycle))
            cycles.append(cycle[least:] + cycle[:least])
    cycles.sort(key=lambda c: c[0])
    return cycles


def in_degree_one_cycles(g: Digraph) -> list[list[int]]:
    """All cycles whose every vertex has in-degree exactly 1.

    Within ``{v : d^-(v) = 1}`` each vertex has a unique in-arc, so these
    cycles are the cycles of a partial function and are pairwise disjoint.
    Each cycle is returned in arc order starting at its least vertex.
    """
    return _predecessor_cycles(
        [tails[0] if len(tails) == 1 else -1 for tails in g._in]
    )


def _perfect_matching(neighbors: Sequence[Sequence[int]]) -> list[int] | None:
    """A perfect matching tails -> heads over the sorted out-neighbor
    lists ``neighbors``, or None when none exists; ``result[v]`` is the
    tail matched to head ``v``.

    A greedy pass gives each tail, in id order, its least free head.
    Hopcroft-Karp phases then match the tails left free: a breadth-first
    layering of the tails that alternating paths from them reach, then,
    from each free tail in ascending order, a search for a path that
    climbs one layer a step through tails no earlier search of the phase
    opened, heads in ascending order.  The search keeps an explicit stack,
    so a path through every vertex needs no recursion.  Each tail the
    layering or a search opens counts its whole row as heads tried; each
    layer first checks the count against ``_MATCHING_HEADS`` and raises
    :class:`ResourceLimitError` past it.
    """
    n = len(neighbors)
    match_head = [-1] * n
    free = []
    for u, row in enumerate(neighbors):
        for v in row:
            if match_head[v] < 0:
                match_head[v] = u
                break
        else:
            free.append(u)
    tried = 0
    while free:
        # layer[u]: the least number of tails before u on an alternating
        # path from a free tail; -1 once u is out of reach or opened by a
        # search.
        layer = [-1] * n
        for u in free:
            layer[u] = 0
        frontier = free
        meets_free_head = False
        depth = 0
        while frontier:
            if tried > _MATCHING_HEADS:
                raise ResourceLimitError(
                    f"perfect matching gave up after {_MATCHING_HEADS} heads tried"
                )
            depth += 1
            reached = []
            for u in frontier:
                row = neighbors[u]
                tried += len(row)
                for v in row:
                    w = match_head[v]
                    if w < 0:
                        meets_free_head = True
                    elif layer[w] < 0:
                        layer[w] = depth
                        reached.append(w)
            frontier = reached
        if not meets_free_head:
            return None  # no augmenting path: the matching is maximum
        still_free = []
        for root in free:
            tails = [root]
            positions = [0]
            tried += len(neighbors[root])
            while tails:
                u = tails[-1]
                row = neighbors[u]
                i = positions[-1]
                above = layer[u] + 1
                while i < len(row):
                    w = match_head[row[i]]
                    if w < 0 or layer[w] == above:
                        break
                    i += 1
                if i == len(row):
                    # No path through this tail in this phase: its parent
                    # moves on to its next head.
                    layer[u] = -1
                    tails.pop()
                    positions.pop()
                    if positions:
                        positions[-1] += 1
                    continue
                positions[-1] = i
                if w < 0:
                    for t, j in zip(tails, positions):
                        match_head[neighbors[t][j]] = t
                        layer[t] = -1
                    break
                tails.append(w)
                positions.append(0)
                tried += len(neighbors[w])
            else:
                still_free.append(root)
        free = still_free
    return match_head


def one_factor(g: Digraph, *, require_good: bool = False) -> OneFactor | None:
    """A 1-factor of ``g``, or None when none exists.

    With ``require_good`` the factor must have a vertex of in-degree > 1 on
    every cycle, which depends on ``g`` alone, so it is decided before any
    matching.  On a factor cycle with no vertex of in-degree > 1, each
    factor arc is the unique in-arc of its head, so the cycle is an
    in-degree-one cycle of ``g``.  Every 1-factor must use those unique
    in-arcs, so every 1-factor contains every such cycle: ``g`` has a good
    1-factor exactly when it has a 1-factor and no in-degree-one cycle.
    """
    if require_good and in_degree_one_cycles(g):
        return None
    match = _perfect_matching(g._out)
    return None if match is None else OneFactor(tuple(match))


def cycle_factorization(g: Digraph) -> CycleFactorization:
    """Partition the arcs of a ``d``-regular digraph into ``d`` 1-factors.

    Each factor is a perfect matching of the remaining arcs; deleting it
    leaves a regular digraph of one smaller degree, so the next matching
    always exists.  The factor arcs are deleted from the sorted
    out-neighbor lists in place, which keep their order.
    """
    d = g.is_regular()
    if d is None:
        raise DomainError("cycle factorization requires a regular digraph")
    neighbors = list(map(list, g._out))
    factors = []
    for _ in range(d):
        match = _perfect_matching(neighbors)
        if match is None:
            raise AssertionError("regular digraph lost its perfect matching")
        factors.append(OneFactor(tuple(match)))
        for v, u in enumerate(match):
            neighbors[u].remove(v)
    return CycleFactorization(tuple(factors))


@dataclass(frozen=True)
class LineWitness:
    """A vertex set over a line iterate, plus the verifying trace."""

    line: LineLabeledDigraph
    vertices: frozenset[int]
    trace: PropagationTrace


def _require_degrees(g: Digraph, min_out: int, min_in: int) -> None:
    deg = g.degrees()
    if deg.min_out < min_out:
        raise DomainError(
            f"minimum out-degree {deg.min_out} below required {min_out}"
        )
    if deg.min_in < min_in:
        raise DomainError(
            f"minimum in-degree {deg.min_in} below required {min_in}"
        )


def _verified(
    labeled: LineLabeledDigraph,
    chosen: set[int],
    size: int,
    closure: Callable[[Digraph, Iterable[int]], PropagationTrace],
    what: str,
) -> LineWitness:
    """``chosen`` as a witness, once it has ``size`` vertices and
    ``closure`` colors all of ``labeled``."""
    if len(chosen) != size:
        raise AssertionError(f"{what} witness has the wrong size")
    trace = closure(labeled.graph, chosen)
    if not trace.covers_all:
        raise AssertionError(f"constructed set failed {what} verification")
    return LineWitness(line=labeled, vertices=trace.initial, trace=trace)


def construct_zfs_line(g: Digraph) -> LineWitness:
    """A minimum zero forcing set of ``L(g)`` of size ``|A(g)| - |V(g)|``.

    Requires minimum out-degree 2 and minimum in-degree 1.  For each base
    vertex ``v`` one out-arc is spared: the least out-neighbor that does
    not lie on a cycle made up entirely of in-degree-one vertices (at most
    one out-neighbor can lie on such a cycle, so a spare always exists).
    All remaining arcs of ``v`` join the set.
    """
    _require_degrees(g, 2, 1)
    on_bad_cycle = {v for cycle in in_degree_one_cycles(g) for v in cycle}
    start = [0, *accumulate(map(len, g._out))]
    spared = []  # the id in L(g) of each vertex's spared arc
    for v, heads in enumerate(g._out):
        spare = next((w for w in heads if w not in on_bad_cycle), None)
        if spare is None:
            raise AssertionError(
                f"vertex {v} has every out-neighbor on an in-degree-one cycle"
            )
        spared.append(start[v] + heads.index(spare))
    chosen = set(range(g.arc_count)).difference(spared)
    return _verified(
        line_digraph(g), chosen, g.arc_count - g.n, zf_closure, "zero forcing"
    )


def construct_pds_L2(g: Digraph) -> LineWitness:
    """A power dominating set of ``L^2(g)`` of size ``|A(g)| - |V(g)|``.

    Requires minimum out-degree 2 and minimum in-degree 1, plus a 1-factor
    ``f`` whose every cycle has a vertex of in-degree > 1, found by
    :func:`one_factor`; one exists exactly when ``g`` has a 1-factor and no
    in-degree-one cycle.  The set consists of the walks ``f(u) -> u -> v``
    over all arcs ``(u, v)`` with ``u != f(v)``.
    """
    _require_degrees(g, 2, 1)
    factor = one_factor(g, require_good=True)
    if factor is None:
        raise DomainError("digraph has no suitable 1-factor")
    out, f = g._out, factor.f
    after = [0] * g.n  # after[u]: the head of the factor arc out of u
    for v, u in enumerate(f):
        after[u] = v
    # In L(g) the arc (t, u) has id start[t] + out[t].index(u).  In L^2(g)
    # the walks (t, u, .) are the ids from block[that id], the out-degrees
    # of the heads summed over the arcs before it; u spares (f(u), u, after[u]).
    start = [0, *accumulate(map(len, out))]
    block = [0, *accumulate(len(out[u]) for heads in out for u in heads)]
    chosen = set()
    for u, heads in enumerate(out):
        first = block[start[f[u]] + out[f[u]].index(u)]
        chosen.update(range(first, first + len(heads)))
        chosen.remove(first + heads.index(after[u]))
    return _verified(
        iterated_line(g, 2), chosen, g.arc_count - g.n, pd_closure, "power domination"
    )


def construct_pds_L(g: Digraph, s: Iterable[int]) -> LineWitness:
    """A power dominating set of ``L(g)`` of size ``|V(g)| - |s|``.

    Requires minimum out- and in-degree 2 and a non-empty ``s`` on two
    conditions: the out-neighborhoods of the vertices of ``s`` are pairwise
    disjoint, and each meets ``s`` in nothing or only its own vertex
    (violations raise :class:`DomainError`).  Every vertex covered by ``s``
    then has exactly one in-neighbor inside ``s``; each vertex ``v`` outside
    ``s`` is paired with that unique in-neighbor when covered, else with its
    least in-neighbor, and the paired arcs form the returned set.
    """
    _require_degrees(g, 2, 2)
    chosen_s = check_nonempty_vertex_set(g, s, "the disjoint-out-neighborhood set")
    owner: dict[int, int] = {}  # covered vertex -> its in-neighbor in s
    for x in sorted(chosen_s):
        extra = (g.out_neighborhood(x) & chosen_s) - {x}
        if extra:
            raise DomainError(
                f"set fails the out-neighborhood conditions: out-neighborhood "
                f"of {x} meets the set at {sorted(extra)} rather than only itself"
            )
        for v in g.out_neighborhood(x):
            y = owner.setdefault(v, x)
            if y != x:
                raise DomainError(
                    f"set fails the out-neighborhood conditions: vertices {y} "
                    f"and {x} have intersecting out-neighborhoods"
                )
    # Each vertex's paired in-neighbor; -1, no vertex, for those of s.
    tail = [-1 if v in chosen_s else owner.get(v, min(g._in[v])) for v in range(g.n)]
    start = [0, *accumulate(map(len, g._out))]
    chosen = {start[u] + g._out[u].index(v) for v, u in enumerate(tail) if u >= 0}
    return _verified(
        line_digraph(g), chosen, g.n - len(chosen_s), pd_closure, "power domination"
    )
