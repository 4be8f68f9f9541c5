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
perfect matching and are not re-checked: ``verify cycle-factorization``
and the tests against a reference matching, which share no code with it,
check that the factors split the arcs.

All tie-breaks (choice of excluded out-neighbor, choice of in-neighbor,
matching augmentation order) resolve to the least vertex id, making every
witness reproducible.

A line-digraph witness makes one choice per base vertex, then takes each
id ``i`` of the iterate whose walk ``labels[i]`` fits it: witness ids are
label positions (see ``lines``), and no walk is ever looked up.  The CLI
prints a witness with its walks, read from ``line.labels``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from .digraph import Digraph, check_nonempty_vertex_set
from .errors import DomainError, ResourceLimitError
from .lines import LineLabeledDigraph, iterated_line, line_digraph
from .propagation import PropagationTrace, pd_closure, zf_closure

# Heads one perfect matching may try past its first step: about two
# seconds of search (2-core x86_64, Python 3.11.7).  The largest family
# call tries 294,912 (GB(4, 2^17)'s first factor) and a random 3-regular
# digraph of order 8192 1.3*10^6, while the chain of loops with arcs
# (u, u - 1), (u, u) tries about n^2 / 2, past the bound from order 2830.
_MATCHING_HEADS = 4_000_000


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
    """Augmenting-path perfect matching tails -> heads over the sorted
    out-neighbor lists ``neighbors``; ``result[v]`` is the tail matched to
    head ``v``.  Deterministic: least ids first.

    The depth-first search keeps an explicit stack of tails, each with the
    index of the head it is trying, so a path through every vertex needs
    no recursion.  Past ``_MATCHING_HEADS`` heads tried it raises
    :class:`ResourceLimitError`.
    """
    n = len(neighbors)
    match_head = [-1] * n
    tried = 0
    visited = [-1] * n  # visited[v] == root: head v seen while augmenting root
    for root in range(n):
        row = neighbors[root]
        if row and match_head[row[0]] == -1:
            # The search's first step, taken without building its stacks.
            match_head[row[0]] = root
            continue
        tails = [root]
        positions = [0]
        while tails:
            row = neighbors[tails[-1]]
            i = positions[-1]
            while i < len(row) and visited[row[i]] == root:
                i += 1
            if i == len(row):
                # No augmenting path through this tail: its parent moves
                # on to its next head.
                tails.pop()
                positions.pop()
                if positions:
                    positions[-1] += 1
                continue
            tried += 1
            if tried > _MATCHING_HEADS:
                raise ResourceLimitError(
                    f"perfect matching gave up after {_MATCHING_HEADS} heads tried"
                )
            v = row[i]
            visited[v] = root
            positions[-1] = i
            if match_head[v] == -1:
                for u, j in zip(tails, positions):
                    match_head[neighbors[u][j]] = u
                break
            tails.append(match_head[v])
            positions.append(0)
        else:
            return None
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
    spared = []
    for v, heads in enumerate(g._out):
        spare = next((w for w in heads if w not in on_bad_cycle), None)
        if spare is None:
            raise AssertionError(
                f"vertex {v} has every out-neighbor on an in-degree-one cycle"
            )
        spared.append(spare)
    labeled = line_digraph(g)
    chosen = {i for i, (v, w) in enumerate(labeled.labels) if w != spared[v]}
    return _verified(labeled, chosen, g.arc_count - g.n, zf_closure, "zero forcing")


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
    labeled = iterated_line(g, 2)
    f = factor.f
    chosen = {
        i for i, (t, u, v) in enumerate(labeled.labels) if t == f[u] and u != f[v]
    }
    return _verified(
        labeled, chosen, g.arc_count - g.n, pd_closure, "power domination"
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
    labeled = line_digraph(g)
    chosen = {i for i, (u, v) in enumerate(labeled.labels) if u == tail[v]}
    return _verified(
        labeled, chosen, g.n - len(chosen_s), pd_closure, "power domination"
    )
