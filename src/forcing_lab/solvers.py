"""Exhaustive minimum-set solvers for zero forcing and power domination.

These are the independent oracles the closed-form results are checked
against, so they stay simple: candidate sets are taken in lexicographic
order, smallest size first, and the first whose closure colors every
vertex is the lexicographically least minimum witness.

The scan goes one size at a time.  A level maps the closure of each
surviving set of the previous size to that set's vertex mask, in the
order reached, which is lexicographic; the first level holds the empty
set.  Each set is extended only by the vertices after its last one.  A
child's closure starts from its parent's plus the seeds of the new
vertex (the vertex itself, and for power domination its out-neighbors
too), and re-examines only the vertices whose white out-degree dropped,
the in-neighbors of newly colored vertices, plus, without the loop rule,
the newly colored vertices themselves.  Under the loop rule a white
vertex may force too, so the closure of the empty set can be nonempty:
the empty set is not closed, and the closure of a first seed examines
every vertex.  The first child whose closure colors every vertex is the
answer.

Children are pruned by dominance.  The closure ``cl`` (of the union of
the seeds of a set) is extensive, monotone and idempotent under either
rule: a force available from ``X`` is still available, or already done,
from any superset of ``X``.  A child ``P`` whose closure is already a key
of the previous level or of the new one is dropped, and
``prefixes_pruned`` counts it.  Then a set ``R`` reached earlier has
``cl(R) = cl(P)``, and either ``|R| < |P|`` (previous level), or
``|R| = |P|`` and ``R`` comes lexicographically before ``P`` (same
level).  Take the lexicographically first minimum closing set ``W``, and
suppose its shortest prefix that is not kept is such a ``P``, with
``W = P | X``.  Then ``R | X`` closes too, since
``cl(R | X) = cl(cl(R) | X) = cl(P | X)``.  Either it is smaller than
``W``, or ``R`` and ``X`` are disjoint and ``|R| = |P|``, so it has the
size of ``W`` and comes before it: ``R`` agrees with ``P`` up to a
smaller vertex, and all of ``X`` comes after ``P``.  Both contradict the
choice of ``W``, so the scan reaches ``W`` and, taking each size in
lexicographic order, returns it.  The key of the empty set, 0, is not
its closure under the loop rule, but no child's closure is empty, so
none is dropped by it.  Only the previous level is kept as a memo; one
over all levels would hold every set for few more cuts.

A vertex whose seeds already lie in the closure of its parent is the
cheap special case, with ``R`` the parent itself: the child is skipped
without computing a closure.  It never fires at size 1, where the parent
is empty.

Siblings dominate each other too.  The child ``P + v`` of a kept set
``P`` is skipped, before its closure is computed, when its fresh seeds
(those outside ``cl(P)``) lie in the closure of one earlier child
``P + a``, ``a < v``, of the same parent, and ``siblings_skipped``
counts it.  Suppose ``P + v`` were a prefix of ``W``.  Then
``W' = W - v + a`` closes: ``cl(W')`` holds ``cl(P + a)``, so the seeds
of ``v``, and the seeds of ``W - v``, so every seed of ``W``.  If ``a``
is in ``W``, ``W'`` is smaller; if not, it has the size of ``W`` and
comes before it, since the vertices of ``W`` below ``v`` are those of
``P``, all below ``a``.  Either contradicts the choice of ``W``.  The
union of the earlier siblings' closures is only a pre-filter: one
closure must hold all the fresh seeds.  The earlier siblings include
those the memo then drops, and not those skipped, whose closures lie in
an earlier one.  At size 1 the parent is empty and the same ``W'`` works
for every ``W`` holding ``v``, so a vertex skipped there is left out of
every later size and counted once.

The closure deliberately does not share code with the worklist engine in
:mod:`forcing_lab.propagation`: this module imports nothing from the
package but ``digraph`` and ``errors``.  Every witness the constructions
return is certified by that engine, so a fault in it must not be able to
reach the oracle that re-derives the same numbers.  It also keeps one word per
vertex, which on the small digraphs the solvers scan costs less than the
engine's set bookkeeping.

Both problems share one scan.  No theorem-derived lower bound is applied:
the scan starts at size 1, so its verdicts stay independent of the
results being validated.

Limits are explicit: an order above ``_MAX_ORDER`` raises
:class:`ResourceLimitError`, and so does a scan that computes more than
``_MAX_CLOSURES`` closures.  ``subsets_tested`` counts every closure
computed, at every size, and ``tested_per_size`` splits it by size;
skipped children are not counted.  Every set a level holds had its
closure computed, so the sets held never outnumber ``subsets_tested <=
_MAX_CLOSURES``, at about 110 bytes each (a dict slot and two ints).  The
solver never silently approximates.  There is no wall-clock limit, so a
verdict never depends on the speed of the host.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, adjacency_masks
from .errors import ResourceLimitError


# The largest order scanned, and the closures one scan may compute; the
# budget is what bounds time and memory at any order.
_MAX_ORDER = 40
_MAX_CLOSURES = 5_000_000


@dataclass(frozen=True)
class MinimumSetResult:
    """A proven-minimum set: every smaller size was exhausted first."""

    number: int
    witness: frozenset[int]
    subsets_tested: int
    prefixes_pruned: int
    siblings_skipped: int
    tested_per_size: tuple[int, ...]


def _closure(
    masks: list[int],
    inn: list[int],
    loop_rule: bool,
    colored: int,
    fresh: int,
    pool: int,
) -> int:
    """The closure of ``colored``, given that before the vertices in
    ``fresh`` were colored no vertex outside ``pool`` could force.

    A vertex can start to force only when its white out-degree drops, so
    when it is an in-neighbor of a fresh vertex, or, without the loop
    rule, when it is fresh itself; only those are examined again.
    """
    while fresh:
        if not loop_rule:
            pool |= fresh
        while fresh:
            bit = fresh & -fresh
            fresh ^= bit
            pool |= inn[bit.bit_length() - 1]
        if not loop_rule:
            pool &= colored
        while pool:
            bit = pool & -pool
            pool ^= bit
            white = masks[bit.bit_length() - 1] & ~colored
            if white and not white & (white - 1):
                colored |= white
                fresh |= white
    return colored


def _scan(g: Digraph, dominate: bool) -> MinimumSetResult:
    """The lexicographically first set, smallest size first, whose closure
    colors every vertex; with ``dominate`` each seed first colors its
    out-neighbors as well."""
    n = g.n
    if n > _MAX_ORDER:
        raise ResourceLimitError(
            f"order {n} exceeds the configured solver limit {_MAX_ORDER}"
        )
    budget = _MAX_CLOSURES
    masks, inn = adjacency_masks(g)
    seeds = [(1 << v) | (masks[v] if dominate else 0) for v in range(n)]
    loop_rule = g.has_loops
    full = (1 << n) - 1
    # level maps the closure of each surviving set of the previous size to
    # its vertex mask, in lexicographic order; the empty set starts it.
    level = {0: 0}
    tested = pruned = skipped = excluded = 0
    per_size: list[int] = []
    # later[u] lists the vertices from u on that may still be chosen.
    later = [range(u, n) for u in range(n + 1)]
    # Under the loop rule the empty set can force, so a first seed's
    # closure examines every vertex.
    pool = full if loop_rule else 0
    while level:
        before = tested
        nxt: dict[int, int] = {}
        for base, chosen in level.items():
            # the union and the list of the closures of earlier siblings
            reached, earlier = 0, []
            for v in later[chosen.bit_length()]:
                fresh = seeds[v] & ~base
                if not fresh:
                    continue
                # skipped when one earlier closure holds every fresh seed
                if not fresh & ~reached and fresh in map(fresh.__and__, earlier):
                    skipped += 1
                    if not chosen:
                        excluded |= 1 << v
                    continue
                tested += 1
                if tested > budget:
                    raise ResourceLimitError(f"subset budget of {budget} exhausted")
                colored = _closure(masks, inn, loop_rule, base | fresh, fresh, pool)
                if colored == full:
                    chosen |= 1 << v
                    return MinimumSetResult(
                        number=len(per_size) + 1,
                        witness=frozenset(u for u in range(n) if chosen >> u & 1),
                        subsets_tested=tested,
                        prefixes_pruned=pruned,
                        siblings_skipped=skipped,
                        tested_per_size=(*per_size, tested - before),
                    )
                reached |= colored
                earlier.append(colored)
                if colored in level or colored in nxt:
                    pruned += 1
                else:
                    nxt[colored] = chosen | 1 << v
        if excluded:
            later = [[u for u in vs if not excluded >> u & 1] for vs in later]
            excluded = 0
        per_size.append(tested - before)
        level = nxt
        pool = 0
    raise AssertionError("the full vertex set always succeeds")


def min_zero_forcing(g: Digraph) -> MinimumSetResult:
    """Minimum zero forcing set by exhaustive scan, smallest size first."""
    return _scan(g, dominate=False)


def min_power_dominating(g: Digraph) -> MinimumSetResult:
    """Minimum power dominating set by exhaustive scan, smallest size first."""
    return _scan(g, dominate=True)
