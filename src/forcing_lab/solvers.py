"""Exact minimum-set solvers for zero forcing and power domination: an
exhaustive scan, and a fort-cover solver that ``verify`` reads.

The scan is the independent oracle the closed-form results and the
fort-cover solver are checked against, so it stays simple: candidate
sets are taken in lexicographic order, smallest size first, and the
first whose closure colors every vertex is the lexicographically least
minimum witness.

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

The fort-cover solver (Brimkov, Fast & Hicks, "Computational approaches
for zero forcing and related problems", EJOR 2019) keeps a list of
vertex sets, the constraints, that every closing set must meet.  It
seeds them, finds a minimum hitting set, closes it, and learns new
constraints from a set that does not close, until a minimum hitting set
closes.  A constraint is valid when every closing set meets it; the
seeds of a set ``S`` are ``S`` itself for zero forcing and ``S`` with its
out-neighbors for power domination, and ``S`` closes when the closure of
its seeds is every vertex.

- The white set ``W = V - cl(X)`` that the seeds of a set ``X`` leave is
  valid for zero forcing, and ``N-[W]``, ``W`` with its in-neighbors,
  for power domination.  Let ``C = cl(X)``.  If the seeds of ``S`` lie
  in ``C``, then ``cl(S) <= cl(C) = C``, as the closure is monotone and
  idempotent, and ``S`` does not close.  So the seeds of a closing set
  meet ``W``: for zero forcing ``S`` meets ``W``, and for power
  domination a vertex of ``S`` is in ``W`` or has an out-neighbor there,
  so ``S`` meets ``N-[W]``.
- An in-twin pair ``{a, b}``, two vertices with the same in-neighbors,
  is valid for zero forcing, and ``N-[{a, b}]`` for power domination.
  Every vertex has both or neither of ``a`` and ``b`` as out-neighbors,
  so none can force while both are white, under either rule, and seeds
  that miss both never color either.
- So for zero forcing a closing set holds at least ``|C| - 1`` vertices
  of each in-twin class ``C``, the class's *row*: a set that missed two,
  ``a`` and ``b``, would miss the valid pair ``{a, b}``.
- A minimum hitting set ``H`` that closes is a minimum closing set:
  every closing set meets every valid constraint, so it is a hitting
  set and has at least ``|H|`` vertices.  If ``H`` is empty, which only
  the loop rule allows, every single vertex closes too, and the answer
  is 1 with witness ``{0}``, as in the scan.

The in-twin classes of two or more vertices, grouped by in-mask, seed a
row each for zero forcing, and ``N-[pair]`` for each pair in them for
power domination.  A hitting set meets every constraint and holds what
every row needs.  Each round finds a minimum one by a depth-first search
at one size at a time, from the previous round's size up, since
constraints are only added; the first starts at the sum of ``|C| - 1``,
as the rows are disjoint.  At a node with ``X`` chosen and ``A``
allowed, a row needs ``|C| - 1 - |C & X|`` more of ``C & A - X``, and
the bound adds those needs and one for each of a greedy packing of
disjoint unmet constraints that miss every row in need.  A hitting set
that extends the node adds that many vertices inside each row in need
and one inside each packed constraint, all disjoint, so the bound never
exceeds it, and the node is pruned when the bound passes the size left
or a row cannot meet its need.  It branches, each child excluding the
earlier ones, on what is left of the row in need or unmet constraint
with the fewest vertices left, one of which every such hitting set
holds.  The set is closed from scratch.  If it does not close, its white
set is learned, and the set is extended by its least white vertex,
closed again and its white set learned, until it closes; then the next
round starts.  Each learned constraint is unmet by the set it came from,
so no round repeats a hitting set.  ``fort_cover_minimum`` refuses an
order above ``_MAX_ORDER`` too, and raises :class:`ResourceLimitError`
once its hitting-set nodes and closures together pass
``_MAX_FORT_STEPS``; every learned constraint follows a closure, so the
constraints held never outnumber the seeds plus that budget.  Its
witness is a minimum closing set, not in general the lexicographically
least one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .digraph import Digraph, adjacency_masks
from .errors import ResourceLimitError


# The largest order scanned, and the closures one scan may compute; the
# budget is what bounds time and memory at any order.
_MAX_ORDER = 40
_MAX_CLOSURES = 5_000_000
# The hitting-set nodes and closures one fort-cover solve may take together.
_MAX_FORT_STEPS = 5_000_000


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


def _members(mask: int) -> list[int]:
    """The vertices of ``mask``, in increasing order."""
    found = []
    while mask:
        bit = mask & -mask
        mask ^= bit
        found.append(bit.bit_length() - 1)
    return found


class FortCoverResult(NamedTuple):
    """A proven-minimum set: a minimum hitting set of valid constraints
    that closes.  ``subsets_tested`` counts the closures computed,
    ``nodes`` the hitting-set search nodes, and ``rounds`` the hitting
    sets solved; ``constraints_seeded`` counts the rows for zero forcing
    and the ``N-[pair]`` seeds for power domination.  A named tuple: a
    frozen dataclass would add about a millisecond to every import of the
    package."""

    number: int
    witness: frozenset[int]
    subsets_tested: int
    rounds: int
    constraints_seeded: int
    constraints_learned: int
    nodes: int


def fort_cover_minimum(g: Digraph, dominate: bool) -> FortCoverResult:
    """A minimum zero forcing set of ``g``, or with ``dominate`` a minimum
    power dominating set, by the fort-cover loop of the module docstring."""
    n = g.n
    if n > _MAX_ORDER:
        raise ResourceLimitError(
            f"order {n} exceeds the configured solver limit {_MAX_ORDER}"
        )
    budget = _MAX_FORT_STEPS
    masks, inn = adjacency_masks(g)
    seeds = [(1 << v) | (masks[v] if dominate else 0) for v in range(n)]
    loop_rule = g.has_loops
    full = (1 << n) - 1
    nodes = tested = 0

    def must_meet(white: int) -> int:
        """The constraint a set must meet to color part of ``white``."""
        if dominate:
            for v in _members(white):
                white |= inn[v]
        return white

    def spend() -> None:
        if nodes + tested > budget:
            raise ResourceLimitError(f"fort-cover budget of {budget} steps exhausted")

    def close(colored: int, fresh: int, pool: int) -> int:
        nonlocal tested
        tested += 1
        spend()
        return _closure(masks, inn, loop_rule, colored, fresh, pool)

    def hit(k: int, chosen: int, allowed: int) -> int | None:
        """``chosen`` with at most ``k`` more vertices of ``allowed`` that
        meets every constraint and holds what every row needs, or None."""
        nonlocal nodes
        nodes += 1
        spend()
        packed = bound = 0
        branch, fewest = 0, n + 1
        for row, least in rows:
            need = least - (row & chosen).bit_count()
            if need > 0:
                row &= allowed & ~chosen
                count = row.bit_count()
                if need > count:
                    return None
                bound += need
                packed |= row
                if count < fewest:
                    branch, fewest = row, count
        if bound > k:
            return None
        for c in constraints:
            if c & chosen:
                continue
            c &= allowed
            if not c:
                return None
            if not c & packed:
                packed |= c
                bound += 1
                if bound > k:
                    return None
            count = c.bit_count()
            if count < fewest:
                branch, fewest = c, count
        if not branch:
            return chosen
        for v in _members(branch):
            found = hit(k - 1, chosen | 1 << v, allowed)
            if found is not None:
                return found
            allowed &= ~(1 << v)
        return None

    # in-twin classes: classes maps an in-mask to the vertices seen with it
    constraints: list[int] = []
    classes: dict[int, int] = {}
    for v, key in enumerate(inn):
        twins = classes.get(key, 0)
        if dominate:
            constraints += [must_meet(1 << u | 1 << v) for u in _members(twins)]
        classes[key] = twins | 1 << v
    rows = [(c, c.bit_count() - 1) for c in classes.values() if c & (c - 1)]
    if dominate:
        rows = []
    seeded = len(constraints)
    size = sum(least for _, least in rows)
    rounds = 0
    while True:
        rounds += 1
        # smallest first, so that the packing takes the tight ones
        constraints.sort(key=int.bit_count)
        while (chosen := hit(size, 0, full)) is None:
            size += 1
        colored = 0
        for v in _members(chosen):
            colored |= seeds[v]
        # from scratch: every vertex is fresh, and under the loop rule
        # every vertex may force, the empty set's closure included
        colored = close(colored, full, full)
        if colored == full:
            return FortCoverResult(
                number=chosen.bit_count() or 1,
                witness=frozenset(_members(chosen or 1)),
                subsets_tested=tested,
                rounds=rounds,
                constraints_seeded=seeded + len(rows),
                constraints_learned=len(constraints) - seeded,
                nodes=nodes,
            )
        while colored != full:
            white = full & ~colored
            constraints.append(must_meet(white))
            fresh = seeds[(white & -white).bit_length() - 1] & ~colored
            colored = close(colored | fresh, fresh, 0)
