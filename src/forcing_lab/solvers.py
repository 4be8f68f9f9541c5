"""Exhaustive minimum-set solvers for zero forcing and power domination.

These are the independent oracles the closed-form results are checked
against, so they stay simple: candidate sets are taken in lexicographic
order, smallest size first, and the first whose closure colors every
vertex is the lexicographically least minimum witness.

For each size the combinations are walked depth-first, with the closure
of each prefix kept on a stack.  A child's closure starts from its
parent's plus the seeds of the new vertex (the vertex itself, and for
power domination its out-neighbors too), and re-examines only the
vertices whose white out-degree dropped, the in-neighbors of newly
colored vertices, plus, without the loop rule, the newly colored
vertices themselves.  Under the loop rule a white vertex may force too,
so the closure of the empty set can be nonempty: the root of the walk is
not closed, and the closure of a first seed examines every vertex.

Prefixes are pruned by dominance.  The closure ``cl`` (of the union of
the seeds of a set) is extensive, monotone and idempotent under either
rule: a force available from ``X`` is still available, or already done,
from any superset of ``X``.  Let ``R`` be a prefix the walk reached
before the prefix ``P``, with ``|R| <= |P|`` and ``cl(R) = cl(P)``.  If
``P | X`` closes, for vertices ``X`` after those of ``P``, then so does
``R | X``, since ``cl(R | X) = cl(cl(R) | X) = cl(P | X)``.  Either
``R | X`` is smaller, which cannot be, since every smaller size has
already failed; or ``R`` and ``X`` are disjoint and ``|R| = |P|``, so
``R | X`` is a closing set of the same size that comes lexicographically
before ``P | X``.  So a passed-over set that closes always has an earlier
closing set of its size, and the first one is never passed over.  Each
size therefore keeps a memo from the closure of each internal prefix to
the least length it was reached at, and a prefix whose closure the memo
holds at the same or a smaller length is pruned with its whole subtree;
``prefixes_pruned`` counts these.

A vertex whose seeds already lie in the closure of the prefix is the
cheap special case, with ``R = P`` itself: the extended prefix has the
closure of a smaller one, so it is skipped without computing a closure,
and such sets never count in ``subsets_tested``.  It never fires at the
root, where the prefix is empty.

The closure deliberately does not share code with the worklist engine in
:mod:`forcing_lab.propagation`.  Every witness the constructions return is
certified by that engine, so a fault in it must not be able to reach the
oracle that re-derives the same numbers.  It also keeps one word per
vertex, which on the small digraphs the solvers scan costs less than the
engine's set bookkeeping.

Both problems share one scan.  No theorem-derived lower bound is applied:
the scan starts at size 1, so its verdicts stay independent of the
results being validated.

Limits are explicit: an order above ``max_n`` raises
:class:`ResourceLimitError`, and so does a scan that computes the closure
of more than ``max_subsets`` full-size candidate sets.  ``subsets_tested``
counts those same sets; skipped and pruned sets and the closures of
prefixes are not counted.  The memo shares that budget: it stops
recording once its entries and the sets tested so far together reach
``max_subsets``, so it never holds more than ``max_subsets`` closures
(about 100 bytes each).  Pruning is optional, so a full memo can cost
time but never changes an answer.  The solver never silently
approximates.  There is no wall-clock limit, so a verdict never depends
on the speed of the host.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph, adjacency_masks
from .errors import ResourceLimitError


@dataclass(frozen=True)
class SearchLimits:
    """Bounds on the exhaustive search: the largest order it accepts and
    the number of full-size candidate sets whose closure it may compute."""

    max_n: int = 24
    max_subsets: int = 5_000_000


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True)
class MinimumSetResult:
    """A proven-minimum set: every smaller size was exhausted first."""

    number: int
    witness: frozenset[int]
    subsets_tested: int
    prefixes_pruned: int


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


def _scan(g: Digraph, limits: SearchLimits | None, dominate: bool) -> MinimumSetResult:
    """The lexicographically first set, smallest size first, whose closure
    colors every vertex; with ``dominate`` each seed first colors its
    out-neighbors as well."""
    limits = limits or DEFAULT_LIMITS
    n = g.n
    if n > limits.max_n:
        raise ResourceLimitError(
            f"order {n} exceeds the configured solver limit {limits.max_n}"
        )
    masks, inn = adjacency_masks(g)
    seeds = [(1 << v) | (masks[v] if dominate else 0) for v in range(n)]
    loop_rule = g.has_loops
    full = (1 << n) - 1
    # Under the loop rule the empty set can force, so the root is not
    # closed and a first seed's closure examines every vertex.
    root_pool = full if loop_rule else 0
    tested = pruned = 0
    for size in range(1, n + 1):
        # combo[:depth] is the prefix, closed[j] the closure of the seeds
        # of its first j vertices, v the next vertex to try after it;
        # seen maps the closure of an internal prefix combo[:depth + 1]
        # to the least depth it was reached at.
        combo = [0] * size
        closed = [0] * size
        seen: dict[int, int] = {}
        depth = v = 0
        while True:
            if v > n - size + depth:
                if not depth:
                    break
                depth -= 1
                v = combo[depth] + 1
                continue
            base = closed[depth]
            fresh = seeds[v] & ~base
            if not fresh:
                v += 1
                continue
            combo[depth] = v
            colored = _closure(
                masks, inn, loop_rule, base | fresh, fresh, 0 if depth else root_pool
            )
            if depth + 1 < size:
                if seen.get(colored, size) <= depth:
                    pruned += 1
                    v += 1
                    continue
                if len(seen) + tested < limits.max_subsets:
                    seen[colored] = depth
                depth += 1
                closed[depth] = colored
                v += 1
                continue
            tested += 1
            if tested > limits.max_subsets:
                raise ResourceLimitError(
                    f"subset budget of {limits.max_subsets} exhausted"
                )
            if colored == full:
                return MinimumSetResult(
                    number=size,
                    witness=frozenset(combo),
                    subsets_tested=tested,
                    prefixes_pruned=pruned,
                )
            v += 1
    raise AssertionError("the full vertex set always succeeds")


def min_zero_forcing(
    g: Digraph, *, limits: SearchLimits | None = None
) -> MinimumSetResult:
    """Minimum zero forcing set by exhaustive scan, smallest size first."""
    return _scan(g, limits, dominate=False)


def min_power_dominating(
    g: Digraph, *, limits: SearchLimits | None = None
) -> MinimumSetResult:
    """Minimum power dominating set by exhaustive scan, smallest size first."""
    return _scan(g, limits, dominate=True)
