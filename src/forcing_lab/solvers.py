"""Exhaustive minimum-set solvers for zero forcing and power domination.

These are the independent oracles the closed-form results are checked
against, so they stay deliberately simple: enumerate candidate sets in
lexicographic order, smallest size first, and return the first success,
which is automatically the lexicographically least minimum witness.  The
only concession to speed is a word-level (bitmask) reimplementation of the
closures; its agreement with the trace-producing engine is covered by
tests.

That closure deliberately does not share code with the worklist engine in
:mod:`forcing_lab.propagation`.  Every witness the constructions return is
certified by that engine, so a fault in it must not be able to reach the
oracle that re-derives the same numbers.  It is also the faster choice
here: on the small digraphs the solvers scan, a round of bit operations on
one word per vertex costs less than the engine's worklist bookkeeping,
which pays off only on large, sparse closures.

Both problems share one scan.  No theorem-derived lower bound is applied:
the scan starts at size 1, so its verdicts stay independent of the
results being validated.

Limits are explicit: an order above ``max_n`` or a scan past
``max_subsets`` candidate sets raises :class:`ResourceLimitError`; the
solver never silently approximates.  There is no wall-clock limit, so a
verdict never depends on the speed of the host.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .digraph import Digraph, adjacency_masks
from .errors import ResourceLimitError


@dataclass(frozen=True)
class SearchLimits:
    """Bounds on the exhaustive search: the largest order it accepts and
    the number of candidate sets it may test."""

    max_n: int = 24
    max_subsets: int = 5_000_000


DEFAULT_LIMITS = SearchLimits()


@dataclass(frozen=True)
class MinimumSetResult:
    """A proven-minimum set: every smaller size was exhausted first."""

    number: int
    witness: frozenset[int]
    subsets_tested: int


def _zf_complete(
    n: int, masks: list[int], loop_rule: bool, colored: int, full: int
) -> bool:
    while colored != full:
        newly = 0
        if loop_rule:
            for u in range(n):
                white = masks[u] & ~colored
                if white and white & (white - 1) == 0:
                    newly |= white
        else:
            pool = colored
            while pool:
                bit = pool & -pool
                pool ^= bit
                white = masks[bit.bit_length() - 1] & ~colored
                if white and white & (white - 1) == 0:
                    newly |= white
        if not newly:
            return False
        colored |= newly
    return True


def _scan(g: Digraph, limits: SearchLimits | None, dominate: bool) -> MinimumSetResult:
    """The lexicographically first set, smallest size first, whose closure
    colors every vertex; with ``dominate`` each seed first colors its
    out-neighbors as well."""
    limits = limits or DEFAULT_LIMITS
    if g.n > limits.max_n:
        raise ResourceLimitError(
            f"order {g.n} exceeds the configured solver limit {limits.max_n}"
        )
    masks, _ = adjacency_masks(g)
    seeds = [(1 << v) | (masks[v] if dominate else 0) for v in range(g.n)]
    loop_rule = g.has_loops
    full = (1 << g.n) - 1
    tested = 0
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            tested += 1
            if tested > limits.max_subsets:
                raise ResourceLimitError(
                    f"subset budget of {limits.max_subsets} exhausted"
                )
            start = 0
            for v in combo:
                start |= seeds[v]
            if _zf_complete(g.n, masks, loop_rule, start, full):
                return MinimumSetResult(
                    number=size,
                    witness=frozenset(combo),
                    subsets_tested=tested,
                )
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
