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

By default no theorem-derived lower bound is applied: the solver scans
from size 1 so its verdicts stay independent of the results being
validated.  Callers may opt in to seeding via ``lower_bound`` or
``seed_critical`` when independence does not matter.

Limits are explicit.  Exceeding any of them raises
:class:`ResourceLimitError`; the solver never silently approximates.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

from .critical import greedy_forcing_lower_bound
from .digraph import Digraph, adjacency_masks
from .errors import DomainError, ResourceLimitError


@dataclass(frozen=True)
class SearchLimits:
    """Bounds on the exhaustive search; None disables the wall clock."""

    max_n: int = 24
    max_subsets: int = 5_000_000
    max_seconds: float | None = None


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


class _Budget:
    def __init__(self, limits: SearchLimits) -> None:
        self.limits = limits
        self.tested = 0
        self.started = time.monotonic()

    def spend(self) -> None:
        self.tested += 1
        if self.tested > self.limits.max_subsets:
            raise ResourceLimitError(
                f"subset budget of {self.limits.max_subsets} exhausted"
            )
        if self.limits.max_seconds is not None and self.tested % 2048 == 0:
            if time.monotonic() - self.started > self.limits.max_seconds:
                raise ResourceLimitError(
                    f"wall budget of {self.limits.max_seconds}s exhausted"
                )


def _check_order(g: Digraph, limits: SearchLimits) -> None:
    if g.n > limits.max_n:
        raise ResourceLimitError(
            f"order {g.n} exceeds the configured solver limit {limits.max_n}"
        )


def min_zero_forcing(
    g: Digraph,
    *,
    limits: SearchLimits | None = None,
    lower_bound: int = 1,
    seed_critical: bool = False,
) -> MinimumSetResult:
    """Minimum zero forcing set by exhaustive scan, smallest size first.

    ``lower_bound`` skips sizes below a bound the caller certifies;
    ``seed_critical`` additionally packs a greedy disjoint family of
    (strongly) critical sets to raise it.  Both default off.
    """
    limits = limits or DEFAULT_LIMITS
    _check_order(g, limits)
    if lower_bound < 1:
        raise DomainError(f"lower bound must be at least 1, got {lower_bound}")
    if seed_critical:
        lower_bound = max(lower_bound, greedy_forcing_lower_bound(g))
    masks, _ = adjacency_masks(g)
    loop_rule = g.has_loops
    full = (1 << g.n) - 1
    budget = _Budget(limits)
    for size in range(lower_bound, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            budget.spend()
            start = 0
            for v in combo:
                start |= 1 << v
            if _zf_complete(g.n, masks, loop_rule, start, full):
                return MinimumSetResult(
                    number=size,
                    witness=frozenset(combo),
                    subsets_tested=budget.tested,
                )
    raise AssertionError("the full vertex set always forces")


def min_power_dominating(
    g: Digraph,
    *,
    limits: SearchLimits | None = None,
    lower_bound: int = 1,
    known_zero_forcing: int | None = None,
    line_digraph_bound: bool = False,
) -> MinimumSetResult:
    """Minimum power dominating set by exhaustive scan, smallest size first.

    When the zero forcing number is supplied, sizes below
    ``ceil(Z / (max_out + 1))`` are skipped (each seed colors itself plus
    at most ``max_out`` vertices, so the dominated set of a solution is a
    zero forcing set of bounded size).  ``line_digraph_bound`` sharpens
    the denominator to ``max_out``, which is only valid when ``g`` is a
    line digraph; the caller vouches for that.
    """
    limits = limits or DEFAULT_LIMITS
    _check_order(g, limits)
    if lower_bound < 1:
        raise DomainError(f"lower bound must be at least 1, got {lower_bound}")
    if known_zero_forcing is not None:
        max_out = g.degrees().max_out
        denominator = max_out if line_digraph_bound else max_out + 1
        if denominator >= 1:
            implied = -(-known_zero_forcing // denominator)
            lower_bound = max(lower_bound, implied)
    masks, _ = adjacency_masks(g)
    loop_rule = g.has_loops
    full = (1 << g.n) - 1
    budget = _Budget(limits)
    for size in range(lower_bound, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            budget.spend()
            start = 0
            for v in combo:
                start |= 1 << v
            dominated = start
            for v in combo:
                dominated |= masks[v]
            if _zf_complete(g.n, masks, loop_rule, dominated, full):
                return MinimumSetResult(
                    number=size,
                    witness=frozenset(combo),
                    subsets_tested=budget.tested,
                )
    raise AssertionError("the full vertex set always power dominates")
