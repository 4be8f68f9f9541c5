"""Critical and strongly critical sets, and disjoint-family lower bounds.

A non-empty set ``W`` is critical when no vertex outside ``W`` has exactly
one out-neighbor inside ``W``; it is strongly critical when no vertex at
all, members of ``W`` included, has exactly one out-neighbor inside ``W``.
Once the forcing process stalls with white set ``W``, that ``W`` is
(strongly) critical, so every zero forcing set must meet every strongly
critical set, and in loop-free digraphs every critical set.  Pairwise
disjoint families of such sets therefore force a lower bound on the zero
forcing number: one seed vertex is needed inside each member.

The family search prefers candidates drawn from out-neighborhoods (subsets
of a single out-neighborhood of size at least two, which in line digraphs
are always strongly critical) and only falls back to scanning all vertex
subsets on small orders.  A ``None`` result means "not found at this
scale", never a disproof.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable

from .digraph import Digraph, check_vertex_set
from .errors import DomainError

# Orders up to which the family search falls back to all vertex subsets.
_MAX_GENERAL_N = 12


def _checked_nonempty(g: Digraph, w: Iterable[int]) -> frozenset[int]:
    s = check_vertex_set(g, w)
    if not s:
        raise DomainError("critical-set candidate must be non-empty")
    return s


def is_critical(g: Digraph, w: Iterable[int]) -> bool:
    """No vertex outside ``w`` has exactly one out-neighbor in ``w``."""
    s = _checked_nonempty(g, w)
    return all(
        len(g.out_neighborhood(v) & s) != 1 for v in range(g.n) if v not in s
    )


def is_strongly_critical(g: Digraph, w: Iterable[int]) -> bool:
    """No vertex anywhere has exactly one out-neighbor in ``w``."""
    s = _checked_nonempty(g, w)
    return all(len(g.out_neighborhood(v) & s) != 1 for v in range(g.n))


def _neighborhood_candidates(
    g: Digraph, predicate: Callable[[Digraph, frozenset[int]], bool]
) -> list[frozenset[int]]:
    seen: set[frozenset[int]] = set()
    for v in range(g.n):
        neighborhood = sorted(g.out_neighborhood(v))
        for size in range(2, len(neighborhood) + 1):
            for combo in itertools.combinations(neighborhood, size):
                seen.add(frozenset(combo))
    candidates = [w for w in seen if predicate(g, w)]
    candidates.sort(key=lambda w: (len(w), sorted(w)))
    return candidates


def _general_candidates(
    g: Digraph, predicate: Callable[[Digraph, frozenset[int]], bool]
) -> list[frozenset[int]]:
    found = []
    for size in range(1, g.n + 1):
        for combo in itertools.combinations(range(g.n), size):
            w = frozenset(combo)
            if predicate(g, w):
                found.append(w)
    return found


def _pack_disjoint(
    candidates: list[frozenset[int]], k: int
) -> tuple[frozenset[int], ...] | None:
    chosen: list[frozenset[int]] = []

    def extend(start: int, used: frozenset[int]) -> bool:
        if len(chosen) == k:
            return True
        if k - len(chosen) > len(candidates) - start:
            return False
        for i in range(start, len(candidates)):
            w = candidates[i]
            if used & w:
                continue
            chosen.append(w)
            if extend(i + 1, used | w):
                return True
            chosen.pop()
        return False

    if extend(0, frozenset()):
        return tuple(chosen)
    return None


def _disjoint_family(
    g: Digraph,
    k: int,
    predicate: Callable[[Digraph, frozenset[int]], bool],
) -> tuple[frozenset[int], ...] | None:
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError(f"family size must be a positive int, got {k!r}")
    candidates = _neighborhood_candidates(g, predicate)
    found = _pack_disjoint(candidates, k)
    if found is not None:
        return found
    if g.n <= _MAX_GENERAL_N:
        general = _general_candidates(g, predicate)
        return _pack_disjoint(general, k)
    if k == 1:
        full = frozenset(range(g.n))
        if predicate(g, full):
            return (full,)
    return None


def disjoint_strongly_critical_family(
    g: Digraph, k: int
) -> tuple[frozenset[int], ...] | None:
    """``k`` pairwise disjoint strongly critical sets, or None if not found.

    Success certifies that the zero forcing number is at least ``k``.
    """
    return _disjoint_family(g, k, is_strongly_critical)


def disjoint_critical_family(
    g: Digraph, k: int
) -> tuple[frozenset[int], ...] | None:
    """``k`` pairwise disjoint critical sets, or None if not found.

    For loop-free digraphs success certifies a zero forcing lower bound of
    ``k``; the full vertex set is always critical, so ``k = 1`` succeeds.
    """
    return _disjoint_family(g, k, is_critical)


def greedy_forcing_lower_bound(g: Digraph) -> int:
    """Size of a greedily packed disjoint family of (strongly) critical sets.

    Uses strongly critical sets when the digraph has loops and plain
    critical sets otherwise, matching the hypotheses under which disjoint
    families bound the zero forcing number from below.
    """
    predicate = is_strongly_critical if g.has_loops else is_critical
    used: set[int] = set()
    count = 0
    for w in _neighborhood_candidates(g, predicate):
        if not (w & used):
            used |= w
            count += 1
    return count
