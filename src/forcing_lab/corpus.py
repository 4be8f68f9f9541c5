"""Digraph corpora for verification: seeded random generators and
exhaustive enumeration of small regular digraphs.

Everything here is deterministic given the caller-supplied
``random.Random`` instance or explicit parameters, so verification suites
produce identical corpora on every run.

Each generator first refuses, with :class:`DomainError`, an order that
is not an int of at least 1, and a degree, minimum degree or arc count
that is not an int of at least 0 (``digraph.check_int``), so no float or
negative request reaches a draw.  ``random_digraph`` likewise refuses a
probability that is a bool, not a real number, NaN or outside [0, 1].
No generator allocates past the ``digraph`` bounds: ``random_digraph``
hands ``Digraph`` its tosses as a lazy stream, which ``Digraph`` stops
reading one arc past ``MAX_ARCS``, and the others refuse, with
:class:`ResourceLimitError` and before their first draw, a request whose
working lists could pass ``MAX_ARCS`` entries or whose digraph would
pass ``MAX_ORDER`` vertices.

``regular_digraphs_up_to_iso`` picks its classes with no isomorphism
search.  Renaming the vertices by a permutation keeps every in- and
out-degree and weak connectivity, so each relabelling of a weakly
connected ``d``-regular digraph is again one that ``all_regular_digraphs``
yields, exactly once.  The swap (0 1) and the rotation (0 1 ... n-1)
generate the symmetric group (the rotation conjugates the swap into each
adjacent transposition (i i+1), and those generate it), so closing a
digraph breadth first under the two relabellings reaches its whole
isomorphism class.  The first digraph of a class in enumeration order is
therefore the first that is not yet in the set ``seen`` of closed
classes: it is kept, its class goes into ``seen``, and every later
member of the class costs one lookup.  The representatives are the first
of each class in enumeration order, as a pairwise isomorphism test over
the same walk would pick them.  ``seen`` holds every labelled digraph of
the classes met so far, and a call whose held digraphs pass
``_MAX_HELD_ARCS`` = 2^20 arcs in all is refused with
:class:`ResourceLimitError`: (6, 2) holds 795,240 arcs in 66,270
digraphs (1.8 s, a process peak RSS of 48 MiB), while (6, 3), (6, 4),
(7, 2) and (10, 1) are refused after 0.8-14 s at peaks of 42-81 MiB.
"""

from __future__ import annotations

import itertools
from math import comb
from numbers import Real
from random import Random
from typing import Iterator

from .digraph import MAX_ARCS, MAX_ORDER, Digraph, check_int
from .errors import DomainError, ResourceLimitError

# Resampling budget of the connectivity rejection in random_digraph_min_degrees.
_MIN_DEGREE_ATTEMPTS = 200

# The arcs of the labelled digraphs regular_digraphs_up_to_iso may hold.
# Traced at the bound, the held digraphs peaked at 24-37 MiB for (6, 3),
# (6, 4) and (7, 2), and at 65 MiB for (10, 1), whose rows are 1-tuples.
_MAX_HELD_ARCS = 2**20


def _check_probability(value: object, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, Real) or not 0 <= value <= 1:
        raise DomainError(f"{what} must be a number in [0, 1], got {value!r}")


def random_digraph(
    rng: Random,
    n: int,
    *,
    arc_probability: float = 0.3,
    loop_probability: float = 0.15,
) -> Digraph:
    """An unconstrained random digraph; every ordered pair tossed once."""
    check_int(n, "order n", 1)
    _check_probability(arc_probability, "arc_probability")
    _check_probability(loop_probability, "loop_probability")
    arcs = (
        (u, v)
        for u in range(n)
        for v in range(n)
        if rng.random() < (loop_probability if u == v else arc_probability)
    )
    return Digraph(n, arcs)


def random_digraph_min_degrees(
    rng: Random,
    n: int,
    *,
    min_out: int = 2,
    min_in: int = 1,
    extra_arcs: int = 0,
    allow_loops: bool = True,
) -> Digraph:
    """A sparse random digraph with the given minimum degrees.

    Each vertex first receives ``min_out`` random out-arcs; vertices short
    of ``min_in`` in-arcs then receive patch arcs, and ``extra_arcs``
    further random arcs are sprinkled on top.  Weak connectivity is
    enforced by resampling.  A ``min_out`` or ``min_in`` above the ``n``
    vertices (``n - 1`` without loops) is refused before any draw, and so
    are degrees that allow fewer than the ``n - 1`` arcs a weakly connected
    digraph needs, and an order whose ``n * n`` candidate arcs pass
    ``MAX_ARCS``.
    """
    check_int(n, "order n", 1)
    check_int(min_out, "min_out", 0)
    check_int(min_in, "min_in", 0)
    check_int(extra_arcs, "extra_arcs", 0)
    if min_out > (n if allow_loops else n - 1):
        raise DomainError("min_out larger than the number of available heads")
    if min_in > (n if allow_loops else n - 1):
        raise DomainError("min_in larger than the number of available tails")
    most = n * min_out + n * min_in + extra_arcs  # arcs any sample can have
    if most < n - 1:
        raise DomainError(
            f"a weakly connected digraph on {n} vertices needs {n - 1} arcs, "
            f"but min_out, min_in and extra_arcs allow at most {most}"
        )
    if n * n > MAX_ARCS:
        raise ResourceLimitError(
            f"order {n} has {n * n} candidate arcs, above the limit of {MAX_ARCS}"
        )
    for _ in range(_MIN_DEGREE_ATTEMPTS):
        arcs: set[tuple[int, int]] = set()
        for u in range(n):
            heads = [v for v in range(n) if allow_loops or v != u]
            for v in rng.sample(heads, min_out):
                arcs.add((u, v))
        in_degree = [0] * n
        for _, v in arcs:
            in_degree[v] += 1
        for v in range(n):
            while in_degree[v] < min_in:
                tails = [
                    u
                    for u in range(n)
                    if (u, v) not in arcs and (allow_loops or u != v)
                ]
                arcs.add((rng.choice(tails), v))
                in_degree[v] += 1
        missing = [
            (u, v)
            for u in range(n)
            for v in range(n)
            if (u, v) not in arcs and (allow_loops or u != v)
        ]
        for arc in rng.sample(missing, min(extra_arcs, len(missing))):
            arcs.add(arc)
        g = Digraph(n, arcs)
        if g.is_weakly_connected():
            return g
    raise DomainError(
        "could not sample a weakly connected digraph in "
        f"{_MIN_DEGREE_ATTEMPTS} tries"
    )


def random_regular_digraph(rng: Random, n: int, d: int) -> Digraph:
    """A random ``d``-regular digraph on ``n`` vertices, loops permitted.

    It starts from ``x -> pi(x) + t mod n`` for ``t < d``, with ``pi`` a
    random permutation, which is ``d``-regular for every ``d <= n``.  Then
    ``4 * d * n`` random interchanges each replace arcs ``(a, b), (c, e)``
    by ``(a, e), (c, b)`` when neither new pair is an arc yet.  An
    interchange keeps every degree, and by Ryser's theorem interchanges
    connect all 0/1 matrices with the same row and column sums, so every
    ``d``-regular digraph can be reached.  An order past ``MAX_ORDER`` or
    ``n * d`` arcs past ``MAX_ARCS`` are refused before the first draw.
    """
    check_int(n, "order n", 1)
    check_int(d, "degree d", 0)
    if d > n:
        raise DomainError(f"no {d}-regular digraph on {n} vertices")
    if n > MAX_ORDER:
        raise ResourceLimitError(f"order {n} is above the limit of {MAX_ORDER}")
    if n * d > MAX_ARCS:
        raise ResourceLimitError(f"{n * d} arcs are above the limit of {MAX_ARCS}")
    pi = rng.sample(range(n), n)
    arcs = [(x, (pi[x] + t) % n) for x in range(n) for t in range(d)]
    heads = [{(pi[x] + t) % n for t in range(d)} for x in range(n)]
    for _ in range(4 * d * n):
        i = rng.randrange(len(arcs))
        j = rng.randrange(len(arcs))
        (a, b), (c, e) = arcs[i], arcs[j]
        if e in heads[a] or b in heads[c]:
            continue  # also when a == c or b == e
        heads[a].remove(b)
        heads[a].add(e)
        heads[c].remove(e)
        heads[c].add(b)
        arcs[i], arcs[j] = (a, e), (c, b)
    return Digraph(n, arcs)


def all_regular_digraphs(n: int, d: int) -> Iterator[Digraph]:
    """Every ``d``-regular digraph on ``n`` labeled vertices, loops
    permitted, in lexicographic order of adjacency rows; the depth-first
    search over rows keeps an explicit stack, so no order meets the recursion
    limit.  More than ``MAX_ARCS`` candidate rows are refused before they
    are listed."""
    check_int(n, "order n", 1)
    check_int(d, "degree d", 0)
    if d > n:
        return
    count = comb(n, d)
    if count > MAX_ARCS:
        raise ResourceLimitError(
            f"{count} candidate rows are above the limit of {MAX_ARCS}"
        )
    rows = list(itertools.combinations(range(n), d))
    masks = [sum(1 << v for v in row) for row in rows]
    in_degree = [0] * n
    full = 0  # the vertices that already have in-degree d
    chosen: list[int] = []  # the index into rows of each row picked so far
    i = 0  # the next index into rows to try for row len(chosen)
    while True:
        u = len(chosen)
        if u == n:
            yield Digraph(n, [(w, v) for w, r in enumerate(chosen) for v in rows[r]])
            i = len(rows)
        else:
            # Row u must hold every vertex that the n - u - 1 rows after it
            # could not bring up to in-degree d on their own.
            low = d - (n - u - 1)
            need = sum(1 << v for v in range(n) if in_degree[v] < low) if low > 0 else 0
            while i < len(rows) and (masks[i] & full or need & ~masks[i]):
                i += 1
        if i < len(rows):
            chosen.append(i)
            for v in rows[i]:
                in_degree[v] += 1
                if in_degree[v] == d:
                    full |= 1 << v
            i = 0
        elif chosen:
            i = chosen.pop()
            for v in rows[i]:
                full &= ~(1 << v)
                in_degree[v] -= 1
            i += 1
        else:
            return


def _relabel(
    out: tuple[tuple[int, ...], ...], p: tuple[int, ...]
) -> tuple[tuple[int, ...], ...]:
    """The out-tuples of the digraph ``out`` with each vertex ``u`` renamed
    ``p[u]``."""
    image: list[tuple[int, ...]] = [()] * len(out)
    for u, heads in enumerate(out):
        image[p[u]] = tuple(sorted(map(p.__getitem__, heads)))
    return tuple(image)


def regular_digraphs_up_to_iso(n: int, d: int) -> list[Digraph]:
    """Representatives of the isomorphism classes of weakly connected
    ``d``-regular digraphs on ``n`` vertices: the first of each class in
    the order of ``all_regular_digraphs``."""
    representatives: list[Digraph] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    # the rotation (0 1 ... n-1) and the swap (0 1), as images of 0 .. n-1
    generators = [(*range(1, n), 0), (1, 0, *range(2, n))] if n > 1 else []
    for g in all_regular_digraphs(n, d):
        if g._out in seen or not g.is_weakly_connected():
            continue
        representatives.append(g)
        orbit = [g._out]
        seen.add(g._out)
        for out in orbit:
            if len(seen) * n * d > _MAX_HELD_ARCS:
                raise ResourceLimitError(
                    f"the classes of {d}-regular digraphs on {n} vertices "
                    f"hold more than {_MAX_HELD_ARCS} arcs"
                )
            for p in generators:
                image = _relabel(out, p)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
    return representatives
