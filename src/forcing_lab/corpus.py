"""Digraph corpora for verification: seeded random generators, and
exhaustive enumeration of small regular digraphs and of every small
digraph.

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

``regular_digraphs_up_to_iso`` and ``all_digraphs_up_to_iso`` pick
their classes with no isomorphism search.  Each walks a set of labelled
digraphs that every renaming of the vertices maps onto itself, each
member exactly once: a renaming by a permutation keeps every in- and
out-degree and weak connectivity, so each relabelling of a weakly
connected ``d``-regular digraph is again one that ``all_regular_digraphs``
yields, and each relabelling of a digraph on ``n`` vertices is again one
of the ``2^(n*n)`` that ``all_digraphs_up_to_iso`` walks.  The swap
(0 1) and the rotation (0 1 ... n-1) generate the symmetric group (the
rotation conjugates the swap into each adjacent transposition (i i+1),
and those generate it), so ``_close_class``, which closes a digraph
breadth first under the two relabellings, reaches its whole isomorphism
class, and every member of it is in the walk.  The first digraph of a
class in walk order is therefore the first that is not yet in the set
``seen`` of closed classes: it is kept, its class goes into ``seen``,
and every later member of the class costs one lookup.  The
representatives are the first of each class in walk order, as a
pairwise isomorphism test over the same walk would pick them.

``seen`` holds every labelled digraph of the classes met so far, and
``_close_class`` refuses with :class:`ResourceLimitError` a call whose
held digraphs pass ``_MAX_HELD_ARCS`` = 2^20 arcs in all: (6, 2) holds
795,240 arcs in 66,270 digraphs (1.8 s, a process peak RSS of 48 MiB),
and the census of 4 vertices 524,288 arcs in 65,536 digraphs (0.6 s at
38 MiB), while (6, 3), (6, 4) and (7, 2) are refused after 0.6-1.0 s at
peaks of 41-56 MiB.

A request that is sure to pass the bound is refused before its walk.
The census closes every class, so it would hold all
``n*n * 2^(n*n - 1)`` arcs of its digraphs, past the bound from 5
vertices on.  A regular request with ``1 <= d <= n`` has a first class
(the circulant ``x -> x + t`` for ``1 <= t <= d`` is weakly connected),
and every class is large.  An automorphism of a weakly connected digraph
whose in- and out-degrees all equal ``d`` is fixed by the image of one
vertex and then, along each edge of a spanning tree of the underlying
graph, by the image of the edge's far end, which is one of the ``d``
out- or in-neighbors of the image of its near end.  So a class has at
most ``n * d^(n-1)`` automorphisms, and at least
``n! / (n * d^(n-1))``, hence ``ceil((n-1)! / d^(n-1))``, labelled
digraphs of ``n * d`` arcs each.  When those pass the bound, the request
is refused at once: (10, 1) and (1200, 1) in under 0.1 ms, where the
walk of (10, 1) used to take 13.7 s and that of (1200, 1) practically
never ended.
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

# The arcs of the labelled digraphs _close_class may hold.  Traced at the
# bound, the held digraphs peaked at 24-37 MiB for (6, 3), (6, 4) and (7, 2).
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


def _held_past_the_bound(kind: str, n: int) -> ResourceLimitError:
    return ResourceLimitError(
        f"the classes of {kind} on {n} vertices hold more than {_MAX_HELD_ARCS} arcs"
    )


def _close_class(
    out: tuple[tuple[int, ...], ...],
    seen: set[tuple[tuple[int, ...], ...]],
    held: int,
    kind: str,
) -> int:
    """Put the isomorphism class of the digraph ``out`` into ``seen``,
    closed breadth first under the swap (0 1) and the rotation
    (0 1 ... n-1).  ``held`` is the arcs of the digraphs already in
    ``seen``; the arcs held with this class are returned, and refused,
    as classes of ``kind``, once they pass ``_MAX_HELD_ARCS``."""
    n = len(out)
    arcs = sum(map(len, out))  # in every member of the class
    # the rotation (0 1 ... n-1) and the swap (0 1), as images of 0 .. n-1
    generators = [(*range(1, n), 0), (1, 0, *range(2, n))] if n > 1 else []
    orbit = [out]
    seen.add(out)
    for member in orbit:
        if held + len(orbit) * arcs > _MAX_HELD_ARCS:
            raise _held_past_the_bound(kind, n)
        for p in generators:
            image = _relabel(member, p)
            if image not in seen:
                seen.add(image)
                orbit.append(image)
    return held + len(orbit) * arcs


def _least_class_passes_the_bound(n: int, d: int) -> bool:
    """Whether ``ceil((n-1)! / d^(n-1))`` digraphs of ``n * d`` arcs, the
    least class of weakly connected ``d``-regular digraphs on ``n``
    vertices for ``1 <= d <= n``, pass ``_MAX_HELD_ARCS``."""
    most = _MAX_HELD_ARCS // (n * d)  # the digraphs of n * d arcs it admits
    if most == 0:
        return True
    # k! / d^k falls while k < d and grows after, so once it passes `most`
    # at some k >= d it stays past: the loop stops there, long before k! is
    # large
    factorial = power = 1
    for k in range(1, n):
        factorial *= k
        power *= d
        if k >= d and factorial > most * power:
            return True
    return False


def regular_digraphs_up_to_iso(n: int, d: int) -> list[Digraph]:
    """Representatives of the isomorphism classes of weakly connected
    ``d``-regular digraphs on ``n`` vertices: the first of each class in
    the order of ``all_regular_digraphs``."""
    check_int(n, "order n", 1)
    check_int(d, "degree d", 0)
    kind = f"{d}-regular digraphs"
    if 1 <= d <= n and _least_class_passes_the_bound(n, d):
        raise _held_past_the_bound(kind, n)
    representatives: list[Digraph] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    held = 0
    for g in all_regular_digraphs(n, d):
        if g._out not in seen and g.is_weakly_connected():
            representatives.append(g)
            held = _close_class(g._out, seen, held, kind)
    return representatives


def all_digraphs_up_to_iso(n: int) -> list[Digraph]:
    """Representatives of the isomorphism classes of digraphs on ``n``
    vertices, loops allowed: the first of each class when the labelled
    digraphs are walked in increasing order of the adjacency matrix read
    as one binary number, row 0 most significant and in each row the
    column of vertex ``v`` worth 2^v.  From 5 vertices on, the classes
    would hold more than ``_MAX_HELD_ARCS`` arcs, and the call is refused
    before its walk."""
    check_int(n, "order n", 1)
    # the 2^(n*n) labelled digraphs hold n*n * 2^(n*n - 1) arcs in all, past
    # the bound when 2^(n*n - 1) alone passes it
    cells = n * n
    if cells > _MAX_HELD_ARCS.bit_length() or cells << (cells - 1) > _MAX_HELD_ARCS:
        raise _held_past_the_bound("digraphs", n)
    rows = [tuple(v for v in range(n) if mask >> v & 1) for mask in range(1 << n)]
    representatives: list[Digraph] = []
    seen: set[tuple[tuple[int, ...], ...]] = set()
    held = 0
    for out in itertools.product(rows, repeat=n):
        if out not in seen:
            representatives.append(
                Digraph(n, [(u, v) for u, heads in enumerate(out) for v in heads])
            )
            held = _close_class(out, seen, held, "digraphs")
    return representatives
