"""Finite simple digraphs with loops allowed.

Vertices are the integers ``0 .. n-1`` and the arc set is a set of ordered
pairs, so parallel arcs cannot exist; a pair ``(v, v)`` is a loop.  Vertex
sets passed to the query helpers are ordinary Python sets (any iterable of
ints is accepted and normalised to a ``frozenset``).

The arcs are stored once, as sorted tuples of ints: ``_out[u]`` holds the
heads of the arcs out of ``u`` and ``_in[v]`` the tails of the arcs into
``v``, both ascending.  The cyclic garbage collector stops tracking a
tuple of ints the first time it examines it, and the empty tuple is one
shared object, so the store costs the collector little and costs nothing
per vertex of degree zero.  ``arc_count`` is the sum of the out-degrees,
equality, hashing and ``arcs_sorted`` read the out-tuples in order, and
``arcs``, the frozenset of the ``(u, v)`` pairs, is built from them on
first read and kept, for callers outside the package: no path in it
reads that set.  The neighborhood queries return frozensets made on each
call.

The public constructor is the one place arcs are checked, in one pass:
the first non-pair, endpoint outside ``0 .. n-1`` (bools included) or
repeated arc raises :class:`DomainError`.  A pair of plain ``int``
endpoints in range passes at once; only a pair that fails that test gets
the full check, which either names the arc or admits an ``int`` subclass
other than ``bool``.  So the plain-int test decides when the full check
runs, never what it answers.  The pass fills one set of heads per
vertex, which then become the sorted out-tuples; a walk over those, by
ascending tail, lists the tails of each vertex already sorted.

``lines`` builds its iterates with their tuples already sorted, and hands
them over whole through the keyword-only ``_store=(out, inn)``, which no
other caller passes; its arcs are not read one by one.  That module's
docstring proves the tuples sorted, in range and each other's transpose.

On both paths an order above ``MAX_ORDER`` (131072) is refused with
:class:`ResourceLimitError` before anything is allocated or any arc read,
so a caller may pass a lazy stream of arcs whose order alone is too large
and no arc of it is ever made.  Both refuse more than ``MAX_ARCS``
(524288) arcs.  The public loop reads at most that many, with no per-arc
count: it runs over an ``islice`` of the input and then looks for a
leftover.  The hand-over sums its out-degrees.

A ``Digraph`` is immutable after construction.  Equality and hashing look
only at the order and the arc set; the optional ``name`` is a display label
and does not affect identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable

from .errors import DomainError, ResourceLimitError

# The largest order a ``Digraph``, and so an iterate built by ``lines``, may
# have: 2**17 = 131072 vertices, the order of ``L^16(K_2 + loops)``.
# Measured with Python 3.11 on x86-64, 2 cores, the collector on:
# ``iterated_line`` builds that iterate in 0.10-0.12 s at a max RSS of
# 45 MiB (0.18 s and 69 MiB with a first read of its walk labels), and an
# arc-free ``Digraph`` of this order peaks at 46 MiB.
# ``{"n": 10**9, "arcs": []}`` would otherwise allocate 10**9 sets.
MAX_ORDER = 1 << 17

# The most arcs a ``Digraph`` may have: 2**19 = 524288, so that every
# digraph of out-degree at most 4 fits at ``MAX_ORDER``.  Measured as
# above: ``gen_de_bruijn(4, 2**17)``, at both limits, builds in 0.64-0.70 s
# at a max RSS of 72 MiB, and the 2**20 arcs of
# ``complete_with_loops(1024)``, with the limit raised, peak at 80 MiB.
# ``complete_with_loops(100000)`` would otherwise try to hold 10**10 arcs.
MAX_ARCS = 1 << 19


def check_int(value: object, what: str, minimum: int) -> int:
    """Return ``value`` as an int of at least ``minimum`` (a bool is no
    int here) or raise :class:`DomainError` naming it as ``what``."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise DomainError(f"{what} must be an int >= {minimum}, got {value!r}")
    return value


def check_vertex(g: "Digraph", v: object) -> int:
    """Return ``v`` as a vertex id of ``g`` or raise :class:`DomainError`."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"vertex id must be an int, got {v!r}")
    if not 0 <= v < g.n:
        raise DomainError(f"vertex id {v} out of range for order {g.n}")
    return v


def check_vertex_set(g: "Digraph", vertices: Iterable[int]) -> frozenset[int]:
    """Normalise an iterable of vertex ids to a frozenset, validating each.

    A set or frozenset of plain ``int`` ids, its least at least 0 and its
    greatest below the order, passes one bulk test.  Any other input, and
    a set that fails the test, goes through ``check_vertex`` one element
    at a time, in the order it iterates, which either names the first
    offender or admits an ``int`` subclass other than ``bool``.  So the
    bulk test decides when the per-vertex check runs, never what it
    answers, and an iterator is read once, as far as its first offender.
    """
    if isinstance(vertices, (set, frozenset)) and {int}.issuperset(map(type, vertices)):
        if not vertices or (min(vertices) >= 0 and max(vertices) < g.n):
            return frozenset(vertices)
    return frozenset(check_vertex(g, v) for v in vertices)


def check_nonempty_vertex_set(
    g: "Digraph", vertices: Iterable[int], what: str
) -> frozenset[int]:
    """``check_vertex_set``, refusing the empty set as ``what``."""
    s = check_vertex_set(g, vertices)
    if not s:
        raise DomainError(f"{what} must be non-empty")
    return s


@dataclass(frozen=True)
class DegreeSummary:
    """Per-vertex out/in degrees together with the four extremes."""

    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]
    max_out: int
    min_out: int
    max_in: int
    min_in: int


class Digraph:
    """Immutable digraph on vertices ``0 .. n-1``."""

    __slots__ = ("n", "arc_count", "name", "_out", "_in", "_arcs")

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int]] = (),
        *,
        name: str | None = None,
        _store: tuple[list[tuple[int, ...]], list[tuple[int, ...]]] | None = None,
    ) -> None:
        check_int(n, "order", 1)
        if n > MAX_ORDER:
            raise ResourceLimitError(f"order {n} is above the limit of {MAX_ORDER}")
        self.n = n
        self.name = name
        self._arcs: frozenset[tuple[int, int]] | None = None
        if _store is not None:
            self._out, self._in = map(tuple, _store)
            self.arc_count = sum(map(len, self._out))
            if self.arc_count > MAX_ARCS:
                raise ResourceLimitError(f"arc count above the limit of {MAX_ARCS}")
            return
        out: list[set[int]] = [set() for _ in range(n)]
        rest = iter(arcs)
        for arc in islice(rest, MAX_ARCS):
            try:
                u, v = arc
            except (TypeError, ValueError):
                raise DomainError(f"arc must be a pair, got {arc!r}") from None
            if not (type(u) is int and type(v) is int and 0 <= u < n and 0 <= v < n):
                for w in (u, v):
                    if isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < n:
                        raise DomainError(
                            f"arc {arc!r} has endpoint outside 0..{n - 1}"
                        )
            heads = out[u]
            if v in heads:
                raise DomainError(f"duplicate arc {(u, v)!r}")
            heads.add(v)
        for _ in rest:
            raise ResourceLimitError(f"arc count above the limit of {MAX_ARCS}")
        self.arc_count = sum(map(len, out))
        self._out = tuple(map(tuple, map(sorted, out)))
        del out  # the sets go before the in-lists are made: a lower peak
        inn: list[list[int]] = [[] for _ in range(n)]
        for u, heads in enumerate(self._out):
            for v in heads:
                inn[v].append(u)  # tails come in ascending order
        self._in = tuple(map(tuple, inn))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self._out == other._out

    def __hash__(self) -> int:
        return hash((self.n, self._out))

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Digraph{label} n={self.n} arcs={self.arc_count}>"

    # -- basic queries ----------------------------------------------------

    @property
    def arcs(self) -> frozenset[tuple[int, int]]:
        """The set of ``(u, v)`` arcs, built from the out-tuples on first
        read and kept."""
        if self._arcs is None:
            self._arcs = frozenset(
                (u, v) for u, heads in enumerate(self._out) for v in heads
            )
        return self._arcs

    @property
    def arcs_sorted(self) -> tuple[tuple[int, int], ...]:
        """All arcs in lexicographic order."""
        return tuple((u, v) for u, heads in enumerate(self._out) for v in heads)

    @property
    def has_loops(self) -> bool:
        return any(v in heads for v, heads in enumerate(self._out))

    def out_neighborhood(self, v: int) -> frozenset[int]:
        """``N+(v)``."""
        check_vertex(self, v)
        return frozenset(self._out[v])

    def in_neighborhood(self, v: int) -> frozenset[int]:
        """``N-(v)``."""
        check_vertex(self, v)
        return frozenset(self._in[v])

    def out_neighborhood_of_set(self, vertices: Iterable[int]) -> frozenset[int]:
        """Closed out-neighborhood ``N+[S]`` of a vertex set."""
        s = check_vertex_set(self, vertices)
        result = set(s)
        for v in s:
            result.update(self._out[v])
        return frozenset(result)

    def degrees(self) -> DegreeSummary:
        out = tuple(map(len, self._out))
        inn = tuple(map(len, self._in))
        return DegreeSummary(
            out_degrees=out,
            in_degrees=inn,
            max_out=max(out),
            min_out=min(out),
            max_in=max(inn),
            min_in=min(inn),
        )

    def is_regular(self) -> int | None:
        """The common degree if every in- and out-degree equals it, else None."""
        degrees = set(map(len, self._out)) | set(map(len, self._in))
        return degrees.pop() if len(degrees) == 1 else None

    # -- connectivity -----------------------------------------------------

    def weak_components(self) -> list[list[int]]:
        """Connected components of the underlying undirected graph.

        Each component is sorted ascending; components are ordered by their
        smallest vertex.
        """
        seen = [False] * self.n
        components: list[list[int]] = []
        for start in range(self.n):
            if seen[start]:
                continue
            seen[start] = True
            block = [start]
            stack = [start]
            while stack:
                u = stack.pop()
                for w in chain(self._out[u], self._in[u]):
                    if not seen[w]:
                        seen[w] = True
                        block.append(w)
                        stack.append(w)
            components.append(sorted(block))
        return components

    def is_weakly_connected(self) -> bool:
        return len(self.weak_components()) == 1


def adjacency_masks(g: Digraph) -> tuple[list[int], list[int]]:
    """Out- and in-neighborhoods as bitmasks, built afresh on each call:
    bit ``v`` of ``out[u]`` and bit ``u`` of ``inn[v]`` are set exactly
    when ``(u, v)`` is an arc."""
    out = [0] * g.n
    inn = [0] * g.n
    for u, heads in enumerate(g._out):
        bit = 1 << u
        mask = 0
        for v in heads:
            mask |= 1 << v
            inn[v] |= bit
        out[u] = mask
    return out, inn
