"""Finite simple digraphs with loops allowed.

Vertices are the integers ``0 .. n-1`` and the arc set is a set of ordered
pairs, so parallel arcs cannot exist; a pair ``(v, v)`` is a loop.  Vertex
sets passed to the query helpers are ordinary Python sets (any iterable of
ints is accepted and normalised to a ``frozenset``).

The constructor is the one place arcs are checked, in one pass: the first
non-pair, endpoint outside ``0 .. n-1`` (bools included) or repeated arc
raises :class:`DomainError`, and ``arcs`` is built from the out-sets.

A ``Digraph`` is immutable after construction.  Equality and hashing look
only at the order and the arc set; the optional ``name`` is a display label
and does not affect identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .errors import DomainError


def check_vertex(g: "Digraph", v: object) -> int:
    """Return ``v`` as a vertex id of ``g`` or raise :class:`DomainError`."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise DomainError(f"vertex id must be an int, got {v!r}")
    if not 0 <= v < g.n:
        raise DomainError(f"vertex id {v} out of range for order {g.n}")
    return v


def check_vertex_set(g: "Digraph", vertices: Iterable[int]) -> frozenset[int]:
    """Normalise an iterable of vertex ids to a frozenset, validating each."""
    return frozenset(check_vertex(g, v) for v in vertices)


@dataclass(frozen=True)
class DegreeSummary:
    """Per-vertex out/in degrees together with the four extremes."""

    out_degrees: tuple[int, ...]
    in_degrees: tuple[int, ...]
    max_out: int
    min_out: int
    max_in: int
    min_in: int


@dataclass(frozen=True)
class StrongComponents:
    """Strongly connected components of ``graph``.

    ``components`` lists each component as a sorted tuple, in reverse
    topological order of the condensation (a component only has arcs into
    components listed before it).  ``component_of[v]`` is the index into
    ``components`` for vertex ``v``.
    """

    components: tuple[tuple[int, ...], ...]
    component_of: tuple[int, ...]
    graph: "Digraph" = field(repr=False)

    @property
    def condensation(self) -> "Digraph":
        """The loop-free digraph on the component indices, built afresh on
        each read: most callers need only the components."""
        component_of = self.component_of
        return Digraph(
            len(self.components),
            {
                (component_of[u], component_of[v])
                for u, v in self.graph.arcs
                if component_of[u] != component_of[v]
            },
        )


class Digraph:
    """Immutable digraph on vertices ``0 .. n-1``."""

    __slots__ = ("n", "arcs", "name", "_out", "_in", "_hash")

    def __init__(
        self,
        n: int,
        arcs: Iterable[tuple[int, int]] = (),
        *,
        name: str | None = None,
    ) -> None:
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise DomainError(f"order must be a positive int, got {n!r}")
        out: list[set[int]] = [set() for _ in range(n)]
        inn: list[set[int]] = [set() for _ in range(n)]
        for arc in arcs:
            try:
                u, v = arc
            except (TypeError, ValueError):
                raise DomainError(f"arc must be a pair, got {arc!r}") from None
            for w in (u, v):
                if isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < n:
                    raise DomainError(f"arc {arc!r} has endpoint outside 0..{n - 1}")
            if v in out[u]:
                raise DomainError(f"duplicate arc {(u, v)!r}")
            out[u].add(v)
            inn[v].add(u)
        self.n = n
        self.arcs = frozenset((u, v) for u, heads in enumerate(out) for v in heads)
        self.name = name
        self._out = tuple(frozenset(s) for s in out)
        self._in = tuple(frozenset(s) for s in inn)
        self._hash = hash((n, self.arcs))

    # -- identity ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return self.n == other.n and self.arcs == other.arcs

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return f"<Digraph{label} n={self.n} arcs={len(self.arcs)}>"

    # -- basic queries ----------------------------------------------------

    @property
    def arc_count(self) -> int:
        return len(self.arcs)

    @property
    def arcs_sorted(self) -> tuple[tuple[int, int], ...]:
        """All arcs in lexicographic order."""
        return tuple(sorted(self.arcs))

    @property
    def has_loops(self) -> bool:
        return any((v, v) in self.arcs for v in range(self.n))

    def out_neighborhood(self, v: int) -> frozenset[int]:
        """``N+(v)``."""
        check_vertex(self, v)
        return self._out[v]

    def in_neighborhood(self, v: int) -> frozenset[int]:
        """``N-(v)``."""
        check_vertex(self, v)
        return self._in[v]

    def out_neighborhood_of_set(self, vertices: Iterable[int]) -> frozenset[int]:
        """Closed out-neighborhood ``N+[S]`` of a vertex set."""
        s = check_vertex_set(self, vertices)
        result = set(s)
        for v in s:
            result |= self._out[v]
        return frozenset(result)

    def out_degree(self, v: int) -> int:
        check_vertex(self, v)
        return len(self._out[v])

    def in_degree(self, v: int) -> int:
        check_vertex(self, v)
        return len(self._in[v])

    def degrees(self) -> DegreeSummary:
        out = tuple(len(self._out[v]) for v in range(self.n))
        inn = tuple(len(self._in[v]) for v in range(self.n))
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
        d = len(self._out[0]) if self.n else 0
        for v in range(self.n):
            if len(self._out[v]) != d or len(self._in[v]) != d:
                return None
        return d

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
                for w in self._out[u] | self._in[u]:
                    if not seen[w]:
                        seen[w] = True
                        block.append(w)
                        stack.append(w)
            components.append(sorted(block))
        return components

    def is_weakly_connected(self) -> bool:
        return len(self.weak_components()) == 1

    def strong_components(self) -> StrongComponents:
        """Tarjan's algorithm, iterative so deep graphs cannot overflow."""
        index_of = [-1] * self.n
        lowlink = [0] * self.n
        on_stack = [False] * self.n
        stack: list[int] = []
        component_of = [-1] * self.n
        components: list[tuple[int, ...]] = []
        counter = 0
        for root in range(self.n):
            if index_of[root] != -1:
                continue
            # Explicit frame stack: (vertex, iterator over sorted successors).
            work: list[tuple[int, Iterator[int]]] = []
            index_of[root] = lowlink[root] = counter
            counter += 1
            stack.append(root)
            on_stack[root] = True
            work.append((root, iter(sorted(self._out[root]))))
            while work:
                v, succ = work[-1]
                advanced = False
                for w in succ:
                    if index_of[w] == -1:
                        index_of[w] = lowlink[w] = counter
                        counter += 1
                        stack.append(w)
                        on_stack[w] = True
                        work.append((w, iter(sorted(self._out[w]))))
                        advanced = True
                        break
                    if on_stack[w]:
                        lowlink[v] = min(lowlink[v], index_of[w])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[v])
                if lowlink[v] == index_of[v]:
                    block = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component_of[w] = len(components)
                        block.append(w)
                        if w == v:
                            break
                    components.append(tuple(sorted(block)))
        return StrongComponents(
            components=tuple(components),
            component_of=tuple(component_of),
            graph=self,
        )

    def is_strongly_connected(self) -> bool:
        return len(self.strong_components().components) == 1

    # -- line-digraph limit behaviour -------------------------------------

    def is_L_divergent(self) -> bool:
        """Whether iterated line digraphs of this digraph grow without bound.

        The order of the iterates diverges exactly when some strong component
        carries more internal arcs than vertices (it is strongly connected
        but not a single cycle), or when two cycle components are joined by a
        directed path.  Otherwise the iterates either converge to a fixed
        digraph (disjoint cycles survive) or eventually vanish.
        """
        sc = self.strong_components()
        component_of = sc.component_of
        # Components come in reverse topological order, so every component an
        # arc leaves a block for is already marked when the block is swept.
        reaches_cycle: list[bool] = []  # is, or has a path to, a cycle component
        for i, block in enumerate(sc.components):
            internal = 0
            downstream = False
            for u in block:
                for w in self._out[u]:
                    if component_of[w] == i:
                        internal += 1
                    elif reaches_cycle[component_of[w]]:
                        downstream = True
            cyclic = internal == len(block)
            if internal > len(block) or (cyclic and downstream):
                return True
            reaches_cycle.append(cyclic or downstream)
        return False


def adjacency_masks(g: Digraph) -> tuple[list[int], list[int]]:
    """Out- and in-neighborhoods as bitmasks, built afresh on each call:
    bit ``v`` of ``out[u]`` and bit ``u`` of ``inn[v]`` are set exactly
    when ``(u, v)`` is an arc."""
    out = [0] * g.n
    inn = [0] * g.n
    for u, v in g.arcs:
        out[u] |= 1 << v
        inn[v] |= 1 << u
    return out, inn
