"""The line-digraph operator and its iterates, with walk labels.

The line digraph of ``G`` has one vertex per arc of ``G``, and an arc from
``(u, v)`` to ``(x, y)`` exactly when ``v == x``.  Iterating the operator
``k`` times produces a digraph whose vertices correspond to walks of length
``k`` in the base, and consecutive walks overlap in all but one step.  The
walks are carried along as labels so a vertex of ``L^k(G)`` can always be
read back as a concrete walk in ``G``.

Vertex ids are assigned by sorting the arcs of the previous iterate
lexicographically, so the construction is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

from .digraph import Digraph
from .errors import DomainError


@dataclass(frozen=True)
class LineLabeledDigraph:
    """A digraph together with one walk label per vertex.

    ``labels[v]`` is a walk in the base digraph of order ``base_n``; all
    labels have the same length ``depth + 1`` and are pairwise distinct.
    """

    graph: Digraph
    labels: tuple[tuple[int, ...], ...]
    base_n: int

    def __post_init__(self) -> None:
        if len(self.labels) != self.graph.n:
            raise DomainError(
                f"expected {self.graph.n} labels, got {len(self.labels)}"
            )
        lengths = {len(w) for w in self.labels}
        if len(lengths) != 1 or min(lengths) < 1:
            raise DomainError("walk labels must all have the same positive length")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("walk labels must be pairwise distinct")
        for walk in self.labels:
            for v in walk:
                if not 0 <= v < self.base_n:
                    raise DomainError(f"walk {walk!r} leaves base order {self.base_n}")

    @property
    def depth(self) -> int:
        """How many times the operator was applied to the base digraph."""
        return len(self.labels[0]) - 1

    def label_strings(self) -> list[str]:
        """Walks as dash-joined strings, e.g. ``'3-0-1'``."""
        return ["-".join(str(v) for v in walk) for walk in self.labels]


def _as_labeled(g: Digraph) -> LineLabeledDigraph:
    return LineLabeledDigraph(
        graph=g,
        labels=tuple((v,) for v in range(g.n)),
        base_n=g.n,
    )


def _line_step(current: LineLabeledDigraph) -> LineLabeledDigraph:
    g = current.graph
    if not g.arcs:
        raise DomainError("line digraph of an arc-free digraph is empty")
    arc_vertices = g.arcs_sorted
    by_tail: dict[int, list[int]] = {}
    for i, (u, v) in enumerate(arc_vertices):
        by_tail.setdefault(u, []).append(i)
    new_arcs: list[tuple[int, int]] = []
    for i, (u, v) in enumerate(arc_vertices):
        for j in by_tail.get(v, ()):
            new_arcs.append((i, j))
    labels = tuple(
        current.labels[u] + (current.labels[v][-1],) for u, v in arc_vertices
    )
    name = None
    if g.name is not None:
        name = f"L({g.name})"
    return LineLabeledDigraph(
        graph=Digraph(len(arc_vertices), new_arcs, name=name),
        labels=labels,
        base_n=current.base_n,
    )


def line_digraph(g: Digraph) -> LineLabeledDigraph:
    """The line digraph of ``g``, vertices labeled by the arcs they came from."""
    return _line_step(_as_labeled(g))


def iterated_line(g: Digraph, k: int) -> LineLabeledDigraph:
    """Apply the line-digraph operator ``k`` times (``k = 0`` labels ``g`` itself)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"iteration count must be a non-negative int, got {k!r}")
    current = _as_labeled(g)
    for _ in range(k):
        current = _line_step(current)
    return current
