"""The line-digraph operator and its iterates, with walk labels.

The line digraph of ``G`` has one vertex per arc of ``G``, and an arc from
``(u, v)`` to ``(x, y)`` exactly when ``v == x``.  Vertex ``v`` of
``L^k(G)`` is the ``v``-th length-``k`` walk of ``G`` in lexicographic
order, kept as its label, and walk ``w`` has an arc to every walk
``w[1:] + (x,)``.  This is the numbering that sorting the arcs of each
iterate gives, by induction on ``k``: sorting the arcs ``(u, v)`` of
``L^j`` sorts them by ``label(u) + (last letter of label(v),)``.
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


def _iterate(g: Digraph, k: int) -> LineLabeledDigraph:
    """``L^k(g)`` from its walks, listed in lexicographic order by extending
    them over sorted out-neighbor lists."""
    out = [sorted(g.out_neighborhood(v)) for v in range(g.n)]
    walks = [(v,) for v in range(g.n)]
    for _ in range(k):
        walks = [w + (x,) for w in walks for x in out[w[-1]]]
    if not walks:
        raise DomainError("line digraph of an arc-free digraph is empty")
    graph = g
    if k:
        index = {w: i for i, w in enumerate(walks)}
        arcs = [
            (i, index[w[1:] + (x,)]) for i, w in enumerate(walks) for x in out[w[-1]]
        ]
        name = None if g.name is None else "L(" * k + g.name + ")" * k
        graph = Digraph(len(walks), arcs, name=name)
    return LineLabeledDigraph(graph=graph, labels=tuple(walks), base_n=g.n)


def line_digraph(g: Digraph) -> LineLabeledDigraph:
    """The line digraph of ``g``, vertices labeled by the arcs they came from."""
    return _iterate(g, 1)


def iterated_line(g: Digraph, k: int) -> LineLabeledDigraph:
    """Apply the line-digraph operator ``k`` times (``k = 0`` labels ``g`` itself)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"iteration count must be a non-negative int, got {k!r}")
    return _iterate(g, k)
