"""The line-digraph operator and its iterates, with walk labels.

The line digraph of ``G`` has one vertex per arc of ``G``, and an arc from
``(u, v)`` to ``(x, y)`` exactly when ``v == x``.  Vertex ``v`` of
``L^k(G)`` is the ``v``-th length-``k`` walk of ``G`` in lexicographic
order, kept as its label, and walk ``w`` has an arc to every walk
``w[1:] + (x,)``.  This is the numbering that sorting the arcs of each
iterate gives, by induction on ``k``: sorting the arcs ``(u, v)`` of
``L^j`` sorts them by ``label(u) + (last letter of label(v),)``.

So ``L^k`` is built one level at a time, with no walk looked up: the
vertices of ``L^{j+1}`` are the sorted arcs of ``L^j``, and arc ``(u, v)``
points at every arc ``(v, x)``.  Those form one consecutive block of ids,
``start[v] .. start[v+1] - 1`` with ``start`` the running sum of the
out-degrees of ``L^j``, because sorted pairs are grouped by their first
entry.  The arcs into ``(u, v)`` come from every arc ``(x, u)``, the arcs
of ``L^j`` with head ``u``.  A stable sort of the ids by head groups them
by head, ascending within each group, and the group of ``u`` has the
in-degree of ``u`` in ``L^j`` members, so the running sum of those
in-degrees cuts the sorted ids into one group per vertex.

Each level keeps the out-tuples of its vertices, as in ``Digraph``, and
only their in-degrees: line vertex ``(u, v)`` gets the block of ``v`` as
its out-tuple and the in-degree of ``u``.  The last level also gets its
in-tuples, the group of ``u`` for ``(u, v)``.  Both are ascending runs of
ids below the order, so they are sorted and in range, and ``y`` is in the
out-tuple of ``x`` exactly when ``x`` is in the in-tuple of ``y``: both
say ``x = (u, v)`` and ``y = (v, w)``.  Each slice is one object for a
vertex of the level below, shared by every line vertex that takes it, so
the last level is handed to ``Digraph`` whole, through its ``_store``,
with no Python work per arc.

Each level's order, ``start[-1]``, is known before its walks or ids
exist, and one above ``digraph.MAX_ORDER`` is refused with
:class:`ResourceLimitError`.  Arcs need no check here: a level's arc count
is the next level's order, and ``Digraph`` refuses a last level whose
out-degrees sum past ``digraph.MAX_ARCS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, repeat

from .digraph import MAX_ORDER, Digraph
from .errors import DomainError, ResourceLimitError


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
        lengths = set(map(len, self.labels))
        if len(lengths) != 1 or min(lengths) < 1:
            raise DomainError("walk labels must all have the same positive length")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("walk labels must be pairwise distinct")
        letters = set().union(*self.labels)
        if min(letters) < 0 or max(letters) >= self.base_n:
            for walk in self.labels:
                for v in walk:
                    if not 0 <= v < self.base_n:
                        raise DomainError(
                            f"walk {walk!r} leaves base order {self.base_n}"
                        )

    @property
    def depth(self) -> int:
        """How many times the operator was applied to the base digraph."""
        return len(self.labels[0]) - 1

    def label_strings(self) -> list[str]:
        """Walks as dash-joined strings, e.g. ``'3-0-1'``."""
        return list(map(_dashed, self.labels))


def _dashed(walk: tuple[int, ...]) -> str:
    return "-".join(map(str, walk))


def _iterate(g: Digraph, k: int) -> LineLabeledDigraph:
    """``L^k(g)`` one level at a time from the running sums of the
    degrees (module docstring); ``heads[u]`` is the sorted out-tuple of
    ``u`` at the current level and ``indeg[u]`` its in-degree."""
    heads, indeg = g._out, list(map(len, g._in))
    labels = [(v,) for v in range(g.n)]
    for level in range(k):
        outdeg = list(map(len, heads))
        start = [0, *accumulate(outdeg)]
        order = start[-1]
        if not order:
            raise DomainError("line digraph of an arc-free digraph is empty")
        if order > MAX_ORDER:
            raise ResourceLimitError(
                f"iterate order {order} is above the limit of {MAX_ORDER}"
            )
        # Slices of one tuple, so that every arc shares its head's int.
        ids = tuple(range(order))
        head_of = list(chain.from_iterable(heads))
        block = [ids[start[v] : start[v + 1]] for v in range(len(heads))]
        if level < k - 1:
            indeg = list(chain.from_iterable(map(repeat, indeg, outdeg)))
        else:
            by_head = tuple(sorted(ids, key=head_of.__getitem__))
            in_start = [0, *accumulate(indeg)]
            into = [by_head[in_start[v] : in_start[v + 1]] for v in range(len(indeg))]
            tails = list(chain.from_iterable(map(repeat, into, outdeg)))
        labels = [w + (labels[v][-1],) for w, out in zip(labels, heads) for v in out]
        heads = list(map(block.__getitem__, head_of))
    graph = g
    if k:
        name = None if g.name is None else "L(" * k + g.name + ")" * k
        graph = Digraph(len(labels), name=name, _store=(heads, tails))
    return LineLabeledDigraph(graph=graph, labels=tuple(labels), base_n=g.n)


def line_digraph(g: Digraph) -> LineLabeledDigraph:
    """The line digraph of ``g``, vertices labeled by the arcs they came from."""
    return _iterate(g, 1)


def iterated_line(g: Digraph, k: int) -> LineLabeledDigraph:
    """Apply the line-digraph operator ``k`` times (``k = 0`` labels ``g`` itself)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 0:
        raise DomainError(f"iteration count must be a non-negative int, got {k!r}")
    return _iterate(g, k)
