"""The line-digraph operator and its iterates, with walk labels.

The line digraph of ``G`` has one vertex per arc of ``G``, and an arc from
``(u, v)`` to ``(x, y)`` exactly when ``v == x``.  Vertex ``v`` of
``L^k(G)`` is the ``v``-th length-``k`` walk of ``G`` in lexicographic
order, its label, and walk ``w`` has an arc to every walk
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

This proves the labels, so they are not checked again; the test
``test_iterated_line_matches_the_walk_dict_reference`` compares them with
walks looked up in a dictionary.  The CLI writes a label as ``3-0-1``.

The labels are built on first read and kept, and no library path reads
them: the witnesses of ``constructions`` take their ids from arc order.
A first read extends each walk, level by level, by the out-tuple of its
last vertex; the walks of a level are in lexicographic order and each
out-tuple is ascending, so the extended walks are too, and the arc
``(u, v)`` of ``G`` is vertex ``start[u]`` of ``L(G)`` plus the place of
``v`` in the out-tuple of ``u``.

Each level's order, ``start[-1]``, is known before its ids exist, and one
above ``digraph.MAX_ORDER`` is refused with :class:`ResourceLimitError`,
as is a level at which the labels of all levels up to it would take more
than ``_MAX_LETTERS`` letters, ``order * (level + 2)`` per level.  So the
bound is on what a first read of the labels would build, and it refuses
the iterate whether or not they are ever read: a digraph of out-degree 1
never grows, but its labels do.  Arcs need no check here: a level's arc
count is the next level's order, and ``Digraph`` refuses a last level
whose out-degrees sum past ``digraph.MAX_ARCS``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat

from .digraph import MAX_ORDER, Digraph, check_int
from .errors import DomainError, ResourceLimitError

# The most label letters an iterate's labels may take over all its levels:
# twice the 2**21 of ``L^16(K_2 + loops)``.  Measured with Python 3.11 on
# x86-64, 2 cores, one process each: that iterate builds in 0.10-0.12 s at
# a max RSS of 45 MiB, and with a first read of its labels in 0.18-0.19 s
# at 69 MiB; ``L^6(cycle(131072))``, 3.5 * 10**6 letters, builds in
# 0.41-0.61 s at 85 MiB (56 MiB of it the cycle), and with a first read in
# 0.56-0.61 s at 96 MiB; ``L^1000`` of it is refused at ``L^7`` in 0.4 s,
# and ``L^(10**7)(cycle(1))`` at ``L^2895`` in 0.01 s.  Unbounded, a first
# read of the labels of ``L^25(cycle(131072))`` took 2.7-3.4 s and 131 MiB,
# and more at each level.
_MAX_LETTERS = 1 << 22


@dataclass(frozen=True)
class LineLabeledDigraph:
    """``L^depth(base)`` as ``graph``, with one walk label per vertex:
    ``labels[v]`` is the walk of ``base`` that vertex ``v`` stands for,
    built on first read and kept, and not checked again (module
    docstring)."""

    graph: Digraph
    base: Digraph
    depth: int

    @cached_property
    def labels(self) -> tuple[tuple[int, ...], ...]:
        # each out-tuple as one-letter tuples: one concatenation a walk
        steps = [tuple((x,) for x in heads) for heads in self.base._out]
        walks = [(v,) for v in range(self.base.n)]
        for _ in range(self.depth):
            walks = [w + x for w in walks for x in steps[w[-1]]]
        return tuple(walks)


def _iterate(g: Digraph, k: int) -> LineLabeledDigraph:
    """``L^k(g)`` one level at a time from the running sums of the
    degrees (module docstring); ``heads[u]`` is the sorted out-tuple of
    ``u`` at the current level and ``indeg[u]`` its in-degree."""
    heads, indeg = g._out, list(map(len, g._in))
    letters = 0  # letters of the labels up to this level, level 0's not counted
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
        letters += order * (level + 2)
        if letters > _MAX_LETTERS:
            raise ResourceLimitError(
                f"walk labels of L^{level + 1} pass the limit of {_MAX_LETTERS} letters"
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
        heads = list(map(block.__getitem__, head_of))
    graph = g
    if k:
        name = None if g.name is None else "L(" * k + g.name + ")" * k
        graph = Digraph(len(heads), name=name, _store=(heads, tails))
    return LineLabeledDigraph(graph=graph, base=g, depth=k)


def line_digraph(g: Digraph) -> LineLabeledDigraph:
    """The line digraph of ``g``, vertices labeled by the arcs they came from."""
    return _iterate(g, 1)


def iterated_line(g: Digraph, k: int) -> LineLabeledDigraph:
    """Apply the line-digraph operator ``k`` times (``k = 0`` labels ``g`` itself)."""
    return _iterate(g, check_int(k, "iteration count", 0))
