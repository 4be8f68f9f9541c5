"""Digraph isomorphism by color refinement and one iterative search.

``are_isomorphic`` returns an explicit vertex bijection or ``None``.
Joint color refinement (degrees and loops, then neighborhood color
multisets) gives each vertex a class that every isomorphism respects.
The search then places the vertices of the first digraph in id order and
tries images ascending, so the mapping returned is the lexicographically
least isomorphism.

Placing ``u`` at ``x`` narrows, along arcs only, the candidates of each
later out-neighbor of ``u`` to the out-neighbors of ``x`` and of each
later in-neighbor to its in-neighbors; ``x`` is rejected when a narrowed
mask has no unused image left.  ``x`` is also rejected unless it has as
many arcs to, and from, the images placed so far as ``u`` has to, and
from, the vertices before it.  The narrowing maps each of those arcs of
``u`` onto an arc of ``x``, and equal counts leave no arc of ``x``
unmatched, so every partial map is exact.

Non-arcs are never looked ahead, so when more than half of the ``n^2``
ordered pairs (loops included) are arcs, the search runs on the two
complements instead.  A bijection is an isomorphism of the digraphs
exactly when it is one of their complements, so the mapping returned is
the same.

Limits: the search keeps an ``n``-bit mask per vertex for each of the
out- and in-neighborhoods of ``h`` and the candidates, and another for
each narrowing in its undo log, so its memory grows with ``n (n + m)``
bits for ``m`` arcs.  Once the orders and arc counts agree, an order
above ``_MAX_ORDER`` is refused with :class:`ResourceLimitError` before
any mask is built.  A hostile id order can make any input exponential
(``K(3,4)`` relabelled on both sides can run for many minutes).  The id
order stays because it fixes which mapping is returned, so the search
instead gives up with :class:`ResourceLimitError` after ``_SEARCH_NODES``
images tried.
"""

from __future__ import annotations

from .digraph import Digraph, adjacency_masks
from .errors import ResourceLimitError

# Images the search may try before it gives up: a search that never
# backtracks tries about one per vertex, and K(3,4) relabelled on both
# sides reaches this in about ten seconds.
_SEARCH_NODES = 10_000_000

# The largest order searched: 2**13 = 8192.  Measured with Python 3.11 on
# x86-64, a relabelled pair of ``L^12(K_2 + loops)`` is decided in 0.9 s
# at a peak RSS 34 MiB above the two digraphs, and a relabelled pair of
# out-degree 64, at the arc limit, in 5.5 s at a peak of 652 MiB (328
# above the digraphs).  At order 16384 the same two kinds of pair peak
# 135 and 662 MiB above their digraphs.
_MAX_ORDER = 1 << 13


def _refine_colors(g: Digraph, h: Digraph) -> tuple[list[int], list[int]] | None:
    """Joint color refinement; None when the color histograms ever differ."""

    def signatures(d: Digraph, colors: list[int]) -> list[tuple]:
        return [
            (
                colors[v],
                tuple(sorted(colors[w] for w in d._out[v])),
                tuple(sorted(colors[w] for w in d._in[v])),
            )
            for v in range(d.n)
        ]

    sig_g = [(len(g._out[v]), len(g._in[v]), v in g._out[v]) for v in range(g.n)]
    sig_h = [(len(h._out[v]), len(h._in[v]), v in h._out[v]) for v in range(h.n)]
    colors_g: list[int] = []
    for _ in range(g.n + 1):
        palette: dict[tuple, int] = {}
        new_g = [palette.setdefault(s, len(palette)) for s in sig_g]
        new_h = [palette.get(s, -1) for s in sig_h]
        if sorted(new_g) != sorted(new_h):
            return None
        if colors_g and len(set(new_g)) == len(set(colors_g)):
            break
        colors_g, colors_h = new_g, new_h
        sig_g, sig_h = signatures(g, colors_g), signatures(h, colors_h)
    return new_g, new_h


def _complement(g: Digraph) -> Digraph:
    """The digraph of the ordered pairs, loops included, that are not
    arcs of ``g``."""
    heads = map(set, g._out)
    return Digraph(
        g.n, [(u, v) for u, out in enumerate(heads) for v in range(g.n) if v not in out]
    )


def are_isomorphic(g: Digraph, h: Digraph) -> tuple[int, ...] | None:
    """An isomorphism from ``g`` onto ``h`` as a tuple ``phi`` with
    ``phi[u]`` the image of ``u``, or ``None`` when none exists; raises
    :class:`ResourceLimitError` above order ``_MAX_ORDER`` or past
    ``_SEARCH_NODES`` images tried."""
    if g.n != h.n or g.arc_count != h.arc_count:
        return None
    if g.n > _MAX_ORDER:
        raise ResourceLimitError(
            f"isomorphism search order {g.n} is above the limit of {_MAX_ORDER}"
        )
    if 2 * g.arc_count > g.n * g.n:
        g, h = _complement(g), _complement(h)
    refined = _refine_colors(g, h)
    if refined is None:
        return None
    colors_g, colors_h = refined
    n = g.n
    class_h: dict[int, int] = {}
    for v, c in enumerate(colors_h):
        class_h[c] = class_h.get(c, 0) | (1 << v)
    cand = [class_h[c] for c in colors_g]
    out_h, in_h = adjacency_masks(h)
    # Per vertex u of g: its arcs to and from earlier vertices, counted,
    # and its later neighbors, each with the h-side masks it must meet.
    # The arcs are read by head, so each list starts with the later
    # in-neighbors; read by tail, WB(2,6) takes 16% more narrowings.
    back_out, back_in = [0] * n, [0] * n
    later: list[list[tuple[int, list[int]]]] = [[] for _ in range(n)]
    for w, tails in enumerate(g._in):
        for u in tails:
            if w > u:
                later[u].append((w, out_h))
                back_in[w] += 1
            elif w < u:
                later[w].append((u, in_h))
                back_out[u] += 1

    # A frame per level: untried images, and the undo-log length and used
    # images on entry.  Trying an image first undoes the log down to there.
    undo: list[tuple[int, int]] = []
    phi = [0] * n
    stack = [(cand[0], 0, 0)]
    nodes = 0
    while stack:
        options, mark, used = stack.pop()
        u = len(stack)
        while options:
            bit = options & -options
            options ^= bit
            x = bit.bit_length() - 1
            nodes += 1
            if nodes > _SEARCH_NODES:
                raise ResourceLimitError(
                    f"isomorphism search gave up after {_SEARCH_NODES} images tried"
                )
            if (out_h[x] & used).bit_count() != back_out[u]:
                continue
            if (in_h[x] & used).bit_count() != back_in[u]:
                continue
            while len(undo) > mark:
                w, mask = undo.pop()
                cand[w] = mask
            taken = used | bit
            for w, adj in later[u]:
                undo.append((w, cand[w]))
                cand[w] &= adj[x]
                if not cand[w] & ~taken:
                    break
            else:
                phi[u] = x
                if u + 1 == n:
                    return tuple(phi)
                stack.append((options, mark, used))
                stack.append((cand[u + 1] & ~taken, len(undo), taken))
                break
    return None
