"""Digraph isomorphism by color refinement and one iterative search.

``are_isomorphic`` returns an explicit vertex bijection or ``None``.
Color refinement of the disjoint union of the two digraphs gives each
vertex a class that every isomorphism respects.  The search then places
the vertices of the first digraph in id order and tries images
ascending, so the mapping returned is the lexicographically least
isomorphism.

The refinement goes by splitters (Cardon & Crochemore, "Partitioning a
graph in O(|A| log2 |V|)", TCS 1982).  It starts from the (out-degree,
in-degree, loop) classes, all waiting.  It takes a waiting class ``S``
and counts, for each vertex with an arc to or from ``S``, its
out-neighbors and its in-neighbors in ``S``.  Each class splits by that
pair of counts, its untouched members counting (0, 0).  The untouched
part keeps the class id, or the largest part when every member was
touched, and every other part waits under a new id.

- *It ends at the coarsest equitable partition.*  Call a vector over
  the vertices settled when its out-neighbor sums and its
  in-neighbor sums are constant on every class.  Settled vectors form a
  linear space that later splits keep settled.  Throughout, the
  indicator of every class is settled plus a sum of indicators of
  waiting classes: taking ``S`` settles its indicator, and a class that
  splits is its kept part plus its new parts, which wait.  So once
  nothing waits the partition is equitable.  No split ever cuts a class
  of the coarsest equitable partition ``Q``, since two vertices of one
  class of ``Q`` have equal counts into any union of its classes.  This
  is the partition at which round-by-round refinement of neighborhood
  color multisets stops, and it does not depend on the order in which
  classes are taken.
- *A lopsided class proves that no isomorphism exists, at any step.*
  An isomorphism ``phi`` from ``g`` onto ``h`` makes ``phi`` together
  with its inverse an automorphism ``sigma`` of the union that swaps
  the sides.  Every class ``C`` is mapped onto itself by ``sigma``: the
  first classes are, since ``sigma`` keeps degrees and loops, and when
  ``S`` and ``C`` are, ``v`` and ``sigma(v)`` have equal counts into
  ``S``, so each part of ``C`` is too.  Then ``sigma`` maps the ``g``
  vertices of ``C`` one to one onto its ``h`` vertices, so the two
  numbers agree.  The refinement returns ``None`` at the first class
  where they differ; when ``Q`` is balanced, so is every coarser
  partition, so the verdict is the same as at the end.

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

from collections import defaultdict

from .digraph import Digraph, adjacency_masks
from .errors import ResourceLimitError

# Images the search may try before it gives up: a search that never
# backtracks tries about one per vertex, and K(3,4) relabelled on both
# sides reaches this in about ten seconds.
_SEARCH_NODES = 10_000_000

# The largest order searched: 2**13 = 8192.  Measured with Python 3.11 on
# two x86-64 cores, a pair of ``L^12(K_2 + loops)`` relabelled on one side
# is decided in 0.3-0.4 s (about half of it refinement) at a peak RSS 36
# MiB above the two digraphs, and such a pair of ``GB(64, 8192)``, at the
# arc limit, in 3.2-4.6 s at a peak of 538 MiB (436 above the digraphs).
# The masks set these peaks, which grow with ``n (n + m)``: at order 16384
# a relabelled ``L^13`` pair peaks 140 MiB above its digraphs.
_MAX_ORDER = 1 << 13


def _refine_colors(g: Digraph, h: Digraph) -> tuple[list[int], list[int]] | None:
    """A color per vertex of ``g`` and of ``h``: the coarsest equitable
    partition of their disjoint union that refines the (out-degree,
    in-degree, loop) classes.  None once a class holds more vertices of
    one side than of the other."""
    sig_g = [(len(g._out[v]), len(g._in[v]), v in g._out[v]) for v in range(g.n)]
    sig_h = [(len(h._out[v]), len(h._in[v]), v in h._out[v]) for v in range(h.n)]
    palette: dict[tuple, int] = {}
    colors_g = [palette.setdefault(s, len(palette)) for s in sig_g]
    colors_h = [palette.get(s, -1) for s in sig_h]
    if sorted(colors_g) != sorted(colors_h):
        return None
    # Each class as its members in g and its members in h.
    members: list[tuple[set[int], set[int]]] = [(set(), set()) for _ in palette]
    for side, colors in enumerate((colors_g, colors_h)):
        for v, c in enumerate(colors):
            members[c][side].add(v)
    sides = ((g, colors_g), (h, colors_h))
    work = list(range(len(palette)))
    while work:
        splitter = members[work.pop()]
        # Per side: (class, out-neighbors in the splitter, in-neighbors in
        # it) -> the touched vertices with those counts.
        parts = (defaultdict(list), defaultdict(list))
        for (d, colors), inside, found in zip(sides, splitter, parts):
            outs: dict[int, int] = {}
            ins: dict[int, int] = {}
            for s in inside:
                for v in d._in[s]:
                    outs[v] = outs.get(v, 0) + 1
                for v in d._out[s]:
                    ins[v] = ins.get(v, 0) + 1
            for v, k in outs.items():
                found[colors[v], k, ins.pop(v, 0)].append(v)
            for v, k in ins.items():
                found[colors[v], 0, k].append(v)
        # Each touched part must hold as many vertices of g as of h; the
        # untouched rest of its class then does too.
        parts_g, parts_h = parts
        if len(parts_g) != len(parts_h):
            return None
        by_class: dict[int, list[tuple[list[int], list[int]]]] = {}
        for key, part_g in parts_g.items():
            part_h = parts_h.get(key, ())
            if len(part_g) != len(part_h):
                return None
            by_class.setdefault(key[0], []).append((part_g, part_h))
        for c, split in by_class.items():
            class_g, class_h = members[c]
            if len(split) == 1 and len(split[0][0]) == len(class_g):
                continue
            for part_g, part_h in split:
                class_g.difference_update(part_g)
                class_h.difference_update(part_h)
            # The untouched members keep the class id; with none, the
            # largest part keeps it.  Every other part is a new class.
            if not class_g:
                largest = max(split, key=lambda part: len(part[0]))
                split.remove(largest)
                class_g.update(largest[0])
                class_h.update(largest[1])
            for part_g, part_h in split:
                new = len(members)
                members.append((set(part_g), set(part_h)))
                for v in part_g:
                    colors_g[v] = new
                for v in part_h:
                    colors_h[v] = new
                work.append(new)
    return colors_g, colors_h


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
