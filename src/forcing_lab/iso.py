"""Digraph isomorphism at desk scale.

``are_isomorphic`` returns an explicit vertex bijection or ``None``.  The
search refines vertex colors (degree pairs, then repeated neighborhood
color multisets) and then backtracks with forward checking over candidate
bitmasks.  Vertices of the first digraph are assigned in id order and
candidate images are tried ascending, so the mapping returned is the
lexicographically least isomorphism.

This is intended for the orders that appear in the family identities
(up to a couple of hundred vertices), not as a general-purpose solver.
"""

from __future__ import annotations

from .digraph import Digraph, adjacency_masks


def _refine_colors(g: Digraph, h: Digraph) -> tuple[list[int], list[int]] | None:
    """Joint color refinement; None when the color histograms ever differ."""

    def initial(g: Digraph) -> list[tuple]:
        return [
            (g.out_degree(v), g.in_degree(v), (v, v) in g.arcs)
            for v in range(g.n)
        ]

    sig_g = initial(g)
    sig_h = initial(h)
    colors_g: list[int] = []
    colors_h: list[int] = []
    for _ in range(g.n + 1):
        palette: dict[tuple, int] = {}
        new_g = [palette.setdefault(s, len(palette)) for s in sig_g]
        new_h = []
        for s in sig_h:
            if s not in palette:
                return None
            new_h.append(palette[s])
        if sorted(new_g) != sorted(new_h):
            return None
        if colors_g and len(set(new_g)) == len(set(colors_g)):
            colors_g, colors_h = new_g, new_h
            break
        colors_g, colors_h = new_g, new_h
        sig_g = [
            (
                colors_g[v],
                tuple(sorted(colors_g[w] for w in g.out_neighborhood(v))),
                tuple(sorted(colors_g[w] for w in g.in_neighborhood(v))),
            )
            for v in range(g.n)
        ]
        sig_h = [
            (
                colors_h[v],
                tuple(sorted(colors_h[w] for w in h.out_neighborhood(v))),
                tuple(sorted(colors_h[w] for w in h.in_neighborhood(v))),
            )
            for v in range(h.n)
        ]
    return colors_g, colors_h


def are_isomorphic(g: Digraph, h: Digraph) -> tuple[int, ...] | None:
    """An isomorphism from ``g`` onto ``h`` as a tuple ``phi`` with
    ``phi[u]`` the image of ``u``, or ``None`` when none exists."""
    if g.n != h.n or len(g.arcs) != len(h.arcs):
        return None
    refined = _refine_colors(g, h)
    if refined is None:
        return None
    colors_g, colors_h = refined
    n = g.n
    full = (1 << n) - 1
    color_mask_h: dict[int, int] = {}
    for v in range(n):
        color_mask_h[colors_h[v]] = color_mask_h.get(colors_h[v], 0) | (1 << v)
    out_g, in_g = adjacency_masks(g)
    out_h, in_h = adjacency_masks(h)

    candidates = [color_mask_h.get(colors_g[u], 0) for u in range(n)]
    if any(c == 0 for c in candidates):
        return None
    phi = [-1] * n

    def assign(u: int, used: int, cand: list[int]) -> bool:
        if u == n:
            return True
        options = cand[u] & ~used
        while options:
            x_bit = options & -options
            options ^= x_bit
            x = x_bit.bit_length() - 1
            # Forward-check every later vertex against adjacency with u.
            new_cand = list(cand)
            ok = True
            for w in range(u + 1, n):
                if (out_g[u] >> w) & 1:
                    allowed = out_h[x]
                else:
                    allowed = full & ~out_h[x]
                if (in_g[u] >> w) & 1:
                    allowed &= in_h[x]
                else:
                    allowed &= full & ~in_h[x]
                new_cand[w] = cand[w] & allowed
                if new_cand[w] & ~(used | x_bit) == 0:
                    ok = False
                    break
            if ok:
                phi[u] = x
                if assign(u + 1, used | x_bit, new_cand):
                    return True
                phi[u] = -1
        return False

    if assign(0, 0, candidates):
        return tuple(phi)
    return None
