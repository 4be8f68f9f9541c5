"""Generators for the digraph families studied here.

All generators are deterministic: vertex ids follow the natural order of
the underlying objects (residues ascending, tuples lexicographic, pairs
row-major), so two calls with equal parameters return equal digraphs.
Each passes ``Digraph`` its closed-form order and a lazy arc stream, so
the size limits there refuse an oversize family before it is built; only
``_power`` checks an exponent first, as the power alone can take seconds.

* ``de_bruijn(d, D)``: vertices are residues mod ``d**D`` and ``x`` points
  to ``d*x + t`` for ``t in 0..d-1``.
* ``kautz(d, D)``: vertices are the length-``D`` words over an alphabet of
  size ``d + 1`` with no two consecutive letters equal; arcs shift the
  window one step.  Arc ``j`` is the ``j``-th such word ``u`` of length
  ``D + 1``: it runs from ``u[:-1]``, id ``j // d``, to ``u[1:]``, the
  ``(j mod d**D)``-th word outside the ``d**(D-1)`` that start with ``u[0]``.
* ``gen_de_bruijn(d, n)`` / ``gen_kautz(d, n)``: the same residue maps
  ``x -> d*x + t`` and ``x -> -d*x - t`` over an arbitrary modulus ``n``.
  Out-degrees are ``d`` when ``n >= d``; when ``n < d`` the heads collapse
  onto all ``n`` vertices, so ``t`` runs over ``min(d, n)`` values.
* ``wrapped_butterfly(d, n)``: vertices ``(x, l)`` with ``x`` a word in
  ``{0..d-1}**n`` and level ``l``; an arc rewrites letter ``l`` arbitrarily
  and moves to level ``l + 1 (mod n)``.
* ``complete_with_loops(d)``, ``complete_without_loops(m)``, ``cycle(n)``.

``conjunction`` is the tensor-style product whose arcs are exactly the
pairs of arcs of the factors.  ``FAMILIES`` names each family for
``forcing-lab gen``, which checks the parameters given against it.
"""

from __future__ import annotations

import warnings

from .digraph import MAX_ORDER, Digraph, check_int
from .errors import ResourceLimitError


def _power(base: int, exponent: int) -> int:
    """``base**exponent``, refused if it passes ``MAX_ORDER`` for every base >= 2."""
    if exponent >= MAX_ORDER.bit_length():
        raise ResourceLimitError(f"order >= {base}**{exponent}, above {MAX_ORDER}")
    return base**exponent


def de_bruijn(d: int, big_d: int) -> Digraph:
    """The de Bruijn digraph on ``d**D`` residues, out-degree ``d``."""
    check_int(d, "degree d", 2)
    check_int(big_d, "diameter D", 1)
    order = _power(d, big_d)
    arcs = ((x, (d * x + t) % order) for x in range(order) for t in range(d))
    return Digraph(order, arcs, name=f"B({d},{big_d})")


def kautz(d: int, big_d: int) -> Digraph:
    """The Kautz digraph on words of length ``D`` with distinct consecutive letters."""
    check_int(d, "degree d", 2)
    check_int(big_d, "diameter D", 1)
    if d == 2:
        warnings.warn(
            "kautz with d = 2 is outside the range the closed-form results "
            "were stated for; the digraph itself is fine",
            stacklevel=2,
        )
    block = _power(d, big_d - 1)

    def arcs():
        for j in range(d * (d + 1) * block):
            first, rest = divmod(j, d * block)
            yield j // d, rest + block if rest >= first * block else rest

    return Digraph((d + 1) * block, arcs(), name=f"K({d},{big_d})")


def gen_de_bruijn(d: int, n: int) -> Digraph:
    """Generalised de Bruijn digraph: ``x -> d*x + t (mod n)``."""
    check_int(d, "degree d", 2)
    check_int(n, "order n", 1)
    arcs = ((x, (d * x + t) % n) for x in range(n) for t in range(min(d, n)))
    return Digraph(n, arcs, name=f"GB({d},{n})")


def gen_kautz(d: int, n: int) -> Digraph:
    """Generalised Kautz (Imase-Itoh) digraph: ``x -> -d*x - t (mod n)``."""
    check_int(d, "degree d", 2)
    check_int(n, "order n", 1)
    arcs = ((x, (-d * x - t - 1) % n) for x in range(n) for t in range(min(d, n)))
    return Digraph(n, arcs, name=f"GK({d},{n})")


def wrapped_butterfly(d: int, n: int) -> Digraph:
    """The wrapped butterfly on ``n * d**n`` vertices ``(word, level)``.

    ``(x, l)`` has id ``x*n + l`` with ``x`` read in base ``d``, and its arcs
    rewrite the digit of place value ``d**(n-1-l)``, letter ``l`` of ``x``.
    """
    check_int(d, "degree d", 2)
    check_int(n, "levels n", 2)
    words = _power(d, n)
    places = [d ** (n - 1 - l) for l in range(n)]
    arcs = (
        (x * n + l, (x + (a - x // p % d) * p) * n + (l + 1) % n)
        for x in range(words) for l, p in enumerate(places) for a in range(d)
    )
    return Digraph(n * words, arcs, name=f"WB({d},{n})")


def complete_with_loops(d: int) -> Digraph:
    """All ``d*d`` arcs on ``d`` vertices, loops included."""
    check_int(d, "order d", 1)
    arcs = ((u, v) for u in range(d) for v in range(d))
    return Digraph(d, arcs, name=f"K{d}+loops")


def complete_without_loops(m: int) -> Digraph:
    """All ordered pairs of distinct vertices on ``m`` vertices."""
    check_int(m, "order m", 1)
    arcs = ((u, v) for u in range(m) for v in range(m) if u != v)
    return Digraph(m, arcs, name=f"K{m}*")


def cycle(n: int) -> Digraph:
    """The directed cycle ``0 -> 1 -> ... -> n-1 -> 0`` (a loop when ``n = 1``)."""
    check_int(n, "order n", 1)
    arcs = ((v, (v + 1) % n) for v in range(n))
    return Digraph(n, arcs, name=f"C{n}")


def conjunction(g: Digraph, h: Digraph) -> Digraph:
    """Product with vertex ``(a, b) -> a * h.n + b`` and arcs the arc pairs."""
    h_arcs = h.arcs_sorted
    arcs = ((a * h.n + b, c * h.n + e) for a, c in g.arcs_sorted for b, e in h_arcs)
    name = None
    if g.name is not None and h.name is not None:
        name = f"{g.name}x{h.name}"
    return Digraph(g.n * h.n, arcs, name=name)


FAMILIES = {
    "de-bruijn": (de_bruijn, ("d", "D")),
    "kautz": (kautz, ("d", "D")),
    "gen-de-bruijn": (gen_de_bruijn, ("d", "n")),
    "gen-kautz": (gen_kautz, ("d", "n")),
    "wrapped-butterfly": (wrapped_butterfly, ("d", "n")),
    "complete-loops": (complete_with_loops, ("d",)),
    "complete-noloops": (complete_without_loops, ("n",)),
    "cycle": (cycle, ("n",)),
}
"""Each family tag with its generator and the names of its parameters, in
the generator's argument order."""
