"""Generators for the digraph families studied here.

All generators are deterministic: vertex ids follow the natural order of
the underlying objects (residues ascending, tuples lexicographic, pairs
row-major), so two calls with equal parameters return equal digraphs.

The families:

* ``de_bruijn(d, D)``: vertices are residues mod ``d**D`` and ``x`` points
  to ``d*x + t`` for ``t in 0..d-1``.
* ``kautz(d, D)``: vertices are the length-``D`` words over an alphabet of
  size ``d + 1`` with no two consecutive letters equal; arcs shift the
  window one step.
* ``gen_de_bruijn(d, n)`` / ``gen_kautz(d, n)``: the same residue maps
  ``x -> d*x + t`` and ``x -> -d*x - t`` over an arbitrary modulus ``n``.
* ``wrapped_butterfly(d, n)``: vertices ``(x, l)`` with ``x`` a word in
  ``{0..d-1}**n`` and level ``l``; an arc rewrites letter ``l`` arbitrarily
  and moves to level ``l + 1 (mod n)``.
* ``complete_with_loops(d)``, ``complete_without_loops(m)``, ``cycle(n)``.

``conjunction`` is the tensor-style product whose arcs are exactly the
pairs of arcs of the factors.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .digraph import Digraph
from .errors import DomainError


def _check_positive(value: int, what: str, minimum: int) -> int:
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise DomainError(f"{what} must be an int >= {minimum}, got {value!r}")
    return value


def de_bruijn(d: int, big_d: int) -> Digraph:
    """The de Bruijn digraph on ``d**D`` residues, out-degree ``d``."""
    _check_positive(d, "degree d", 2)
    _check_positive(big_d, "diameter D", 1)
    order = d**big_d
    arcs = [(x, (d * x + t) % order) for x in range(order) for t in range(d)]
    return Digraph(order, arcs, name=f"B({d},{big_d})")


def kautz(d: int, big_d: int) -> Digraph:
    """The Kautz digraph on words of length ``D`` with distinct consecutive letters."""
    _check_positive(d, "degree d", 2)
    _check_positive(big_d, "diameter D", 1)
    if d == 2:
        warnings.warn(
            "kautz with d = 2 is outside the range the closed-form results "
            "were stated for; the digraph itself is fine",
            stacklevel=2,
        )
    words = [
        w
        for w in itertools.product(range(d + 1), repeat=big_d)
        if all(a != b for a, b in zip(w, w[1:]))
    ]
    index = {w: i for i, w in enumerate(words)}
    arcs = []
    for w in words:
        for y in range(d + 1):
            if y != w[-1]:
                arcs.append((index[w], index[w[1:] + (y,)]))
    return Digraph(len(words), arcs, name=f"K({d},{big_d})")


def gen_de_bruijn(d: int, n: int) -> Digraph:
    """Generalised de Bruijn digraph: ``x -> d*x + t (mod n)``."""
    _check_positive(d, "degree d", 2)
    _check_positive(n, "order n", 1)
    arcs = {(x, (d * x + t) % n) for x in range(n) for t in range(d)}
    return Digraph(n, arcs, name=f"GB({d},{n})")


def gen_kautz(d: int, n: int) -> Digraph:
    """Generalised Kautz (Imase-Itoh) digraph: ``x -> -d*x - t (mod n)``."""
    _check_positive(d, "degree d", 2)
    _check_positive(n, "order n", 1)
    arcs = {(x, (-d * x - t) % n) for x in range(n) for t in range(1, d + 1)}
    return Digraph(n, arcs, name=f"GK({d},{n})")


def wrapped_butterfly(d: int, n: int) -> Digraph:
    """The wrapped butterfly on ``n * d**n`` vertices ``(word, level)``.

    From ``(x, l)`` there is an arc to every ``(x', l+1 mod n)`` where ``x'``
    agrees with ``x`` outside position ``l``.
    """
    _check_positive(d, "degree d", 2)
    _check_positive(n, "levels n", 2)
    words = list(itertools.product(range(d), repeat=n))
    index = {
        (w, l): i
        for i, (w, l) in enumerate(itertools.product(words, range(n)))
    }
    arcs = []
    for w, l in itertools.product(words, range(n)):
        for a in range(d):
            target = w[:l] + (a,) + w[l + 1 :]
            arcs.append((index[(w, l)], index[(target, (l + 1) % n)]))
    return Digraph(len(index), arcs, name=f"WB({d},{n})")


def complete_with_loops(d: int) -> Digraph:
    """All ``d*d`` arcs on ``d`` vertices, loops included."""
    _check_positive(d, "order d", 1)
    arcs = [(u, v) for u in range(d) for v in range(d)]
    return Digraph(d, arcs, name=f"K{d}+loops")


def complete_without_loops(m: int) -> Digraph:
    """All ordered pairs of distinct vertices on ``m`` vertices."""
    _check_positive(m, "order m", 1)
    arcs = [(u, v) for u in range(m) for v in range(m) if u != v]
    return Digraph(m, arcs, name=f"K{m}*")


def cycle(n: int) -> Digraph:
    """The directed cycle ``0 -> 1 -> ... -> n-1 -> 0`` (a loop when ``n = 1``)."""
    _check_positive(n, "order n", 1)
    arcs = [(v, (v + 1) % n) for v in range(n)]
    return Digraph(n, arcs, name=f"C{n}")


def conjunction(g: Digraph, h: Digraph) -> Digraph:
    """Product with vertex ``(a, b) -> a * h.n + b`` and arcs the arc pairs."""
    arcs = [
        (a * h.n + b, c * h.n + e)
        for a, c in g.arcs_sorted
        for b, e in h.arcs_sorted
    ]
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


@dataclass(frozen=True)
class FamilySpec:
    """A family tag plus its numeric parameters, ready to build."""

    family: str
    d: int | None = None
    D: int | None = None
    n: int | None = None

    def build(self) -> Digraph:
        if self.family not in FAMILIES:
            known = ", ".join(sorted(FAMILIES))
            raise DomainError(f"unknown family {self.family!r} (known: {known})")
        builder, wanted = FAMILIES[self.family]
        given = {
            key: value
            for key, value in (("d", self.d), ("D", self.D), ("n", self.n))
            if value is not None
        }
        if set(given) != set(wanted):
            raise DomainError(
                f"family {self.family!r} takes parameters "
                f"{'/'.join('--' + p for p in wanted)}"
            )
        return builder(*(given[p] for p in wanted))
