"""Round-based zero-forcing and power-domination closures.

Both processes color vertices in synchronous rounds.  Zero forcing starts
from a non-empty set ``S`` and repeatedly applies the forcing rule: a
vertex ``u`` whose out-neighborhood contains exactly one uncolored vertex
``v`` forces ``v``.  Which vertices may act as forcers is a global property
of the digraph: with no loops anywhere the forcer must itself be colored
already; as soon as the digraph has at least one loop, any vertex may
force, so a white looped vertex whose other out-neighbors are colored
forces itself.

Power domination prepends a single domination round: round 1 colors the
closed out-neighborhood of ``S``, and every later round applies the
zero-forcing rule above.

A trace stores only its certificate: an entry ``(forcer, forced, round)``
per colored vertex, in order, with the least-id eligible forcer chosen for
determinism; the rounds and the final set are built from it when read.

One worklist engine runs both closures over the adjacency tuples the
:class:`Digraph` already holds.  It keeps a count of white out-neighbors
per vertex; the first forcing round examines every vertex, and each later
round only the vertices colored in the round before and their
in-neighbors, in ascending order, since no other vertex can have become an
eligible forcer.  Rounds and certificates are therefore those of the plain
synchronous rescan, at a cost proportional to the arcs touched instead of
``n`` per round.

A starting set must be non-empty.  (With the loop rule even the empty set
can propagate, e.g. on a single looped vertex, but the definitions demand
non-empty sets, which pins the forcing numbers at 1 or more.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .digraph import Digraph, check_nonempty_vertex_set

MODE_ZERO_FORCING = "zero-forcing"
MODE_POWER_DOMINATION = "power-domination"


@dataclass(frozen=True)
class PropagationTrace:
    """The full history of one closure computation, as its certificate.

    Entries ``(u, v, r)`` come in the order colored: in round ``r`` vertex
    ``u`` forced ``v`` (in a power-domination trace, a round-1 entry means
    ``v`` lies in the closed out-neighborhood of the starting set,
    witnessed by ``u``).  ``rounds[i]`` is read off it as the ``v`` of
    round ``i + 1``, up to the last entry's round, and ``final`` as
    ``initial`` plus every ``v``.
    """

    mode: str
    initial: frozenset[int]
    certificate: tuple[tuple[int, int, int], ...]
    covers_all: bool

    @property
    def rounds(self) -> tuple[frozenset[int], ...]:
        last = self.certificate[-1][2] if self.certificate else 0
        blocks: list[list[int]] = [[] for _ in range(last)]
        for _, v, r in self.certificate:
            blocks[r - 1].append(v)
        return tuple(frozenset(block) for block in blocks)

    @property
    def final(self) -> frozenset[int]:
        return self.initial.union(v for _, v, _ in self.certificate)


def _run(g: Digraph, mode: str, s: Iterable[int]) -> PropagationTrace:
    initial = check_nonempty_vertex_set(g, s, "starting set")
    out, inn = g._out, g._in
    loop_rule = g.has_loops
    colored = set(initial)
    certificate: list[tuple[int, int, int]] = []
    r = 1
    if mode == MODE_POWER_DOMINATION:
        owner: dict[int, int] = {}
        for u in sorted(initial):
            for v in out[u]:
                if v not in colored and v not in owner:
                    owner[v] = u
        for v in sorted(owner):
            certificate.append((owner[v], v, 1))
        colored.update(owner)
        r = 2
    white = list(map(len, out))
    for v in colored:
        for u in inn[v]:
            white[u] -= 1
    # Only a vertex colored last round, or one that lost a white
    # out-neighbor to it, can have become an eligible forcer since.
    candidates: Iterable[int] = range(g.n)
    while True:
        forced: dict[int, int] = {}
        for u in candidates:
            if white[u] == 1 and (loop_rule or u in colored):
                for v in out[u]:
                    if v not in colored:
                        break
                if v not in forced:
                    forced[v] = u
        if not forced:
            break
        touched = set(forced)
        for v in sorted(forced):
            certificate.append((forced[v], v, r))
            for u in inn[v]:
                white[u] -= 1
            touched.update(inn[v])
        colored.update(forced)
        candidates = sorted(touched)
        r += 1
    return PropagationTrace(
        mode=mode,
        initial=initial,
        certificate=tuple(certificate),
        covers_all=len(colored) == g.n,
    )


def zf_closure(g: Digraph, s: Iterable[int]) -> PropagationTrace:
    """Run zero forcing from ``s`` to its fixed point."""
    return _run(g, MODE_ZERO_FORCING, s)


def is_zero_forcing_set(g: Digraph, s: Iterable[int]) -> bool:
    """Whether forcing from ``s`` colors every vertex."""
    return zf_closure(g, s).covers_all


def pd_closure(g: Digraph, s: Iterable[int]) -> PropagationTrace:
    """Run the domination round and then zero forcing from ``s``."""
    return _run(g, MODE_POWER_DOMINATION, s)


def is_power_dominating_set(g: Digraph, s: Iterable[int]) -> bool:
    """Whether domination plus forcing from ``s`` colors every vertex."""
    return pd_closure(g, s).covers_all
