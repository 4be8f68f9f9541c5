"""The benchmark's workloads, their inputs and their answer checkers.

A workload builder takes the imported ``forcing_lab`` package and a seed
and returns the fixed list of operations one pass runs.  The seed drives
every random relabeling and random base digraph; the library sees only
the generated digraphs.  Each operation looks its library function up at
call time (``fl.iterated_line``, not a captured reference), so that the
traced run sees the call.

Checkers return ``None`` for a correct answer and a reason otherwise.
They share no code with the library: closures, walks, factor partitions,
isomorphism mappings and negative certificates are recomputed here from
plain arc lists.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from random import Random
from types import ModuleType
from typing import Callable, Iterable

Check = Callable[[object], "str | None"]


@dataclass(frozen=True)
class Op:
    """One library call: ``call(*inputs)``, judged by ``check``."""

    name: str
    inputs: tuple
    call: Callable[..., object]
    check: Check


# -- plain-data helpers ----------------------------------------------------


def _relabel(fl: ModuleType, g, rng: Random):
    """``g`` with vertex ``v`` renamed ``perm[v]``; returns ``(h, perm)``."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    h = fl.Digraph(g.n, [(perm[u], perm[v]) for u, v in g.arcs_sorted])
    return h, perm


def _random_regular(fl: ModuleType, rng: Random, n: int, d: int):
    """A ``d``-regular digraph on ``n`` vertices (loops allowed): the union
    of ``d`` permutations that differ at every vertex."""
    while True:
        perms = [rng.sample(range(n), n) for _ in range(d)]
        if all(len({p[v] for p in perms}) == d for v in range(n)):
            return fl.Digraph(n, [(v, p[v]) for p in perms for v in range(n)])


def closes(n: int, arcs: Iterable[tuple[int, int]], start: Iterable[int], dominate: bool) -> bool:
    """Whether zero forcing (after one domination round when ``dominate``)
    colors all ``n`` vertices.  Worklist version of the closure: a vertex
    with exactly one white out-neighbor forces it, and must itself be
    colored unless the digraph has a loop."""
    out: list[list[int]] = [[] for _ in range(n)]
    inn: list[list[int]] = [[] for _ in range(n)]
    loop_rule = False
    for u, v in arcs:
        out[u].append(v)
        inn[v].append(u)
        loop_rule |= u == v
    colored = bytearray(n)
    white = [len(heads) for heads in out]
    queue: list[int] = []

    def color(v: int) -> None:
        colored[v] = 1
        queue.append(v)
        for w in inn[v]:
            white[w] -= 1
            if white[w] == 1:
                queue.append(w)

    seeds = set(start)
    if dominate:
        seeds |= {v for u in list(seeds) for v in out[u]}
    for v in seeds:
        color(v)
    queue.extend(u for u in range(n) if white[u] == 1)
    while queue:
        u = queue.pop()
        if white[u] == 1 and (loop_rule or colored[u]):
            color(next(v for v in out[u] if not colored[v]))
    return all(colored)


# -- checkers --------------------------------------------------------------


# The checks each suite of ``verify all`` makes, in the order it runs
# them: 26 in all.
VERIFY_CHECKS = {
    "line-zf": 2,
    "de-bruijn": 7,
    "kautz": 4,
    "gen-families": 3,
    "wrapped-butterfly": 4,
    "gimbert": 1,
    "nullity-collapse": 1,
    "pd-zf-bridge": 1,
    "cycle-factorization": 1,
    "sandwich": 1,
    "pd-identity": 1,
}


def check_verify(suite: str) -> Check:
    def check(result) -> str | None:
        code, stdout = result
        if code != 0:
            return f"exit code {code}"
        document = json.loads(stdout)
        checks = document["checks"]
        failing = [c["label"] for c in checks if not c["passed"]]
        if (document["suite"] != suite or len(checks) != VERIFY_CHECKS[suite] or failing
                or document["failed"] != 0):
            return f"{document['suite']}: {len(checks)} checks, failing: {failing}"
        return None

    return check


def check_iterate(base, k: int) -> Check:
    """``L^k(base)`` of a ``d``-regular base: every length-``k`` walk once,
    and an arc exactly between overlapping walks."""
    d = len(base.arcs) // base.n
    base_arcs = set(base.arcs)

    def check(result) -> str | None:
        g, labels = result.graph, result.labels
        n = base.n * d**k
        if g.n != n or len(g.arcs) != n * d or len(set(labels)) != n:
            return f"order {g.n}, {len(g.arcs)} arcs, {len(set(labels))} walks"
        for walk in labels:
            if len(walk) != k + 1 or any(a not in base_arcs for a in zip(walk, walk[1:])):
                return f"{walk} is not a walk of length {k}"
        for u, v in g.arcs:
            if labels[u][1:] != labels[v][:-1]:
                return f"arc {(u, v)} joins walks that do not overlap"
        return None

    return check


def check_witness(host, line, dominate: bool) -> Check:
    """A set of size |A(host)| - |V(host)| on ``line`` that forces it."""

    def check(result) -> str | None:
        size = len(host.arcs) - host.n
        if len(result.vertices) != size:
            return f"witness has {len(result.vertices)} vertices, expected {size}"
        if result.line.graph.n != line.n or result.line.graph.arcs != line.arcs:
            return "witness lives on another digraph"
        if not result.trace.covers_all:
            return "library trace does not cover"
        if not closes(line.n, line.arcs, result.vertices, dominate):
            return "witness does not force"
        return None

    return check


def check_factorization(g) -> Check:
    """``d`` permutations whose arcs partition the arcs of ``g``."""
    d = len(g.arcs) // g.n

    def check(result) -> str | None:
        if len(result.factors) != d:
            return f"{len(result.factors)} factors, expected {d}"
        covered: set[tuple[int, int]] = set()
        for factor in result.factors:
            if sorted(factor.f) != list(range(g.n)):
                return "factor is not a permutation"
            covered |= {(u, v) for v, u in enumerate(factor.f)}
        if len(covered) != len(g.arcs) or covered != g.arcs:
            return "factors do not partition the arcs"
        return None

    return check


def check_rank(order: int, d: int) -> Check:
    def check(result) -> str | None:
        if result.rank * d != order or result.rank + result.nullity != order:
            return f"rank {result.rank}, nullity {result.nullity} at order {order}"
        return None

    return check


def check_mapping(g, h) -> Check:
    """An isomorphism from ``g`` onto ``h``, checked arc by arc."""

    def check(phi) -> str | None:
        if phi is None:
            return "no isomorphism returned"
        if len(phi) != g.n or sorted(phi) != list(range(h.n)):
            return "mapping is not a bijection"
        if len(g.arcs) != len(h.arcs):
            return "arc counts differ"
        for u, v in g.arcs:
            if (phi[u], phi[v]) not in h.arcs:
                return f"arc {(u, v)} is not mapped onto an arc"
        return None

    return check


def _loops(g) -> int:
    return sum(1 for u, v in g.arcs if u == v)


def check_non_isomorphic(g, h) -> Check:
    """``None`` from the library, certified here by differing loop counts."""

    def check(phi) -> str | None:
        if _loops(g) == _loops(h):
            return "loop counts agree, so the pair is not certified negative"
        if phi is not None:
            return "isomorphism returned for a certified negative pair"
        return None

    return check


def check_chain(perm: list[int], mode: str) -> Check:
    """Forcing along a chain from ``perm[0]``: round ``r`` colors only
    ``perm[r]``, forced by ``perm[r - 1]``."""
    n = len(perm)
    certificate = tuple((perm[r - 1], perm[r], r) for r in range(1, n))

    def check(trace) -> str | None:
        if trace.mode != mode or not trace.covers_all:
            return f"{trace.mode} trace, covers_all={trace.covers_all}"
        if len(trace.rounds) != n - 1 or trace.certificate != certificate:
            return f"{len(trace.rounds)} rounds, certificate differs from the chain"
        return None

    return check


# -- workloads -------------------------------------------------------------


def _run_cli(fl: ModuleType, argv: list[str]) -> tuple[int, str]:
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = fl.cli.main(argv)
    return code, stdout.getvalue()


def build_verify_all(fl: ModuleType, seed: int) -> list[Op]:
    """The suites of ``verify all``, in its order, one ``verify <suite>``
    command each, so that the reference work is timed between them.  The
    suites carry their own fixed seeds, so ``seed`` changes nothing."""
    return [
        Op(f"verify {suite}", (suite,), lambda suite: _run_cli(fl, ["verify", suite]),
           check_verify(suite))
        for suite in VERIFY_CHECKS
    ]


def build_line_witness(fl: ModuleType, seed: int) -> list[Op]:
    rng = Random(seed)
    fixed = [
        ("K2+loops", fl.complete_with_loops(2), 11),
        ("K3+loops", fl.complete_with_loops(3), 6),
        ("K4+loops", fl.complete_with_loops(4), 4),
        ("B(2,3)", fl.de_bruijn(2, 3), 8),
        ("K(3,2)", fl.kautz(3, 2), 5),
    ]
    # Depths k give L^k of order 1024 to 4096.
    bases = [(name, _relabel(fl, g, rng)[0], k) for name, g, k in fixed]
    bases.append(("random 2-regular(16)", _random_regular(fl, rng, 16, 2), 7))
    bases.append(("random 3-regular(14)", _random_regular(fl, rng, 14, 3), 4))
    ops = []
    for name, base, k in bases:
        below2 = fl.iterated_line(base, k - 2).graph
        below1 = fl.line_digraph(below2).graph
        top = fl.line_digraph(below1).graph
        ops += [
            Op(f"{name}: iterated_line k={k}", (base, k),
               lambda g, k: fl.iterated_line(g, k), check_iterate(base, k)),
            Op(f"{name}: construct_zfs_line", (below1,),
               lambda g: fl.construct_zfs_line(g), check_witness(below1, top, False)),
            Op(f"{name}: construct_pds_L2", (below2,),
               lambda g: fl.construct_pds_L2(g), check_witness(below2, top, True)),
            Op(f"{name}: cycle_factorization", (top,),
               lambda g: fl.cycle_factorization(g), check_factorization(top)),
        ]
    return ops


def build_oracle_midsize(fl: ModuleType, seed: int) -> list[Op]:
    rng = Random(seed)
    ops = []
    for name, g, d in [
        ("WB(2,6)", fl.wrapped_butterfly(2, 6), 2),
        ("K(3,5)", fl.kautz(3, 5), 3),
        ("L^4(K3+loops)", fl.iterated_line(fl.complete_with_loops(3), 4).graph, 3),
        ("B(2,8)", fl.de_bruijn(2, 8), 2),
    ]:
        h = _relabel(fl, g, rng)[0]
        ops.append(Op(f"rank {name}", (h,),
                      lambda g: fl.rank_exact(fl.adjacency_matrix(g)), check_rank(g.n, d)))
    relabeled = [
        ("B(2,9)", fl.de_bruijn(2, 9)),
        ("GB(3,400)", fl.gen_de_bruijn(3, 400)),
        ("GK(2,500)", fl.gen_kautz(2, 500)),
        ("WB(2,6)", fl.wrapped_butterfly(2, 6)),
        ("L^3(K3+loops)", fl.iterated_line(fl.complete_with_loops(3), 3).graph),
    ]
    positives = [(f"{name} vs relabeling", g, _relabel(fl, g, rng)[0]) for name, g in relabeled]
    positives += [
        ("L(GB(2,300)) vs GB(2,600)", fl.line_digraph(fl.gen_de_bruijn(2, 300)).graph,
         fl.gen_de_bruijn(2, 600)),
        ("L(K(3,4)) vs K(3,5)", fl.line_digraph(fl.kautz(3, 4)).graph, fl.kautz(3, 5)),
        ("L(GB(2,256)) vs B(2,9)", fl.line_digraph(fl.gen_de_bruijn(2, 256)).graph,
         fl.de_bruijn(2, 9)),
    ]
    for name, g, h in positives:
        ops.append(Op(f"iso {name}", (g, h),
                      lambda g, h: fl.are_isomorphic(g, h), check_mapping(g, h)))
    for name, g, h in [
        ("GB(2,600) vs GK(2,600)", fl.gen_de_bruijn(2, 600), fl.gen_kautz(2, 600)),
        ("GB(3,400) vs GK(3,400)", fl.gen_de_bruijn(3, 400), fl.gen_kautz(3, 400)),
    ]:
        g, h = _relabel(fl, g, rng)[0], _relabel(fl, h, rng)[0]
        ops.append(Op(f"iso {name}", (g, h),
                      lambda g, h: fl.are_isomorphic(g, h), check_non_isomorphic(g, h)))
    return ops


def build_deep_chain(fl: ModuleType, seed: int) -> list[Op]:
    rng = Random(seed)
    path = fl.Digraph(1000, [a for v in range(999) for a in ((v, v + 1), (v + 1, v))])
    # Several relabelings of each chain: many operations of a fifth of a
    # second each, rather than a few of a second, so that the reference
    # work timed between them follows the host's speed.
    chains = [(f"cycle(1000) #{i}", fl.cycle(1000)) for i in range(3)]
    chains += [(f"bidirected path(1000) #{i}", path) for i in range(2)]
    ops = []
    for name, g in chains:
        h, perm = _relabel(fl, g, rng)
        start = {perm[0]}
        ops.append(Op(f"zf_closure {name}", (h, start),
                      lambda g, s: fl.zf_closure(g, s), check_chain(perm, "zero-forcing")))
        ops.append(Op(f"pd_closure {name}", (h, start),
                      lambda g, s: fl.pd_closure(g, s), check_chain(perm, "power-domination")))
    for n in (500, 700):
        g = fl.cycle(n)
        h = _relabel(fl, g, rng)[0]
        ops.append(Op(f"iso cycle({n}) vs relabeling", (g, h),
                      lambda g, h: fl.are_isomorphic(g, h), check_mapping(g, h)))
    return ops


# Why each workload was chosen is recorded in BENCHMARK.json and
# perfbench/baseline.json.
WORKLOADS: dict[str, Callable[[ModuleType, int], list[Op]]] = {
    "verify-all": build_verify_all,
    "line-witness": build_line_witness,
    "oracle-midsize": build_oracle_midsize,
    "deep-chain": build_deep_chain,
}
