from __future__ import annotations

import re
from enum import IntEnum
from itertools import chain, repeat
from random import Random

import networkx as nx
import pytest

from forcing_lab import digraph
from forcing_lab.constructions import construct_pds_L
from forcing_lab.critical import is_critical, is_strongly_critical
from forcing_lab.digraph import MAX_ARCS, MAX_ORDER, Digraph
from forcing_lab.errors import DomainError, ResourceLimitError
from forcing_lab.families import complete_with_loops, de_bruijn
from forcing_lab.linalg import mr_and_max_nullity_regular_line
from forcing_lab.lines import iterated_line, line_digraph
from forcing_lab.propagation import pd_closure, zf_closure


class Vertex(IntEnum):
    A = 0
    B = 1


def _nx_of(g: Digraph) -> nx.DiGraph:
    h = nx.DiGraph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.arcs)
    return h


def test_rejects_bad_order():
    with pytest.raises(DomainError):
        Digraph(-1, [])
    with pytest.raises(DomainError):
        Digraph(True, [])


@pytest.mark.parametrize(
    ("call", "message"),
    [
        (lambda: Digraph(0), "order must be an int >= 1, got 0"),
        (lambda: Digraph(2.0), "order must be an int >= 1, got 2.0"),
        (
            lambda: iterated_line(Digraph(1), -1),
            "iteration count must be an int >= 0, got -1",
        ),
        (
            lambda: iterated_line(Digraph(1), True),
            "iteration count must be an int >= 0, got True",
        ),
        (
            lambda: mr_and_max_nullity_regular_line(complete_with_loops(2), 0),
            "depth must be an int >= 1, got 0",
        ),
        (lambda: de_bruijn(2, False), "diameter D must be an int >= 1, got False"),
    ],
    ids=[
        "zero-order",
        "float-order",
        "negative-iterate",
        "bool-iterate",
        "zero-line-depth",
        "bool-diameter",
    ],
)
def test_integer_arguments_are_refused_in_one_wording(call, message):
    # every "an int, not a bool, at least m" check is digraph.check_int
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


def test_int_subclasses_other_than_bool_pass_the_integer_check():
    assert digraph.check_int(Vertex.B, "order", 1) is Vertex.B
    assert Digraph(Vertex.B).n == 1


def test_rejects_out_of_range_arc():
    with pytest.raises(DomainError):
        Digraph(2, [(0, 2)])
    with pytest.raises(DomainError):
        Digraph(2, [(-1, 0)])


def test_rejects_duplicate_arc():
    with pytest.raises(DomainError):
        Digraph(2, [(0, 1), (0, 1)])


def test_rejects_bool_vertex():
    with pytest.raises(DomainError):
        Digraph(2, [(True, 0)])


@pytest.mark.parametrize(
    ("n", "arcs", "message"),
    [
        (2, [(0, 1), [0, 1, 2], (0, 1)], r"arc must be a pair, got \[0, 1, 2\]"),
        (2, [(0, 1), 0], r"arc must be a pair, got 0"),
        (2, [None], r"arc must be a pair, got None"),
        (2, [(1, 0), "01"], r"arc '01' has endpoint outside 0\.\.1"),
        (2, [(0, 1), (1, True)], r"arc \(1, True\) has endpoint outside 0\.\.1"),
        (3, [(0.0, 1)], r"arc \(0\.0, 1\) has endpoint outside 0\.\.2"),
        # the first offending arc is reported, so an out-of-range arc before
        # a duplicate wins over it, and a duplicate before a bad arc wins too
        (2, [(0, 1), (0, 2), (0, 1)], r"arc \(0, 2\) has endpoint outside 0\.\.1"),
        (2, [(0, 1), [0, 1], (0, 5)], r"duplicate arc \(0, 1\)"),
        (3, [(2, 2), (2, 2), None], r"duplicate arc \(2, 2\)"),
    ],
)
def test_constructor_reports_the_first_bad_arc(n, arcs, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        Digraph(n, arcs)


def _first_offender(n: int, arcs: list) -> str | None:
    """The message of the first arc the constructor must reject, or None:
    a non-pair, then an endpoint that is not an int in ``0 .. n-1`` (bools
    are not), then a pair seen earlier."""
    seen = set()
    for arc in arcs:
        if not isinstance(arc, (tuple, list, str)) or len(arc) != 2:
            return f"arc must be a pair, got {arc!r}"
        u, v = arc
        for w in (u, v):
            if isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < n:
                return f"arc {arc!r} has endpoint outside 0..{n - 1}"
        if (u, v) in seen:
            return f"duplicate arc {(u, v)!r}"
        seen.add((u, v))
    return None


def _messy_arcs(rng: Random, n: int) -> list:
    arcs: list = []
    for _ in range(rng.randint(0, 8)):
        u, v = rng.randrange(n), rng.randrange(n)
        arcs.append(
            rng.choice(
                [
                    (u, v),
                    (u, v),
                    [u, v],
                    (Vertex.B if n > 1 else Vertex.A, v),
                    (u, n + rng.randint(0, 2)),
                    (-1 - rng.randint(0, 2), v),
                    (True, v),
                    (u, False),
                    (float(u), v),
                    (u, str(v)),
                    f"{u}{v}",
                    [u, v, 0],
                    (u,),
                    None,
                    u,
                    arcs[rng.randrange(len(arcs))] if arcs else (u, v),
                    arcs[rng.randrange(len(arcs))] if arcs else (u, v),
                ]
            )
        )
    return arcs


def test_constructor_keeps_the_first_offender_rule():
    rng = Random(20261019)
    accepted = rejected = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        arcs = _messy_arcs(rng, n)
        message = _first_offender(n, arcs)
        if message is None:
            g = Digraph(n, arcs)
            assert g.arcs == frozenset((u, v) for u, v in arcs)
            for w in range(n):
                assert g.out_neighborhood(w) == {v for u, v in arcs if u == w}
                assert g.in_neighborhood(w) == {u for u, v in arcs if v == w}
            accepted += 1
        else:
            with pytest.raises(DomainError) as caught:
                Digraph(n, arcs)
            assert str(caught.value) == message
            rejected += 1
    assert accepted > 300 and rejected > 1500


def test_constructor_accepts_an_int_subclass_other_than_bool():
    g = Digraph(2, [(Vertex.A, Vertex.B), (1, Vertex.A)])
    assert g.arcs == frozenset({(0, 1), (1, 0)})
    assert g.out_neighborhood(0) == {1} and g.in_neighborhood(0) == {1}
    with pytest.raises(DomainError, match=r"^duplicate arc \(<Vertex\.B: 1>, 0\)$"):
        Digraph(2, [(1, 0), (Vertex.B, 0)])


def test_order_above_the_limit_is_refused():
    def unread():
        raise AssertionError("the order is checked before any arc is read")
        yield

    refusal = f"^order {MAX_ORDER + 1} is above"
    for arcs in ([], unread()):
        with pytest.raises(ResourceLimitError, match=refusal):
            Digraph(MAX_ORDER + 1, arcs)


def test_arc_count_above_the_limit_is_refused():
    n = 1 << 10
    arcs = [(u, v) for u in range(n) for v in range(MAX_ARCS // n)]
    assert Digraph(n, arcs).arc_count == MAX_ARCS
    refusal = f"^arc count above the limit of {MAX_ARCS}$"
    with pytest.raises(ResourceLimitError, match=refusal):
        Digraph(n, arcs + [(0, n - 1)])


def test_arc_limit_reads_one_arc_past_the_bound(monkeypatch):
    monkeypatch.setattr(digraph, "MAX_ARCS", 3)
    assert Digraph(2, [(0, 0), (0, 1), (1, 0)]).arc_count == 3
    # an endless stream is refused after the bound plus one arc, unchecked
    endless = chain([(0, 0), (0, 1), (1, 0)], repeat((9, 9)))
    with pytest.raises(ResourceLimitError, match="^arc count above the limit of 3$"):
        Digraph(2, endless)
    with pytest.raises(DomainError, match="^duplicate arc"):
        Digraph(2, [(0, 0), (0, 0), (1, 0), (1, 1)])
    # an iterate handed over whole meets the same bound; both bases have 3
    # arcs, L^5 of the 3-cycle has 3 and L of 0 -> 1 -> 1 -> 2 has 4
    assert iterated_line(Digraph(3, [(0, 1), (1, 2), (2, 0)]), 5).graph.arc_count == 3
    with pytest.raises(ResourceLimitError, match="^arc count above the limit of 3$"):
        line_digraph(Digraph(3, [(0, 1), (1, 1), (1, 2)]))


def test_constructor_state_from_one_pass():
    g = Digraph(3, iter([(2, 0), (0, 1), (1, 1), (0, 2)]))
    assert g.arcs == frozenset({(0, 1), (0, 2), (1, 1), (2, 0)})
    assert [g.out_neighborhood(v) for v in range(3)] == [{1, 2}, {1}, {0}]
    assert [g.in_neighborhood(v) for v in range(3)] == [{2}, {0, 1}, {0}]
    assert hash(g) == hash((3, ((1, 2), (1,), (0,))))


def test_arc_views_agree_with_a_plain_set():
    rng = Random(20261020)
    loops = empty_out_sets = 0
    for _ in range(400):
        n = rng.randint(1, 9)
        density = rng.random()
        wanted = {
            (u, v) for u in range(n) for v in range(n) if rng.random() < density
        }
        arcs = list(wanted)
        rng.shuffle(arcs)
        g = Digraph(n, arcs)
        h = Digraph(n, iter(sorted(wanted, reverse=True)))
        out = tuple(tuple(sorted(v for x, v in wanted if x == u)) for u in range(n))
        # equality and hashing read the out-tuples, never the arc set
        assert g == h and hash(g) == hash(h) == hash((n, out))
        assert g._arcs is None and h._arcs is None
        assert g.arc_count == len(wanted)
        assert repr(g) == f"<Digraph n={n} arcs={len(wanted)}>"
        assert g.arcs_sorted == tuple(sorted(wanted))
        assert g.arcs == wanted and g.arcs is g.arcs
        assert g != Digraph(n + 1, arcs)
        dropped = rng.choice(arcs) if arcs else None
        fewer = [arc for arc in arcs if arc != dropped]
        missing = sorted({(u, v) for u in range(n) for v in range(n)} - wanted)
        added = [rng.choice(missing)] if missing else []
        # one arc fewer, one more, or one moved: never equal
        for other in (fewer, arcs + added, fewer + added):
            if set(other) != wanted:
                assert Digraph(n, other) != g
                assert Digraph(n, other).arcs == set(other)
        loops += g.has_loops
        empty_out_sets += any(not heads for heads in g._out)
    assert loops > 100 and empty_out_sets > 100


def test_rejects_empty_vertex_set():
    with pytest.raises(DomainError):
        Digraph(0, [])


def test_neighborhoods():
    g = Digraph(4, [(0, 1), (0, 2), (1, 2), (3, 3)])
    assert g.out_neighborhood(0) == frozenset({1, 2})
    assert g.in_neighborhood(2) == frozenset({0, 1})
    assert g.out_neighborhood(3) == frozenset({3})
    assert g.out_neighborhood_of_set({0, 1}) == frozenset({0, 1, 2})


def test_neighborhood_rejects_bad_vertex():
    g = Digraph(2, [(0, 1)])
    with pytest.raises(DomainError):
        g.out_neighborhood(2)
    with pytest.raises(DomainError):
        g.out_neighborhood_of_set({0, 5})
    for v in ("0", 1.0, True):
        with pytest.raises(DomainError, match=f"^vertex id must be an int, got {v!r}$"):
            g.out_neighborhood(v)


@pytest.mark.parametrize(
    ("bad", "message"),
    [
        (True, "vertex id must be an int, got True"),
        (1.5, "vertex id must be an int, got 1.5"),
        (-1, "vertex id -1 out of range for order 4"),
        (4, "vertex id 4 out of range for order 4"),
        ([2], "vertex id must be an int, got [2]"),
    ],
    ids=["bool", "float", "negative", "order", "unhashable"],
)
def test_vertex_sets_keep_their_verdicts_and_messages(bad, message):
    # Sets of plain ints in range pass one bulk test; every other input
    # gets the per-vertex check, so each container names the same offender.
    g = Digraph(4, [(0, 1)])
    containers = [list, tuple, lambda ids: (v for v in ids)]
    if not isinstance(bad, list):
        containers += [set, frozenset]
    for make in containers:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            digraph.check_vertex_set(g, make([0, bad, 3]))
    # an iterator is read as far as its first offender, and no further
    rest = iter([0, bad, 3])
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        digraph.check_vertex_set(g, rest)
    assert list(rest) == [3]


def test_vertex_sets_of_ints_in_range_pass_unchanged():
    g = Digraph(4, [(0, 1)])
    for ids, expected in [
        (set(), set()),
        ({3}, {3}),
        (frozenset({2, 0}), {0, 2}),
        (range(4), {0, 1, 2, 3}),
        (iter([3, 0, 3]), {0, 3}),
    ]:
        assert digraph.check_vertex_set(g, ids) == expected
    # an int subclass other than bool is admitted as itself, as by check_vertex
    checked = digraph.check_vertex_set(g, {Vertex.B, 0})
    assert checked == {0, 1} and {type(v) for v in checked} == {int, Vertex}


def test_degree_summary():
    g = Digraph(3, [(0, 1), (0, 2), (1, 2)])
    degrees = g.degrees()
    assert degrees.out_degrees == (2, 1, 0)
    assert degrees.in_degrees == (0, 1, 2)
    assert degrees.max_out == 2 and degrees.min_out == 0
    assert degrees.max_in == 2 and degrees.min_in == 0


def test_is_regular():
    loopy = Digraph(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    assert loopy.is_regular() == 2
    assert Digraph(3, [(0, 1), (1, 2), (2, 0)]).is_regular() == 1
    assert Digraph(3, [(0, 1), (0, 2), (1, 2)]).is_regular() is None


def test_has_loops_and_sorted_arcs():
    g = Digraph(3, [(2, 0), (0, 1), (1, 1)])
    assert g.has_loops
    assert g.arcs_sorted == ((0, 1), (1, 1), (2, 0))
    assert not Digraph(2, [(0, 1)]).has_loops


def test_name_not_part_of_equality():
    a = Digraph(2, [(0, 1)], name="a")
    b = Digraph(2, [(0, 1)], name="b")
    assert a == b and hash(a) == hash(b)


def test_equality_with_a_non_digraph_is_not_implemented():
    g = Digraph(2, [(0, 1)])
    assert g.__eq__((2, ((1,), ()))) is NotImplemented
    assert g != (2, ((1,), ())) and g != "B(2,3)"


def test_handed_over_and_constructed_digraphs_hash_equal():
    handed_over = iterated_line(complete_with_loops(2), 2).graph
    constructed = de_bruijn(2, 3)
    assert handed_over == constructed and hash(handed_over) == hash(constructed)
    assert handed_over._arcs is None and constructed._arcs is None


def test_weak_components_against_networkx():
    g = Digraph(7, [(0, 1), (1, 2), (3, 4), (5, 5)])
    expected = sorted(
        (sorted(block) for block in nx.weakly_connected_components(_nx_of(g))),
        key=min,
    )
    assert [sorted(block) for block in g.weak_components()] == expected
    assert not g.is_weakly_connected()
    assert Digraph(2, [(0, 1)]).is_weakly_connected()


# each caller of the shared non-empty check, and the noun its message names
NONEMPTY_CALLERS = {
    zf_closure: "starting set",
    pd_closure: "starting set",
    is_critical: "critical-set candidate",
    is_strongly_critical: "critical-set candidate",
    construct_pds_L: "the disjoint-out-neighborhood set",
}


@pytest.mark.parametrize("check", NONEMPTY_CALLERS, ids=lambda check: check.__name__)
def test_an_empty_vertex_set_is_refused_in_the_callers_words(check):
    g = complete_with_loops(3)  # out- and in-degree 3, as construct_pds_L needs
    message = f"^{NONEMPTY_CALLERS[check]} must be non-empty$"
    with pytest.raises(DomainError, match=message):
        check(g, iter(()))
    check(g, [0])  # one vertex is accepted
