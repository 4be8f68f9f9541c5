from __future__ import annotations

import re
import time
from itertools import combinations, permutations, product
from math import comb
from random import Random

import pytest

from forcing_lab import corpus
from forcing_lab.corpus import (
    all_digraphs_up_to_iso,
    all_regular_digraphs,
    random_digraph,
    random_digraph_min_degrees,
    random_regular_digraph,
    regular_digraphs_up_to_iso,
)
from forcing_lab.digraph import MAX_ARCS, Digraph
from forcing_lab.errors import DomainError, ResourceLimitError
from forcing_lab.iso import are_isomorphic
from forcing_lab.linalg import adjacency_rank
from forcing_lab.lines import line_digraph
from forcing_lab.solvers import min_zero_forcing


def test_random_digraph_deterministic_per_seed():
    a = random_digraph(Random(5), 6)
    b = random_digraph(Random(5), 6)
    assert a == b


def test_random_digraph_respects_loop_flag():
    g = random_digraph(Random(9), 8, arc_probability=0.5, loop_probability=0.0)
    assert not g.has_loops


def _listed_random_digraph(rng, n, arc_probability, loop_probability):
    """The tosses of ``random_digraph``, listed before the digraph is built."""
    arcs = []
    for u in range(n):
        for v in range(n):
            p = loop_probability if u == v else arc_probability
            if rng.random() < p:
                arcs.append((u, v))
    return Digraph(n, arcs)


@pytest.mark.parametrize("loop_probability", [0.0, 0.15, 0.6])
def test_random_digraph_matches_a_listed_reference(loop_probability):
    for seed in range(40):
        n = 1 + seed % 9
        p = seed / 40
        a, b = Random(seed), Random(seed)
        g = random_digraph(a, n, arc_probability=p, loop_probability=loop_probability)
        assert g == _listed_random_digraph(b, n, p, loop_probability)
        assert a.getstate() == b.getstate()


def test_random_digraph_reads_one_arc_past_the_bound():
    # every toss an arc: the refusal comes after MAX_ARCS + 1 of them, long
    # before the 10**6 pairs of order 1000 are tossed
    rng, reference = Random(1), Random(1)
    with pytest.raises(ResourceLimitError, match="^arc count above the limit"):
        random_digraph(rng, 1000, arc_probability=1.0, loop_probability=1.0)
    for _ in range(MAX_ARCS + 1):
        reference.random()
    assert rng.getstate() == reference.getstate()


@pytest.mark.parametrize(
    ("n", "d", "message"),
    [
        (200000, 1, "^order 200000 is above the limit of 131072$"),
        (65537, 8, "^524296 arcs are above the limit of 524288$"),
    ],
)
def test_random_regular_digraph_refuses_before_its_first_draw(n, d, message):
    rng = Random(1)
    state = rng.getstate()
    with pytest.raises(ResourceLimitError, match=message):
        random_regular_digraph(rng, n, d)
    assert rng.getstate() == state


@pytest.mark.parametrize(
    ("build", "message"),
    [
        (
            lambda rng: random_regular_digraph(rng, 3, -1),
            "degree d must be an int >= 0, got -1",
        ),
        (
            lambda rng: random_regular_digraph(rng, 3, 1.5),
            "degree d must be an int >= 0, got 1.5",
        ),
        (
            lambda rng: random_regular_digraph(rng, True, 1),
            "order n must be an int >= 1, got True",
        ),
        (lambda rng: random_digraph(rng, 2.5), "order n must be an int >= 1, got 2.5"),
        (lambda rng: random_digraph(rng, 0), "order n must be an int >= 1, got 0"),
        (
            lambda rng: next(all_regular_digraphs(2.0, 1)),
            "order n must be an int >= 1, got 2.0",
        ),
        (
            lambda rng: next(all_regular_digraphs(-1, -2)),
            "order n must be an int >= 1, got -1",
        ),
        (
            lambda rng: next(all_regular_digraphs(3, -1)),
            "degree d must be an int >= 0, got -1",
        ),
        (
            lambda rng: random_digraph_min_degrees(rng, 3, min_out=-1),
            "min_out must be an int >= 0, got -1",
        ),
        (
            lambda rng: random_digraph_min_degrees(rng, 3, min_in=0.5),
            "min_in must be an int >= 0, got 0.5",
        ),
        (
            lambda rng: random_digraph_min_degrees(rng, 3, extra_arcs=-1),
            "extra_arcs must be an int >= 0, got -1",
        ),
        (
            lambda rng: random_digraph_min_degrees(rng, 3.0, min_out=1),
            "order n must be an int >= 1, got 3.0",
        ),
        (
            # the least class of (10, 1) passes the held-arc bound, but the
            # integer checks come first
            lambda rng: regular_digraphs_up_to_iso(10, True),
            "degree d must be an int >= 0, got True",
        ),
        (
            lambda rng: all_digraphs_up_to_iso(True),
            "order n must be an int >= 1, got True",
        ),
        (
            lambda rng: all_digraphs_up_to_iso(2.0),
            "order n must be an int >= 1, got 2.0",
        ),
        (
            lambda rng: all_digraphs_up_to_iso(0),
            "order n must be an int >= 1, got 0",
        ),
    ],
    ids=[
        "regular-negative-degree",
        "regular-float-degree",
        "regular-bool-order",
        "random-float-order",
        "random-zero-order",
        "all-regular-float-order",
        "all-regular-negative-order",
        "all-regular-negative-degree",
        "min-degrees-negative-min-out",
        "min-degrees-float-min-in",
        "min-degrees-negative-extra-arcs",
        "min-degrees-float-order",
        "regular-classes-bool-degree",
        "census-bool-order",
        "census-float-order",
        "census-zero-order",
    ],
)
def test_generators_refuse_bad_integers_before_any_draw(build, message):
    rng = Random(1)
    state = rng.getstate()
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        build(rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("name", ["arc_probability", "loop_probability"])
@pytest.mark.parametrize("value", ["0.5", None, True, float("nan"), -0.25, 1.5, 1j])
def test_random_digraph_refuses_bad_probabilities_before_any_toss(name, value):
    rng = Random(1)
    state = rng.getstate()
    message = f"^{name} must be a number in \\[0, 1\\], got {re.escape(repr(value))}$"
    with pytest.raises(DomainError, match=message):
        random_digraph(rng, 3, **{name: value})
    assert rng.getstate() == state


def test_random_digraph_takes_the_ends_of_the_unit_interval():
    g = random_digraph(Random(1), 3, arc_probability=1, loop_probability=0.0)
    assert g.arc_count == 6 and not g.has_loops


def test_min_degree_generator_refuses_too_few_arcs_to_connect():
    rng = Random(1)
    state = rng.getstate()
    message = (
        "^a weakly connected digraph on 40 vertices needs 39 arcs, but min_out, "
        "min_in and extra_arcs allow at most 5$"
    )
    with pytest.raises(DomainError, match=message):
        random_digraph_min_degrees(rng, 40, min_out=0, min_in=0, extra_arcs=5)
    assert rng.getstate() == state
    # exactly n - 1 arcs allowed: sampled
    g = random_digraph_min_degrees(rng, 2, min_out=0, min_in=0, extra_arcs=1)
    assert g.arc_count == 1 and g.is_weakly_connected()


def test_degree_zero_stays_legal():
    assert random_regular_digraph(Random(1), 3, 0) == Digraph(3)
    assert list(all_regular_digraphs(3, 0)) == [Digraph(3)]
    assert random_digraph_min_degrees(Random(1), 1, min_out=0, min_in=0) == Digraph(1)


def test_min_degree_generator_refuses_before_its_first_draw():
    rng = Random(1)
    state = rng.getstate()
    with pytest.raises(ResourceLimitError, match="^order 725 has 525625 candidate"):
        random_digraph_min_degrees(rng, 725)
    assert rng.getstate() == state
    # 724 * 724 = 524176 candidate arcs: inside the bound
    assert random_digraph_min_degrees(rng, 724).n == 724


def test_min_degree_generator_gives_up_after_its_attempts(monkeypatch):
    monkeypatch.setattr(corpus, "_MIN_DEGREE_ATTEMPTS", 1)
    # the first sample of this seed is not weakly connected
    with pytest.raises(DomainError, match="^could not sample .* in 1 tries$"):
        random_digraph_min_degrees(Random(0), 6, min_out=1, min_in=1)


def test_min_degree_generator_meets_degrees():
    rng = Random(77)
    for i in range(25):
        g = random_digraph_min_degrees(
            rng,
            4 + i % 3,
            min_out=2,
            min_in=1,
            extra_arcs=i % 2,
            allow_loops=(i % 4 == 0),
        )
        degrees = g.degrees()
        assert degrees.min_out >= 2
        assert degrees.min_in >= 1
        assert g.is_weakly_connected()
        if i % 4 != 0:
            assert not g.has_loops


def test_min_degree_generator_rejects_impossible_orders():
    with pytest.raises((DomainError, ResourceLimitError)):
        random_digraph_min_degrees(Random(1), 2, min_out=3, min_in=1)
    # in-degree 4 needs four tails: three vertices have only three
    with pytest.raises(DomainError, match="min_in"):
        random_digraph_min_degrees(Random(1), 3, min_out=1, min_in=4)
    with pytest.raises(DomainError, match="min_in"):
        random_digraph_min_degrees(
            Random(1), 3, min_out=1, min_in=3, allow_loops=False
        )
    g = random_digraph_min_degrees(Random(1), 3, min_out=1, min_in=3)
    assert g.degrees().min_in == 3


def test_random_regular_digraph():
    rng = Random(13)
    for n, d in [(4, 2), (5, 2), (5, 3), (6, 3)]:
        g = random_regular_digraph(rng, n, d)
        assert g.is_regular() == d


@pytest.mark.parametrize(
    ("n", "d"), [(n, n) for n in range(1, 9)] + [(10, 5), (20, 6), (4096, 8)]
)
def test_random_regular_digraph_builds_every_degree(n, d):
    start = time.perf_counter()
    g = random_regular_digraph(Random(n * d), n, d)
    assert time.perf_counter() - start < 2
    assert g.is_regular() == d
    assert random_regular_digraph(Random(n * d), n, d) == g


def test_random_regular_digraph_reaches_every_labelled_digraph():
    # the interchanges connect all 90 labelled 2-regular digraphs on 4 vertices
    reached = {random_regular_digraph(Random(seed), 4, 2) for seed in range(2000)}
    assert reached == set(all_regular_digraphs(4, 2))


def test_random_regular_digraph_rejects_degree_above_order():
    with pytest.raises(DomainError):
        random_regular_digraph(Random(1), 3, 4)


def test_exhaustive_regular_all_labelled():
    labelled = list(all_regular_digraphs(3, 2))
    assert all(g.is_regular() == 2 for g in labelled)
    # row patterns: each of 3 rows picks 2 of 3 columns with column sums 2
    assert len(labelled) == 6


@pytest.mark.parametrize(("n", "d"), [(3, 2), (4, 2), (4, 3), (5, 2)])
def test_exhaustive_regular_matches_row_product(n, d):
    # every choice of d heads per row, in lexicographic order of the rows,
    # kept when every column holds d of them
    expected = [
        tuple((u, v) for u, row in enumerate(rows) for v in row)
        for rows in product(combinations(range(n), d), repeat=n)
        if all(sum(v in row for row in rows) == d for v in range(n))
    ]
    assert [g.arcs_sorted for g in all_regular_digraphs(n, d)] == expected


def test_exhaustive_regular_with_degree_above_order_yields_nothing():
    assert list(all_regular_digraphs(3, 4)) == []


def test_exhaustive_regular_refuses_too_many_rows_before_listing_them():
    # C(21, 10) = 352716 rows are inside the bound, C(22, 11) = 705432 not
    assert comb(21, 10) <= MAX_ARCS < comb(22, 11)
    with pytest.raises(ResourceLimitError, match="^705432 candidate rows are above"):
        next(all_regular_digraphs(22, 11))


def test_exhaustive_regular_at_order_1200():
    first = next(all_regular_digraphs(1200, 1))
    assert first.arcs == frozenset((v, v) for v in range(1200))


def _pairwise_classes(n, d):
    """The reference: each weakly connected labelled digraph, in enumeration
    order, kept unless it is isomorphic to one kept before."""
    representatives = []
    for g in all_regular_digraphs(n, d):
        if g.is_weakly_connected() and all(
            are_isomorphic(g, h) is None for h in representatives
        ):
            representatives.append(g)
    return representatives


@pytest.mark.parametrize(
    ("n", "d"), [(n, d) for n in range(1, 6) for d in range(n + 1)]
)
def test_regular_classes_match_the_pairwise_reference(n, d):
    assert regular_digraphs_up_to_iso(n, d) == _pairwise_classes(n, d)


def test_regular_classes_frozen_counts():
    assert len(list(regular_digraphs_up_to_iso(2, 2))) == 1
    assert len(list(regular_digraphs_up_to_iso(3, 2))) == 3
    assert len(list(regular_digraphs_up_to_iso(4, 2))) == 7
    assert len(list(regular_digraphs_up_to_iso(3, 3))) == 1
    assert len(list(regular_digraphs_up_to_iso(4, 3))) == 5
    assert len(regular_digraphs_up_to_iso(5, 2)) == 24
    assert len(regular_digraphs_up_to_iso(5, 3)) == 27
    assert len(regular_digraphs_up_to_iso(6, 2)) == 117
    # 1-regular on 4 vertices: only C4 is weakly connected
    assert len(regular_digraphs_up_to_iso(4, 1)) == 1


def test_regular_classes_refuse_past_the_held_arcs(monkeypatch):
    # the 7 classes of (4, 2) hold all 87 weakly connected labelled
    # digraphs, 696 arcs
    monkeypatch.setattr(corpus, "_MAX_HELD_ARCS", 696)
    assert len(regular_digraphs_up_to_iso(4, 2)) == 7
    monkeypatch.setattr(corpus, "_MAX_HELD_ARCS", 695)
    message = (
        "^the classes of 2-regular digraphs on 4 vertices hold more than 695 arcs$"
    )
    with pytest.raises(ResourceLimitError, match=message):
        regular_digraphs_up_to_iso(4, 2)


def test_regular_classes_of_order_7_are_refused():
    # 3,110,940 labelled 2-regular digraphs on 7 vertices: the refusal comes
    # once 2**20 arcs of them are held
    start = time.perf_counter()
    message = "^the classes of 2-regular digraphs on 7 vertices hold more than"
    with pytest.raises(ResourceLimitError, match=message):
        regular_digraphs_up_to_iso(7, 2)
    assert time.perf_counter() - start < 20


def test_regular_classes_disconnected_variant():
    # 1-regular on 4 vertices: C4, C1+C3, C2+C2, C1+C1+C2, 4xC1 up to
    # isomorphism; only C4 is weakly connected, so it alone is kept
    everything: list = []
    for g in all_regular_digraphs(4, 1):
        if all(are_isomorphic(g, h) is None for h in everything):
            everything.append(g)
    assert len(everything) == 5
    assert sum(g.is_weakly_connected() for g in everything) == 1
    connected = regular_digraphs_up_to_iso(4, 1)
    assert len(connected) == 1
    assert connected[0].is_weakly_connected()
    assert not connected[0].has_loops


def test_regular_classes_pairwise_non_isomorphic():
    # corpus imports no iso (tests/test_package.py), so this checks iso's
    # refutations on classes that iso did not pick
    for n, d in [(4, 2), (4, 3), (5, 2), (5, 3)]:
        classes = regular_digraphs_up_to_iso(n, d)
        for a, b in combinations(classes, 2):
            assert are_isomorphic(a, b) is None


def _refuse_the_walk(*args):
    raise AssertionError("the walk started")


@pytest.mark.parametrize("n", [10, 1200])
def test_regular_classes_refuse_before_the_walk_when_one_class_passes(
    monkeypatch, n
):
    # a class of n-cycles holds (n - 1)! labelled digraphs of n arcs
    monkeypatch.setattr(corpus, "all_regular_digraphs", _refuse_the_walk)
    message = (
        f"^the classes of 1-regular digraphs on {n} vertices "
        "hold more than 1048576 arcs$"
    )
    with pytest.raises(ResourceLimitError, match=message):
        regular_digraphs_up_to_iso(n, 1)


def test_regular_classes_refuse_early_by_the_least_class(monkeypatch):
    # the 24 labelled 5-cycles hold 120 arcs, and 4! / 1^4 = 24 of them is
    # the least class the early refusal counts: at 120 the walk runs and
    # keeps the first 5-cycle, at 119 it is refused before the walk
    monkeypatch.setattr(corpus, "_MAX_HELD_ARCS", 120)
    cycle = Digraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert regular_digraphs_up_to_iso(5, 1) == [cycle]
    monkeypatch.setattr(corpus, "_MAX_HELD_ARCS", 119)
    monkeypatch.setattr(corpus, "all_regular_digraphs", _refuse_the_walk)
    message = "^the classes of 1-regular digraphs on 5 vertices hold more than 119"
    with pytest.raises(ResourceLimitError, match=message):
        regular_digraphs_up_to_iso(5, 1)


def _census_code(n, arcs):
    """The place of a digraph in the census order: its adjacency matrix
    read as one binary number, row 0 most significant, and in each row the
    column of vertex v worth 2^v."""
    return sum(1 << n * (n - 1 - u) + v for u, v in arcs)


def _census_walk(n):
    """Every digraph on ``n`` labelled vertices, in the census order."""
    cells = [(u, v) for u in range(n) for v in range(n)]
    for code in range(1 << n * n):
        yield Digraph(n, [a for a in cells if code & _census_code(n, [a])])


@pytest.fixture(scope="module")
def census():
    return {n: all_digraphs_up_to_iso(n) for n in range(1, 5)}


def test_census_frozen_counts(census):
    assert [len(census[n]) for n in range(1, 5)] == [2, 10, 104, 3044]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_census_matches_the_pairwise_reference(n):
    representatives = []
    for g in _census_walk(n):
        if all(are_isomorphic(g, h) is None for h in representatives):
            representatives.append(g)
    assert all_digraphs_up_to_iso(n) == representatives


def test_census_keeps_the_first_of_each_class_in_walk_order(census):
    # by every relabelling, not by the swap and the rotation: each
    # representative comes before the rest of its class in the walk, and
    # the classes it stands for hold all 2^(n*n) labelled digraphs
    for n in range(1, 5):
        members = 0
        for g in census[n]:
            codes = {
                _census_code(n, [(p[u], p[v]) for u, v in g.arcs_sorted])
                for p in permutations(range(n))
            }
            assert min(codes) == _census_code(n, g.arcs_sorted)
            members += len(codes)
        assert members == 1 << n * n


@pytest.mark.parametrize("n", [5, 6])
def test_census_refuses_from_5_vertices_before_the_walk(monkeypatch, n):
    # 2^25 digraphs of 5 vertices hold 25 * 2^24 arcs, far past 2^20
    monkeypatch.setattr(corpus, "_close_class", _refuse_the_walk)
    message = f"^the classes of digraphs on {n} vertices hold more than 1048576 arcs$"
    with pytest.raises(ResourceLimitError, match=message):
        all_digraphs_up_to_iso(n)


def test_census_refusal_counts_the_held_arcs(monkeypatch):
    # the 512 digraphs of 3 vertices hold 9 * 2^8 = 2304 arcs
    monkeypatch.setattr(corpus, "_MAX_HELD_ARCS", 2304)
    assert len(all_digraphs_up_to_iso(3)) == 104
    monkeypatch.setattr(corpus, "_MAX_HELD_ARCS", 2303)
    monkeypatch.setattr(corpus, "_close_class", _refuse_the_walk)
    with pytest.raises(ResourceLimitError, match="on 3 vertices hold more than 2303"):
        all_digraphs_up_to_iso(3)


def test_line_digraph_zero_forcing_and_rank_by_one_count_on_the_census(census):
    # Z(L(H)) = max(1, A - V11 + c) and rank A(L(H)) = V11, where V11
    # counts the vertices of H with an in-arc and an out-arc and c the
    # weak components that are one directed cycle (0 when H has a loop)
    checked = 0
    for n in range(1, 5):
        for h in census[n]:
            if h.arc_count == 0:
                continue
            line = line_digraph(h).graph
            both = sum(
                bool(h.out_neighborhood(v) and h.in_neighborhood(v)) for v in range(n)
            )
            cycles = 0
            if not h.has_loops:
                cycles = sum(
                    all(
                        len(h.out_neighborhood(v)) == len(h.in_neighborhood(v)) == 1
                        for v in component
                    )
                    for component in h.weak_components()
                )
            count = max(1, h.arc_count - both + cycles)
            assert min_zero_forcing(line).number == count, h
            assert adjacency_rank(line).rank == both, h
            checked += 1
    assert checked == 3156
