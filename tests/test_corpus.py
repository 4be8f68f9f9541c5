from __future__ import annotations

import re
import time
from itertools import combinations, product
from math import comb
from random import Random

import pytest

from forcing_lab import corpus
from forcing_lab.corpus import (
    all_regular_digraphs,
    random_digraph,
    random_digraph_min_degrees,
    random_regular_digraph,
    regular_digraphs_up_to_iso,
)
from forcing_lab.digraph import MAX_ARCS, Digraph
from forcing_lab.errors import DomainError, ResourceLimitError
from forcing_lab.iso import are_isomorphic


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


def test_regular_classes_frozen_counts():
    assert len(list(regular_digraphs_up_to_iso(2, 2))) == 1
    assert len(list(regular_digraphs_up_to_iso(3, 2))) == 3
    assert len(list(regular_digraphs_up_to_iso(4, 2))) == 7
    assert len(list(regular_digraphs_up_to_iso(3, 3))) == 1
    assert len(list(regular_digraphs_up_to_iso(4, 3))) == 5
    # 1-regular on 4 vertices: only C4 is weakly connected
    assert len(regular_digraphs_up_to_iso(4, 1)) == 1


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
    classes = list(regular_digraphs_up_to_iso(4, 2))
    for a, b in combinations(classes, 2):
        assert are_isomorphic(a, b) is None
