from __future__ import annotations

import itertools
import warnings

import pytest

from forcing_lab.digraph import Digraph
from forcing_lab.errors import DomainError
from forcing_lab.families import (
    complete_with_loops,
    complete_without_loops,
    conjunction,
    cycle,
    de_bruijn,
    gen_de_bruijn,
    gen_kautz,
    kautz,
    wrapped_butterfly,
)


def test_de_bruijn_counts_and_regularity():
    for d, big_d in [(2, 2), (2, 3), (3, 2)]:
        g = de_bruijn(d, big_d)
        assert g.n == d**big_d
        assert g.arc_count == d ** (big_d + 1)
        assert g.is_regular() == d


def test_de_bruijn_22_exact_arcs():
    g = de_bruijn(2, 2)
    assert g.arcs_sorted == (
        (0, 0),
        (0, 1),
        (1, 2),
        (1, 3),
        (2, 0),
        (2, 1),
        (3, 2),
        (3, 3),
    )
    assert g.name == "B(2,2)"


def test_de_bruijn_rejects_degree_below_two():
    with pytest.raises(DomainError):
        de_bruijn(1, 3)
    with pytest.raises(DomainError):
        de_bruijn(2, 0)


def test_kautz_counts():
    g = kautz(3, 2)
    assert g.n == 3 * 4  # d^(D-1) * (d+1)
    assert g.arc_count == 36
    assert g.is_regular() == 3
    assert not g.has_loops


def test_kautz_degree_two_warns():
    with pytest.warns(UserWarning) as caught:
        g = kautz(2, 2)
    assert g.n == 6 and g.is_regular() == 2
    # the warning is charged to the caller's line, not to the library
    assert [warning.filename for warning in caught] == [__file__]


def test_gen_de_bruijn_matches_de_bruijn_at_power_order():
    assert gen_de_bruijn(2, 4) == de_bruijn(2, 2)


def test_gen_de_bruijn_non_power_order():
    # d consecutive residues are distinct mod n when n >= d; when n < d the
    # heads collapse onto all n residues
    for d in (2, 3, 4, 7):
        for n in range(1, 12):
            for g in (gen_de_bruijn(d, n), gen_kautz(d, n)):
                assert g.n == n
                assert set(g.degrees().out_degrees) == {min(d, n)}


def test_gen_kautz_small_is_complete():
    assert gen_kautz(2, 3) == complete_without_loops(3)


def _eager_kautz(d: int, big_d: int) -> Digraph:
    words = [
        w
        for w in itertools.product(range(d + 1), repeat=big_d)
        if all(a != b for a, b in zip(w, w[1:]))
    ]
    index = {w: i for i, w in enumerate(words)}
    arcs = [
        (index[w], index[w[1:] + (y,)])
        for w in words
        for y in range(d + 1)
        if y != w[-1]
    ]
    return Digraph(len(words), arcs, name=f"K({d},{big_d})")


def _eager_wrapped_butterfly(d: int, n: int) -> Digraph:
    words = list(itertools.product(range(d), repeat=n))
    pairs = list(itertools.product(words, range(n)))
    index = {pair: i for i, pair in enumerate(pairs)}
    arcs = [
        (index[(w, l)], index[(w[:l] + (a,) + w[l + 1 :], (l + 1) % n)])
        for w, l in pairs
        for a in range(d)
    ]
    return Digraph(len(index), arcs, name=f"WB({d},{n})")


def _eager_gen_de_bruijn(d: int, n: int) -> Digraph:
    arcs = {(x, (d * x + t) % n) for x in range(n) for t in range(d)}
    return Digraph(n, arcs, name=f"GB({d},{n})")


def _eager_gen_kautz(d: int, n: int) -> Digraph:
    arcs = {(x, (-d * x - t) % n) for x in range(n) for t in range(1, d + 1)}
    return Digraph(n, arcs, name=f"GK({d},{n})")


@pytest.mark.parametrize("d", [2, 3, 4])
@pytest.mark.parametrize(
    "family, reference, seconds",
    [
        (kautz, _eager_kautz, range(1, 5)),
        (wrapped_butterfly, _eager_wrapped_butterfly, range(2, 5)),
        (gen_de_bruijn, _eager_gen_de_bruijn, range(1, 10)),
        (gen_kautz, _eager_gen_kautz, range(1, 10)),
    ],
    ids=["kautz", "wrapped-butterfly", "gen-de-bruijn", "gen-kautz"],
)
def test_streamed_generators_match_their_word_and_set_definitions(
    family, reference, seconds, d
):
    # the word tables, index dicts and dedupe sets the streams replace
    for second in seconds:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = family(d, second)
        want = reference(d, second)
        assert got == want and got.name == want.name


def test_wrapped_butterfly_counts():
    g = wrapped_butterfly(2, 2)
    assert g.n == 2 * 2**2
    assert g.is_regular() == 2
    h = wrapped_butterfly(2, 3)
    assert h.n == 3 * 2**3
    assert h.is_regular() == 2


def test_wrapped_butterfly_moves_levels():
    # vertex 0 is (word 00, level 0); rewriting letter 0 keeps or sets
    # the first letter and moves to level 1
    g = wrapped_butterfly(2, 2)
    assert g.out_neighborhood(0) == frozenset({1, 5})


def test_wrapped_butterfly_is_iterated_line_of_conjunction():
    from forcing_lab.iso import are_isomorphic
    from forcing_lab.lines import iterated_line

    base = conjunction(complete_with_loops(2), cycle(3))
    square = iterated_line(base, 2).graph
    assert are_isomorphic(wrapped_butterfly(2, 3), square) is not None


def test_complete_families_and_cycle():
    assert complete_with_loops(2).arcs_sorted == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert complete_without_loops(3).arc_count == 6
    assert complete_without_loops(1).arc_count == 0
    assert cycle(4).arcs_sorted == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert cycle(1).arcs_sorted == ((0, 0),)


def test_conjunction_frozen_example():
    g = conjunction(complete_with_loops(2), cycle(2))
    assert g.arcs_sorted == (
        (0, 1),
        (0, 3),
        (1, 0),
        (1, 2),
        (2, 1),
        (2, 3),
        (3, 0),
        (3, 2),
    )
    assert g.n == 4


def test_conjunction_degrees_multiply():
    g = Digraph(2, [(0, 1), (1, 0), (1, 1)])
    h = Digraph(3, [(0, 1), (0, 2), (2, 0)])
    prod = conjunction(g, h)
    g_out = g.degrees().out_degrees
    h_out = h.degrees().out_degrees
    for a in range(g.n):
        for b in range(h.n):
            v = a * h.n + b
            assert len(prod.out_neighborhood(v)) == g_out[a] * h_out[b]

