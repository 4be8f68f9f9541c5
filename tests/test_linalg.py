from __future__ import annotations

import tracemalloc
from itertools import permutations
from random import Random

import pytest
import sympy

from forcing_lab import linalg
from forcing_lab.corpus import (
    random_digraph,
    random_regular_digraph,
    regular_digraphs_up_to_iso,
)
from forcing_lab.digraph import MAX_ORDER, Digraph
from forcing_lab.errors import DomainError, ResourceLimitError
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
from forcing_lab.iso import are_isomorphic
from forcing_lab.linalg import (
    ExactMatrix,
    _bareiss_rank,
    adjacency_matrix,
    adjacency_rank,
    mr_and_max_nullity_regular_line,
    rank_exact,
)
from forcing_lab.lines import iterated_line, line_digraph
from forcing_lab.solvers import min_zero_forcing


def _sympy_rank(matrix: ExactMatrix) -> int:
    return sympy.Matrix(list(matrix.entries)).rank()


class _Int(int):
    pass


def test_matrix_validation():
    with pytest.raises(DomainError):
        ExactMatrix(((1, 2), (3,)))  # ragged
    with pytest.raises(DomainError):
        ExactMatrix(((1.5,),))  # non-integer
    with pytest.raises(DomainError):
        ExactMatrix(())  # empty
    with pytest.raises(DomainError, match="^matrix entry True is not an int$"):
        ExactMatrix(((True,),))  # bools are not matrix entries
    with pytest.raises(DomainError, match="^matrix entry None is not an int$"):
        ExactMatrix(((1, 2), (3, None), (1.5, 0)))  # first bad entry, row-major
    assert ExactMatrix(((1, _Int(2)),)).cols == 2  # int subclasses are ints
    m = ExactMatrix(((1, 2), (3, 4)))
    assert m.rows == 2 and m.cols == 2


@pytest.mark.parametrize(
    "entries",
    [
        ([1, 2], [3, 4]),  # list rows would crash the hashing in rank_exact
        [[1, 2], [3, 4]],
        [(1, 2), (3, 4)],  # tuple rows, but not a tuple of them
        (5, 6),  # a row of ints, not a matrix
    ],
    ids=["tuple-of-lists", "list-of-lists", "list-of-tuples", "one-bare-row"],
)
def test_matrix_refuses_rows_that_are_not_tuples(entries):
    with pytest.raises(DomainError, match="^matrix must be a tuple of row tuples$"):
        ExactMatrix(entries)


def _first_bad_entry(entries) -> object:
    """The first entry, row-major, that is a bool or not an int."""
    for row in entries:
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int):
                return x
    return None


def _reference_adjacency(g: Digraph) -> tuple[tuple[int, ...], ...]:
    arcs = g.arcs
    return tuple(tuple(int((u, v) in arcs) for v in range(g.n)) for u in range(g.n))


def test_adjacency_matrix_shares_one_row_per_out_tuple():
    """Seeded digraphs with and without loops, isolated vertices appended
    (zero rows): the entries match a per-cell reference, every distinct
    out-tuple has exactly one row object, and a matrix that repeats one
    bad row object names its first bad entry in row-major order."""
    rng = Random(2411)
    shared = zero_rows = 0
    for i in range(240):
        core = random_digraph(
            rng,
            rng.randrange(1, 10),
            arc_probability=rng.choice((0.1, 0.3, 0.6)),
            loop_probability=0.4 if i % 2 else 0.0,
        )
        g = Digraph(core.n + rng.randrange(3), core.arcs)
        m = adjacency_matrix(g)
        assert m.entries == _reference_adjacency(g)
        assert len(set(map(id, m.entries))) == len(set(g._out))
        shared += len(set(g._out)) < g.n
        zero_rows += () in g._out

        # one row object, made bad, in every place it held; a second bad
        # row, when there is one, competes for the first offender
        objects = list(dict.fromkeys(m.entries))
        bad_rows = {}
        for row in rng.sample(objects, min(2, len(objects))):
            cells = list(row)
            cells[rng.randrange(g.n)] = rng.choice((1.0, True, None, "1"))
            bad_rows[id(row)] = tuple(cells)
        entries = tuple(bad_rows.get(id(row), row) for row in m.entries)
        x = _first_bad_entry(entries)
        with pytest.raises(DomainError) as err:
            ExactMatrix(entries)
        assert str(err.value) == f"matrix entry {x!r} is not an int"
    assert shared > 60 and zero_rows > 60


def test_dense_matrix_bound_counts_distinct_rows_times_order(monkeypatch):
    g = Digraph(4, [(0, 1), (1, 1), (2, 0)])  # out-tuples (1,), (1,), (0,), ()
    monkeypatch.setattr(linalg, "_DENSE_MAX_CELLS", 12)
    assert adjacency_matrix(g).entries == _reference_adjacency(g)
    with pytest.raises(ResourceLimitError):
        adjacency_matrix(Digraph(4, [(0, 1), (1, 2), (2, 0)]))  # four rows


def test_dense_matrix_of_cycle_at_max_order_refused_at_once():
    g = cycle(MAX_ORDER)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            adjacency_matrix(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**25  # one dense row alone is 1 MiB, all of them 128 GiB


def test_shared_rows_keep_a_wide_matrix_cheap():
    g = Digraph(MAX_ORDER, [(u, 0) for u in range(MAX_ORDER)])
    m = adjacency_matrix(g)
    assert len(set(map(id, m.entries))) == 1
    assert rank_exact(m) == (1, MAX_ORDER - 1, "sandwich")


def test_adjacency_entries():
    g = Digraph(3, [(0, 1), (1, 1), (2, 0)])
    m = adjacency_matrix(g)
    assert m.entries == ((0, 1, 0), (0, 1, 0), (1, 0, 0))


def test_rank_of_identity_and_zero():
    eye = ExactMatrix(((1, 0), (0, 1)))
    zero = ExactMatrix(((0, 0), (0, 0)))
    assert rank_exact(eye).rank == 2
    r = rank_exact(zero)
    assert (r.rank, r.nullity) == (0, 2)
    assert r.method == "sandwich"


def test_rank_handles_negative_and_large_entries():
    m = ExactMatrix(
        ((10**12, -3, 7), (0, 5, -(10**9)), (10**12, 2, 7 - 10**9))
    )
    report = rank_exact(m)
    assert report.rank == _sympy_rank(m)
    assert report.rank + report.nullity == 3


def test_rank_matches_sympy_on_random_adjacencies():
    rng = Random(2203)
    for _ in range(25):
        g = random_digraph(rng, rng.randrange(2, 8), arc_probability=0.4)
        m = adjacency_matrix(g)
        report = rank_exact(m)
        assert report.rank == _bareiss_rank(m.entries) == _sympy_rank(m)
        assert report.rank + report.nullity == g.n


def test_rank_matches_sympy_on_random_integer_matrices():
    rng = Random(808)
    for _ in range(25):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 6)
        m = ExactMatrix(
            tuple(
                tuple(rng.randrange(-9, 10) for _ in range(cols))
                for _ in range(rows)
            )
        )
        assert rank_exact(m).rank == _bareiss_rank(m.entries) == _sympy_rank(m)


def test_frozen_family_ranks():
    for g, rank in [
        (de_bruijn(2, 3), 4),
        (wrapped_butterfly(2, 2), 4),
        (complete_without_loops(4), 4),
        (kautz(3, 3), 12),
    ]:
        m = adjacency_matrix(g)
        report = rank_exact(m)
        assert report.rank == _bareiss_rank(m.entries) == rank
        assert report.method == "sandwich"
        assert adjacency_rank(g) == report


def test_sandwich_decides_line_digraphs_of_random_regular_bases():
    rng = Random(4410)
    for i in range(12):
        d = 2 + i % 2
        g = random_regular_digraph(rng, d + 1 + i % 4, d)
        m = adjacency_matrix(line_digraph(g).graph)
        report = rank_exact(m)
        assert report.method == "sandwich"
        assert report.rank == g.n == _bareiss_rank(m.entries) == _sympy_rank(m)
        assert adjacency_rank(line_digraph(g).graph) == report


def test_bareiss_decides_when_the_bounds_differ():
    # GF(2) rank 1 below 2 distinct rows; rank 2 over the rationals
    plus_minus = ExactMatrix(((1, 1), (1, -1)))
    # every entry even: GF(2) rank 0 below 2 distinct rows
    twice_eye = ExactMatrix(((2, 0), (0, 2)))
    for m in (plus_minus, twice_eye):
        assert rank_exact(m) == (2, 0, "bareiss")
        assert _sympy_rank(m) == 2
    # GF(2) rank 1 and 3 distinct rows, both off the true rank 2
    between = ExactMatrix(((1, 1), (1, -1), (2, 0)))
    assert rank_exact(between) == (2, 0, "bareiss") and _sympy_rank(between) == 2


def test_rank_at_order_1024_by_sandwich():
    report = rank_exact(adjacency_matrix(de_bruijn(2, 10)))
    assert report == (512, 512, "sandwich")
    assert adjacency_rank(de_bruijn(2, 10)) == report


def test_report_de_bruijn_like_iterate():
    report = mr_and_max_nullity_regular_line(complete_with_loops(2), 2)
    assert (report.min_rank, report.max_nullity) == (4, 4)
    assert report.zero_forcing_number == 4
    assert report.order == 8 and report.rank_consistent


def test_report_kautz_like_iterate():
    report = mr_and_max_nullity_regular_line(complete_without_loops(4), 2)
    assert (report.min_rank, report.max_nullity) == (12, 24)
    assert report.order == 36 and report.rank_consistent


def test_report_wrapped_butterfly_base():
    base = conjunction(complete_with_loops(2), cycle(2))
    report = mr_and_max_nullity_regular_line(base, 1)
    assert (report.min_rank, report.max_nullity) == (4, 4)
    assert report.rank_consistent


def test_report_rejects_bad_inputs():
    with pytest.raises(DomainError):
        mr_and_max_nullity_regular_line(Digraph(3, [(0, 1), (1, 2)]), 1)
    with pytest.raises(DomainError):
        mr_and_max_nullity_regular_line(complete_with_loops(2), 0)
    with pytest.raises(DomainError):
        mr_and_max_nullity_regular_line(Digraph(3), 1)  # regular of degree 0


def test_report_degree_one_opt_in():
    report = mr_and_max_nullity_regular_line(cycle(5), 1)
    # one cycle: nonsingular adjacency, minimum rank n-1, nullity bound 1
    assert report.adjacency_nullity == 0
    assert (report.min_rank, report.max_nullity) == (4, 1)
    assert report.zero_forcing_number == 1
    assert report.rank_consistent


def _compositions(total: int, parts: int):
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _line_of_multidigraph(q: int, rows: tuple[tuple[int, ...], ...]) -> Digraph:
    arc_instances = [
        (u, v) for u in range(q) for v in range(q) for _ in range(rows[u][v])
    ]
    line_arcs = [
        (i, j)
        for i, (_, head) in enumerate(arc_instances)
        for j, (tail, _) in enumerate(arc_instances)
        if head == tail
    ]
    return Digraph(len(arc_instances), line_arcs)


def _is_line_of_some_multidigraph(g: Digraph, d: int) -> bool:
    """Exhaustively search d-regular multidigraph pre-images on n/d vertices."""
    if g.n % d:
        return False
    q = g.n // d
    row_choices = list(_compositions(d, q))

    def extend(rows: tuple[tuple[int, ...], ...], col_sums: tuple[int, ...]) -> bool:
        if len(rows) == q:
            if any(c != d for c in col_sums):
                return False
            return are_isomorphic(_line_of_multidigraph(q, rows), g) is not None
        for row in row_choices:
            new_cols = tuple(c + x for c, x in zip(col_sums, row))
            if any(c > d for c in new_cols):
                continue
            if extend(rows + (row,), new_cols):
                return True
        return False

    return extend((), (0,) * q)


_RANK_EQUALS_ORDER_OVER_DEGREE_COUNTEREXAMPLE = Digraph(
    4, [(0, 1), (0, 2), (1, 0), (1, 3), (2, 0), (2, 3), (3, 1), (3, 2)]
)


def test_rank_criterion_fails_for_simple_pre_images_only():
    """A 2-regular digraph with rank n/d that is the line digraph of a
    multidigraph (two vertices, both arcs doubled) but of no simple digraph."""
    g = _RANK_EQUALS_ORDER_OVER_DEGREE_COUNTEREXAMPLE
    assert g.is_regular() == 2
    assert rank_exact(adjacency_matrix(g)).rank == 2  # = 4 / 2
    # the only simple 2-regular digraph on 2 vertices is the complete one
    # with loops, and its line digraph is something else
    only_candidate = complete_with_loops(2)
    assert are_isomorphic(line_digraph(only_candidate).graph, g) is None
    assert _is_line_of_some_multidigraph(g, 2)


def test_rank_criterion_iff_with_multidigraph_pre_images():
    instances = list(regular_digraphs_up_to_iso(4, 2))
    rng = Random(99)
    seen: set[frozenset[tuple[int, int]]] = set()
    while len(seen) < 12:
        picks = [(u, v) for u in range(6) for v in range(6)]
        rng.shuffle(picks)
        arcs: list[tuple[int, int]] = []
        out = [0] * 6
        inn = [0] * 6
        for u, v in picks:
            if out[u] < 2 and inn[v] < 2:
                arcs.append((u, v))
                out[u] += 1
                inn[v] += 1
        if len(arcs) < 12 or frozenset(arcs) in seen:
            continue
        seen.add(frozenset(arcs))
        instances.append(Digraph(6, arcs))
    verdicts = []
    for g in instances:
        has_expected_rank = rank_exact(adjacency_matrix(g)).rank * 2 == g.n
        verdicts.append(has_expected_rank)
        assert has_expected_rank == _is_line_of_some_multidigraph(g, 2)
    # the corpus exercises both directions
    assert True in verdicts and False in verdicts


def test_rank_criterion_forward_on_known_line_digraphs():
    for base in [complete_with_loops(3), de_bruijn(2, 2), complete_without_loops(4)]:
        d = base.is_regular()
        lg = line_digraph(base).graph
        assert rank_exact(adjacency_matrix(lg)).rank * d == lg.n


def test_nullity_matches_brute_zero_forcing_spot_check():
    from forcing_lab.solvers import min_zero_forcing

    for g in regular_digraphs_up_to_iso(3, 2):
        lg = line_digraph(g).graph
        nullity = rank_exact(adjacency_matrix(lg)).nullity
        assert nullity == min_zero_forcing(lg).number


def test_out_neighborhood_identities_do_not_leak_into_rank():
    # two vertices with identical out-neighborhoods force rank below order
    g = Digraph(3, [(0, 1), (0, 2), (1, 1), (1, 2), (2, 0)])
    report = rank_exact(adjacency_matrix(g))
    assert report.rank == 2 and report.nullity == 1


def test_rectangular_rank():
    wide = ExactMatrix(((1, 2, 3), (2, 4, 6)))
    report = rank_exact(wide)
    assert report.rank == 1
    # nullity is the column count minus the rank
    assert report.nullity == 2


def test_degree_one_reports_match_brute_force():
    """Every labelled 1-regular digraph of order 1-5 (a permutation, so
    disjoint cycles, loops included) at depths 1 and 2: 306 instances."""
    instances = 0
    for n in range(1, 6):
        for image in permutations(range(n)):
            g = Digraph(n, list(enumerate(image)))
            for k in (1, 2):
                report = mr_and_max_nullity_regular_line(g, k)
                z = min_zero_forcing(iterated_line(g, k).graph).number
                assert report.zero_forcing_number == z
                assert report.adjacency_nullity <= report.max_nullity <= z
                assert report.rank_consistent and report.adjacency_nullity == 0
                instances += 1
    assert instances == 306
    # a loop plus a 2-cycle: every vertex may force, so one vertex suffices
    report = mr_and_max_nullity_regular_line(Digraph(3, [(0, 0), (1, 2), (2, 1)]), 1)
    assert (report.min_rank, report.max_nullity, report.zero_forcing_number) == (3, 0, 1)


def _has_disjoint_distinct_rows(g: Digraph) -> bool:
    rows = {g.out_neighborhood(v) for v in range(g.n)} - {frozenset()}
    return all(not (a & b) for a in rows for b in rows if a != b)


def test_adjacency_rank_matches_rank_exact_and_sympy_on_random_digraphs():
    rng = Random(6101)
    overlapping = 0
    methods = set()
    for i in range(300):
        g = random_digraph(
            rng,
            rng.randrange(1, 9),
            arc_probability=rng.choice((0.2, 0.4, 0.6)),
            loop_probability=0.4 if i % 2 else 0.0,
        )
        m = adjacency_matrix(g)
        report = adjacency_rank(g)
        assert report == rank_exact(m)
        assert report.rank == _sympy_rank(m)
        overlapping += not _has_disjoint_distinct_rows(g)
        methods.add(report.method)
    assert overlapping > 150 and methods == {"sandwich", "bareiss"}


def test_adjacency_rank_is_a_sandwich_on_every_line_digraph():
    rng = Random(2207)
    bases = [
        complete_with_loops(2),
        complete_without_loops(4),
        de_bruijn(2, 3),
        kautz(3, 2),
        gen_de_bruijn(2, 6),
        gen_kautz(2, 6),
        conjunction(complete_with_loops(2), cycle(2)),
    ]
    for d, orders in [(2, (2, 3, 4)), (3, (3, 4))]:
        for n in orders:
            bases.extend(regular_digraphs_up_to_iso(n, d))
    bases.extend(
        random_digraph(rng, rng.randrange(2, 8), arc_probability=0.4) for _ in range(60)
    )
    checked = 0
    for base in bases:
        lk = base
        for _ in range(2):
            if not 0 < lk.arc_count <= 72:
                break
            lk = line_digraph(lk).graph
            report = adjacency_rank(lk)
            assert report.method == "sandwich"
            assert report == rank_exact(adjacency_matrix(lk))
            checked += 1
    assert checked > 100


def test_adjacency_rank_needs_the_disjointness_test():
    # rows {0}, {1}, {0,1}: three distinct rows of rank 2, GF(2) rank 2 too
    g = Digraph(3, [(0, 0), (1, 1), (2, 0), (2, 1)])
    assert adjacency_rank(g) == (2, 1, "bareiss")
    assert _sympy_rank(adjacency_matrix(g)) == 2


def _triangle_copies(copies: int) -> Digraph:
    """Disjoint copies of the digraph with out-neighborhoods {0,1}, {1,2},
    {0,2}: determinant 2, so rank 3 over the rationals but 2 over GF(2)."""
    arcs = [
        (3 * c + u, 3 * c + v)
        for c in range(copies)
        for u, v in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
    ]
    return Digraph(3 * copies, arcs)


def test_bareiss_refused_above_the_order_limit(monkeypatch):
    one = _triangle_copies(1)
    assert adjacency_rank(one) == (3, 0, "bareiss") == rank_exact(adjacency_matrix(one))
    assert _sympy_rank(adjacency_matrix(one)) == 3
    big = _triangle_copies(342)  # order 1026
    m = adjacency_matrix(big)
    with pytest.raises(ResourceLimitError):
        rank_exact(m)

    def no_dense_matrix(g):
        raise AssertionError("dense matrix built before the limit check")

    monkeypatch.setattr(linalg, "adjacency_matrix", no_dense_matrix)
    with pytest.raises(ResourceLimitError):
        adjacency_rank(big)


def test_gf2_budget_decides_gb_3_16384():
    # GB(3, n) rows overlap, so only the GF(2) bound can meet the row count
    report = adjacency_rank(gen_de_bruijn(3, 16384))
    assert report == (16384, 0, "sandwich")


def test_gf2_budget_falls_through_to_bareiss(monkeypatch):
    g = gen_de_bruijn(3, 64)
    assert adjacency_rank(g) == (64, 0, "sandwich")
    monkeypatch.setattr(linalg, "_GF2_MAX_BITS", 64)
    assert adjacency_rank(g) == (64, 0, "bareiss")
    assert rank_exact(adjacency_matrix(g)) == (64, 0, "bareiss")
    assert _sympy_rank(adjacency_matrix(g)) == 64
