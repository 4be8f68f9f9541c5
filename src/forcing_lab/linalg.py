"""Exact matrix rank and the minimum-rank consequences of line digraph
structure.

Rank comes first from a certified sandwich.  The number of distinct
nonzero rows bounds it from above, since a repeated row adds nothing to
the row space.  Rows with pairwise disjoint supports are independent over
every field (each has a column no other row touches), and the GF(2) rank
of the rows taken mod 2 is a lower bound too (a minor that is odd is a
nonzero integer).  The GF(2) elimination has a work budget,
``_GF2_MAX_BITS``; once it is spent the bound counts as not met.  When a
lower bound meets the upper one, that is the rank over the rationals.
``adjacency_rank`` reads the rows of a digraph's adjacency matrix from
its out-neighborhoods and tries disjointness first: the distinct rows
are disjoint exactly when their sizes sum to the size of their union.
Every line digraph passes, because the row of vertex ``(u, v)`` of
``L(G)`` is the set of arcs out of ``v``, so two rows are equal or
disjoint.  ``rank_exact`` takes any integer matrix and tries GF(2) only.

When the bounds differ, Bareiss fraction-free elimination decides, over
Python's arbitrary-precision integers with exact divisions only.  It is
the general path, the oracle the sandwich is tested against, and the only
one that needs a dense matrix.  Above order ``_BAREISS_MAX_ORDER`` it is
refused with :class:`ResourceLimitError` before one is built (it took
22 s at order 1024).  Every report names the method that decided it.

``adjacency_matrix`` builds one row tuple per distinct out-tuple and
hands it to every vertex with that out-tuple, so a line digraph's matrix
holds only ``n / d`` distinct rows (a row is an out-neighborhood, so the
out-twins share one: in ``L(G)``, the arcs with the same head).  It is
refused with :class:`ResourceLimitError` before any row is built when
the distinct rows times the order pass ``_DENSE_MAX_CELLS``.
``ExactMatrix`` checks the length and the entry types of each row object
once, in order of first use, so it names the first bad entry in
row-major order, and ``rank_exact`` hashes each row object once: the
work of both follows the distinct rows.

For a ``d``-regular line digraph the adjacency rank is the order divided
by ``d``.  With ``nullity(A) <= maximum nullity <= zero forcing number``
this pins the minimum rank and maximum nullity of ``d``-regular iterated
line digraphs for ``d >= 2``; ``mr_and_max_nullity_regular_line`` gives
the values for ``d = 1`` (disjoint cycles).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable, NamedTuple

from .digraph import Digraph, check_int
from .errors import DomainError, ResourceLimitError
from .lines import iterated_line

_BAREISS_MAX_ORDER = 1024
# Cells of a dense adjacency matrix's distinct rows, their number times
# the order: 16 MiB of row pointers, twice the 1026 x 1026 of the largest
# matrix the tests build.  Measured on 2 cores, one process, matrix
# build only: 1026 distinct rows of order 1026 take 0.05 s (+7.6 MiB),
# 1448 of order 1448 (2,096,704 cells) 0.11 s (+16 MiB), and the 1024
# rows of B(2, 11), order 2048, 0.08 s (+16 MiB).
_DENSE_MAX_CELLS = 2**21
# Work budget of the GF(2) lower bound, in bits: every mask kept in the
# basis plus every mask XORed into a row.  It is 200 MiB of bits, the
# memory of building an iterate of order ``MAX_ORDER``.  Measured on 2
# cores, one process each, rank step only: GB(3, 16384) is decided in
# 0.08 s (+12 MiB) and GB(3, 32768) in 0.24 s (+59 MiB); GB(3, 65536)
# stops at the budget after 0.43 s (+193 MiB; deciding it took 0.72 s
# and +255 MiB); a union of three random permutations of order 32768,
# whose GF(2) rank falls short, stops after 0.27 s instead of 7.2 s.
_GF2_MAX_BITS = 200 * 2**23


@dataclass(frozen=True)
class ExactMatrix:
    """An immutable integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        entries = self.entries
        if not isinstance(entries, tuple) or not all(
            isinstance(row, tuple) for row in entries
        ):
            raise DomainError("matrix must be a tuple of row tuples")
        if not entries or not entries[0]:
            raise DomainError("matrix must have at least one row and column")
        width = len(entries[0])
        # each row object once, in order of first use: row-major for the first offender
        for row in {id(row): row for row in entries}.values():
            if len(row) != width:
                raise DomainError("matrix rows must all have the same length")
            for x in row if set(map(type, row)) != {int} else ():  # only non-int rows
                if isinstance(x, bool) or not isinstance(x, int):
                    raise DomainError(f"matrix entry {x!r} is not an int")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])


class RankReport(NamedTuple):
    rank: int
    nullity: int
    method: str  # "sandwich" when the bounds met, else "bareiss"


def adjacency_matrix(g: Digraph) -> ExactMatrix:
    """0/1 adjacency matrix with entry ``[u][v] = 1`` when ``u -> v``.

    Vertices with equal out-tuples share one row object; refused above
    ``_DENSE_MAX_CELLS`` distinct-row cells before any row is built."""
    shared = dict.fromkeys(g._out)
    if len(shared) * g.n > _DENSE_MAX_CELLS:
        raise ResourceLimitError(
            f"dense adjacency matrix of {len(shared)} distinct rows of "
            f"{g.n} entries is above the limit of {_DENSE_MAX_CELLS} cells"
        )
    zero = [0] * g.n
    for heads in shared:
        row = zero.copy()
        for v in heads:
            row[v] = 1
        shared[heads] = tuple(row)
    return ExactMatrix(tuple(map(shared.__getitem__, g._out)))


def _gf2_rank(rows: Iterable[Iterable[int]]) -> int | None:
    """Rank over GF(2) of rows each given as the set of its odd columns,
    by an XOR basis keyed by leading bit; None once the masks held plus
    the masks XORed pass ``_GF2_MAX_BITS`` bits."""
    basis: dict[int, int] = {}
    work = 0
    for row in rows:
        mask = 0
        for j in row:
            mask |= 1 << j
        while mask:
            lead = mask.bit_length() - 1
            work += lead + 1  # the bits this mask is held or XORed with
            if work > _GF2_MAX_BITS:
                return None
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = mask
                break
            mask ^= pivot
    return len(basis)


def _by_bareiss(order: int, matrix: Callable[[], ExactMatrix]) -> RankReport:
    """Bareiss on ``matrix()``, refused above the limit before it is built."""
    if order > _BAREISS_MAX_ORDER:
        raise ResourceLimitError(
            f"rank needs Bareiss elimination at order {order}, above the "
            f"limit of {_BAREISS_MAX_ORDER}"
        )
    m = matrix()
    rank = _bareiss_rank(m.entries)
    return RankReport(rank=rank, nullity=m.cols - rank, method="bareiss")


def _bareiss_rank(entries: tuple[tuple[int, ...], ...]) -> int:
    """Rank over the rationals by Bareiss fraction-free elimination."""
    a = [list(row) for row in entries]
    rows, cols = len(entries), len(entries[0])
    rank = 0
    prev_pivot = 1
    for col in range(cols):
        pivot_row = next(
            (i for i in range(rank, rows) if a[i][col] != 0), None
        )
        if pivot_row is None:
            continue
        a[rank], a[pivot_row] = a[pivot_row], a[rank]
        pivot = a[rank][col]
        for i in range(rank + 1, rows):
            factor = a[i][col]
            row_i = a[i]
            row_r = a[rank]
            for j in range(col + 1, cols):
                # Bareiss one-step rule: exact division by the prior pivot.
                row_i[j] = (pivot * row_i[j] - factor * row_r[j]) // prev_pivot
            row_i[col] = 0
        prev_pivot = pivot
        rank += 1
        if rank == rows:
            break
    return rank


def rank_exact(m: ExactMatrix) -> RankReport:
    """Exact rank and nullity (columns minus rank) over the rationals,
    with the method that decided the rank."""
    # a shared row is hashed once, so the cost follows the distinct rows
    distinct = set({id(row): row for row in m.entries}.values())
    distinct.discard((0,) * m.cols)
    upper = len(distinct)
    cols = tuple(range(m.cols))
    # odd entries are among the nonzero ones, which ``compress`` finds
    # without a Python step; ``& 1`` is the parity of negative entries too
    odd = ([j for j in compress(cols, row) if row[j] & 1] for row in distinct)
    if _gf2_rank(odd) == upper:
        return RankReport(rank=upper, nullity=m.cols - upper, method="sandwich")
    return _by_bareiss(max(m.rows, m.cols), lambda: m)


def adjacency_rank(g: Digraph) -> RankReport:
    """``rank_exact(adjacency_matrix(g))``, with the sandwich read from the
    out-neighborhoods of ``g``; only Bareiss builds the matrix."""
    rows = set(g._out)
    rows.discard(())
    upper = len(rows)
    disjoint = sum(map(len, rows)) == len(set().union(*rows))
    if disjoint or _gf2_rank(rows) == upper:
        return RankReport(rank=upper, nullity=g.n - upper, method="sandwich")
    return _by_bareiss(g.n, lambda: adjacency_matrix(g))


@dataclass(frozen=True)
class MinimumRankReport:
    """Minimum rank and maximum nullity of ``L^k`` of a regular digraph.

    ``zero_forcing_number`` is the matching closed-form count; it equals
    ``max_nullity`` except at degree 1 with a loop.  ``rank_consistent``
    records that the exact adjacency rank agreed with the predicted value,
    and ``rank_method`` names how ``adjacency_rank`` decided that rank.
    """

    degree: int
    depth: int
    order: int
    adjacency_rank: int
    adjacency_nullity: int
    rank_method: str
    min_rank: int
    max_nullity: int
    zero_forcing_number: int
    rank_consistent: bool


def mr_and_max_nullity_regular_line(g: Digraph, k: int) -> MinimumRankReport:
    """Exact minimum rank data for ``L^k(g)`` with ``g`` regular, ``k >= 1``.

    For common degree ``d >= 2`` the minimum rank is ``order / d``: the
    adjacency matrix attains that rank and zero forcing caps the nullity.

    For ``d = 1``, ``L^k(g)`` is disjoint cycles and its adjacency is a
    permutation matrix.  Without loops the diagonal is free: a cycle of
    length ``l`` has pattern matrices of rank ``l - 1`` and none lower (its
    arcs give a nonzero minor of that size), and one colored vertex forces
    it, so maximum nullity and zero forcing number both count the cycles,
    which are the weak components.
    With a loop anywhere, the diagonal is nonzero exactly at the loops, so
    every pattern matrix is a scaled permutation (minimum rank the order,
    maximum nullity 0), and every vertex may force its one out-neighbor,
    so any single vertex is a zero forcing set.
    """
    check_int(k, "depth", 1)
    d = g.is_regular()
    if d is None:
        raise DomainError("digraph is not regular")
    line = iterated_line(g, k).graph
    report = adjacency_rank(line)
    if d > 1:
        min_rank = expected_rank = line.n // d
        max_nullity = zero_forcing = line.n - min_rank
    elif line.has_loops:
        min_rank = expected_rank = line.n
        max_nullity, zero_forcing = 0, 1
    else:
        max_nullity = zero_forcing = len(line.weak_components())
        min_rank, expected_rank = line.n - max_nullity, line.n
    return MinimumRankReport(
        degree=d,
        depth=k,
        order=line.n,
        adjacency_rank=report.rank,
        adjacency_nullity=report.nullity,
        rank_method=report.method,
        min_rank=min_rank,
        max_nullity=max_nullity,
        zero_forcing_number=zero_forcing,
        rank_consistent=report.rank == expected_rank,
    )
