"""Exact integer matrix rank and the minimum-rank consequences of line
digraph structure.

``rank_exact`` first tries a certified sandwich.  The number of distinct
nonzero rows is an upper bound on the rank, since a repeated row adds
nothing to the row space.  The rank over GF(2) of the rows taken mod 2 is
a lower bound, since a minor that is odd is a nonzero integer.  When the
two bounds meet, they are the rank over the rationals.  They always meet
on the adjacency matrix of a line digraph ``L(G)`` whose base has every
in- and out-degree at least 1: ``A(L(G)) = H T^T`` with ``H`` and ``T``
the 0/1 head and tail incidence matrices of ``G``, so the distinct rows
of ``A(L(G))`` are the out-arc indicators of the vertices of ``G``.  Their
supports are disjoint, so there are ``|V(G)|`` of them, independent over
GF(2) as well as over the rationals.

When the bounds differ, rank is computed by Bareiss fraction-free
elimination over Python's arbitrary-precision integers: every division
performed is exact, so there is no floating point anywhere.  Bareiss is
the general path and the oracle the sandwich is tested against.  The
report says which of the two decided the rank.

For a ``d``-regular line digraph, the adjacency matrix has rank equal to
the order divided by ``d``.  Together with the general sandwich
``nullity(A) <= maximum nullity <= zero forcing number`` this pins the
minimum rank and maximum nullity of ``d``-regular iterated line digraphs
(``d >= 2``) exactly; for ``d = 1`` (directed cycles) the adjacency bound
is not tight and the known cycle values are reported instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Iterable, NamedTuple, Sequence

from .digraph import Digraph
from .errors import DomainError
from .lines import iterated_line


@dataclass(frozen=True)
class ExactMatrix:
    """An immutable integer matrix."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise DomainError("matrix must have at least one row and column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise DomainError("matrix rows must all have the same length")
            for x in row:
                if isinstance(x, bool) or not isinstance(x, int):
                    raise DomainError(f"matrix entry {x!r} is not an int")

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "ExactMatrix":
        return cls(tuple(tuple(row) for row in rows))

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
    """0/1 adjacency matrix with entry ``[u][v] = 1`` when ``u -> v``."""
    rows = []
    for u in range(g.n):
        out = g.out_neighborhood(u)
        rows.append(tuple(1 if v in out else 0 for v in range(g.n)))
    return ExactMatrix(tuple(rows))


def _gf2_rank(rows: Iterable[tuple[int, ...]]) -> int:
    """Rank over GF(2) of the rows taken mod 2, by an XOR basis keyed by
    leading bit (``e & 1`` is the parity of negative entries too)."""
    basis: dict[int, int] = {}
    for row in rows:
        mask = 0
        for j, e in enumerate(row):
            if e & 1:
                mask |= 1 << j
        while mask:
            lead = mask.bit_length() - 1
            pivot = basis.get(lead)
            if pivot is None:
                basis[lead] = mask
                break
            mask ^= pivot
    return len(basis)


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
    distinct = set(m.entries)
    distinct.discard((0,) * m.cols)
    upper = len(distinct)
    lower = _gf2_rank(distinct)
    if lower == upper:
        return RankReport(rank=upper, nullity=m.cols - upper, method="sandwich")
    rank = _bareiss_rank(m.entries)
    return RankReport(rank=rank, nullity=m.cols - rank, method="bareiss")


@dataclass(frozen=True)
class MinimumRankReport:
    """Minimum rank and maximum nullity of ``L^k`` of a regular digraph.

    ``zero_forcing_number`` is the matching closed-form count; for degree
    at least 2 it coincides with ``max_nullity`` because the adjacency
    nullity meets the zero forcing upper bound.  ``rank_consistent``
    records that the exact adjacency rank agreed with the predicted value,
    and ``rank_method`` names how ``rank_exact`` decided that rank.
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

    def to_json_dict(self) -> dict[str, object]:
        return asdict(self)


def mr_and_max_nullity_regular_line(
    g: Digraph, k: int, *, allow_degree_one: bool = False
) -> MinimumRankReport:
    """Exact minimum rank data for ``L^k(g)`` with ``g`` regular of degree
    at least 2 and ``k >= 1``.

    For common degree ``d >= 2`` the minimum rank is ``order / d``: the
    adjacency matrix attains that rank and zero forcing caps the nullity.
    Degree 1 is rejected because the adjacency bound is not tight there;
    with ``allow_degree_one`` the known cycle values are reported instead
    (per cycle: minimum rank is the length minus one, maximum nullity 1).
    """
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise DomainError(f"depth must be an int >= 1, got {k!r}")
    d = g.is_regular()
    if d is None:
        raise DomainError("digraph is not regular")
    if d == 0:
        raise DomainError("regular of degree 0 has no line digraph")
    if d == 1 and not allow_degree_one:
        raise DomainError(
            "degree-1 digraphs are disjoint cycles; their values are known "
            "exactly but not via the adjacency bound (pass allow_degree_one)"
        )
    line = iterated_line(g, k).graph
    report = rank_exact(adjacency_matrix(line))
    if d == 1:
        max_nullity = len(line.strong_components().components)
        min_rank, expected_rank = line.n - max_nullity, line.n
    else:
        min_rank = expected_rank = line.n // d
        max_nullity = line.n - min_rank
    return MinimumRankReport(
        degree=d,
        depth=k,
        order=line.n,
        adjacency_rank=report.rank,
        adjacency_nullity=report.nullity,
        rank_method=report.method,
        min_rank=min_rank,
        max_nullity=max_nullity,
        zero_forcing_number=max_nullity,
        rank_consistent=report.rank == expected_rank,
    )
