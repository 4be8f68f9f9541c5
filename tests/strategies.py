"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from forcing_lab.digraph import Digraph


def random_digraphs(max_order: int) -> st.SearchStrategy[Digraph]:
    """Digraphs of order 1 to ``max_order``, loops allowed, every ordered
    pair an arc or not."""

    def build(n: int, picks: list[bool]) -> Digraph:
        pairs = [(u, v) for u in range(n) for v in range(n)]
        arcs = [pair for pair, keep in zip(pairs, picks) if keep]
        return Digraph(n, arcs)

    return st.integers(min_value=1, max_value=max_order).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.booleans(), min_size=n * n, max_size=n * n),
        )
    )


def digraph_with_set(
    max_order: int,
) -> st.SearchStrategy[tuple[Digraph, frozenset[int]]]:
    """A digraph of :func:`random_digraphs` with a non-empty vertex set."""
    return random_digraphs(max_order).flatmap(
        lambda g: st.tuples(
            st.just(g),
            st.sets(
                st.integers(min_value=0, max_value=g.n - 1), min_size=1
            ).map(frozenset),
        )
    )
