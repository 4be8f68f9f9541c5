"""Zero forcing, power domination, and exact minimum rank on digraphs,
with the line-digraph operator and its classical families.

The public surface re-exports the main types and operations; see the
individual modules for the full API.
"""

from .digraph import DegreeSummary, Digraph
from .errors import DomainError, ResourceLimitError
from .families import (
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
from .iso import are_isomorphic
from .lines import LineLabeledDigraph, iterated_line, line_digraph
from .propagation import (
    PropagationTrace,
    is_power_dominating_set,
    is_zero_forcing_set,
    pd_closure,
    zf_closure,
)
from .critical import (
    in_twin_classes,
    is_critical,
    is_strongly_critical,
    twin_forcing_lower_bound,
)
from .constructions import (
    CycleFactorization,
    LineWitness,
    OneFactor,
    construct_pds_L,
    construct_pds_L2,
    construct_zfs_line,
    cycle_factorization,
    in_degree_one_cycles,
    one_factor,
)
from .linalg import (
    ExactMatrix,
    MinimumRankReport,
    RankReport,
    adjacency_matrix,
    adjacency_rank,
    mr_and_max_nullity_regular_line,
    rank_exact,
)
from .solvers import (
    FortCoverResult,
    MinimumSetResult,
    fort_cover_minimum,
    min_power_dominating,
    min_zero_forcing,
)

__version__ = "0.1.0"

__all__ = [
    "DegreeSummary",
    "Digraph",
    "DomainError",
    "ResourceLimitError",
    "complete_with_loops",
    "complete_without_loops",
    "conjunction",
    "cycle",
    "de_bruijn",
    "gen_de_bruijn",
    "gen_kautz",
    "kautz",
    "wrapped_butterfly",
    "are_isomorphic",
    "LineLabeledDigraph",
    "iterated_line",
    "line_digraph",
    "PropagationTrace",
    "is_power_dominating_set",
    "is_zero_forcing_set",
    "pd_closure",
    "zf_closure",
    "in_twin_classes",
    "is_critical",
    "is_strongly_critical",
    "twin_forcing_lower_bound",
    "CycleFactorization",
    "LineWitness",
    "OneFactor",
    "construct_pds_L",
    "construct_pds_L2",
    "construct_zfs_line",
    "cycle_factorization",
    "in_degree_one_cycles",
    "one_factor",
    "ExactMatrix",
    "MinimumRankReport",
    "RankReport",
    "adjacency_matrix",
    "adjacency_rank",
    "mr_and_max_nullity_regular_line",
    "rank_exact",
    "FortCoverResult",
    "MinimumSetResult",
    "fort_cover_minimum",
    "min_power_dominating",
    "min_zero_forcing",
    "__version__",
]
