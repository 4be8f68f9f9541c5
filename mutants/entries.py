"""The committed mutants.

Each entry names one file under ``src/``, an exact snippet of it, the
snippet's replacement and one or more pytest selectors, separated by
spaces.  The snippet must occur exactly once in the file, and the
selectors must fail once it is replaced.
A change that rewrites a mutated line re-points its entry here.
"""

from __future__ import annotations

from typing import NamedTuple


class Mutant(NamedTuple):
    name: str
    file: str  # a path under src/
    snippet: str
    replacement: str
    test: str  # pytest selectors, space-separated, run from the repository root


LINES = "forcing_lab/lines.py"
DIGRAPH = "forcing_lab/digraph.py"
PROPAGATION = "forcing_lab/propagation.py"
CONSTRUCTIONS = "forcing_lab/constructions.py"
CRITICAL = "forcing_lab/critical.py"
FAMILIES = "forcing_lab/families.py"
IO = "forcing_lab/io.py"
CLI = "forcing_lab/cli.py"
ISO = "forcing_lab/iso.py"
LINALG = "forcing_lab/linalg.py"
SOLVERS = "forcing_lab/solvers.py"
VERIFY = "forcing_lab/verify.py"

WALK_DICT = "tests/test_lines.py::test_iterated_line_matches_the_walk_dict_reference"
ARC_VIEWS = "tests/test_digraph.py::test_arc_views_agree_with_a_plain_set"
FIRST_OFFENDER = "tests/test_digraph.py::test_constructor_keeps_the_first_offender_rule"
NAIVE_CLOSURE = "tests/test_propagation.py::test_closure_matches_naive_oracle"
NAIVE_REFINE = "tests/test_iso.py::test_refinement_matches_the_round_based_oracle"
SHARED_ROWS = "tests/test_linalg.py::test_adjacency_matrix_shares_one_row_per_out_tuple"
BOUNDS_DIFFER = "tests/test_linalg.py::test_bareiss_decides_when_the_bounds_differ"
PROPAGATION_TESTS = "tests/test_propagation.py"
MEMO_ONLY = "tests/test_solvers.py::test_sibling_rule_keeps_the_answers_at_orders_11_to_20"
VERIFY_SCANS = "tests/test_solvers.py::test_sibling_rule_keeps_the_answers_on_the_verify_iterates"
WORK_COUNTS = "tests/test_solvers.py::test_subsets_tested_counts_every_closure_at_every_size"
GOLDEN_STDOUT = "tests/test_cli.py::test_records_print_the_golden_stdout"
BAD_INTEGERS = "tests/test_corpus.py::test_generators_refuse_bad_integers_before_any_draw"
WITNESS_IDS = "tests/test_constructions.py::test_witness_ids_match_the_label_comprehensions"
VERTEX_SETS = "tests/test_digraph.py::test_vertex_sets_keep_their_verdicts_and_messages"
REGULAR_REFERENCE = "tests/test_corpus.py::test_regular_classes_match_the_pairwise_reference"
CENSUS_REFERENCE = "tests/test_corpus.py::test_census_matches_the_pairwise_reference"
FORT_RANDOM = "tests/test_fort_cover.py::test_fort_cover_agrees_with_the_scan_on_random_digraphs"
FORT_EMPTY = "tests/test_fort_cover.py::test_fort_cover_answers_1_when_the_loop_rule_closes_the_empty_set"
FORT_WORK = "tests/test_fort_cover.py::test_fort_cover_work_counts"

MUTANTS = [
    # -- the line operator's hand-over ----------------------------------
    Mutant(
        "lines: in-tuples keyed by head instead of tail",
        LINES,
        "tails = list(chain.from_iterable(map(repeat, into, outdeg)))",
        "tails = list(map(into.__getitem__, head_of))",
        WALK_DICT,
    ),
    Mutant(
        "lines: in-block bound one past its end",
        LINES,
        "by_head[in_start[v] : in_start[v + 1]]",
        "by_head[in_start[v] : in_start[v + 1] + 1]",
        WALK_DICT,
    ),
    Mutant(
        "lines: line vertex (u, v) given the in-degree of v",
        LINES,
        "indeg = list(chain.from_iterable(map(repeat, indeg, outdeg)))",
        "indeg = list(map(indeg.__getitem__, head_of))",
        WALK_DICT,
    ),
    Mutant(
        "lines: out-block bound one short",
        LINES,
        "ids[start[v] : start[v + 1]]",
        "ids[start[v] : start[v + 1] - 1]",
        WALK_DICT,
    ),
    Mutant(
        "lines: head block taken from the tail",
        LINES,
        "heads = list(map(block.__getitem__, head_of))",
        "heads = list(chain.from_iterable(map(repeat, block, map(len, heads))))",
        WALK_DICT,
    ),
    Mutant(
        "digraph: hand-over refuses an iterate at the arc bound",
        DIGRAPH,
        "if self.arc_count > MAX_ARCS:",
        "if self.arc_count >= MAX_ARCS:",
        "tests/test_digraph.py::test_arc_limit_reads_one_arc_past_the_bound",
    ),
    Mutant(
        "digraph: hand-over without the arc bound",
        DIGRAPH,
        "if self.arc_count > MAX_ARCS:",
        "if False:",
        "tests/test_lines.py::test_iterate_with_too_many_arcs_is_refused",
    ),
    # -- the public constructor and identity ------------------------------
    Mutant(
        "digraph: public constructor stores heads unsorted",
        DIGRAPH,
        "self._out = tuple(map(tuple, map(sorted, out)))",
        "self._out = tuple(map(tuple, out))",
        ARC_VIEWS,
    ),
    Mutant(
        "digraph: public constructor lists tails in descending order",
        DIGRAPH,
        "for u, heads in enumerate(self._out):",
        "for u, heads in reversed(list(enumerate(self._out))):",
        WALK_DICT,
    ),
    Mutant(
        "digraph: __eq__ by arc count",
        DIGRAPH,
        "return self.n == other.n and self._out == other._out",
        "return self.n == other.n and self.arc_count == other.arc_count",
        ARC_VIEWS,
    ),
    Mutant(
        "digraph: hashing builds the arc set",
        DIGRAPH,
        "return hash((self.n, self._out))",
        "return hash((self.n, self.arcs))",
        "tests/test_digraph.py::test_handed_over_and_constructed_digraphs_hash_equal",
    ),
    Mutant(
        "digraph: no leftover-arc check",
        DIGRAPH,
        "for _ in rest:",
        "for _ in ():",
        "tests/test_digraph.py::test_arc_count_above_the_limit_is_refused",
    ),
    Mutant(
        "digraph: fast test without the range check",
        DIGRAPH,
        "type(v) is int and 0 <= u < n and 0 <= v < n",
        "type(v) is int",
        FIRST_OFFENDER,
    ),
    Mutant(
        "digraph: full check without the bool test",
        DIGRAPH,
        "if isinstance(w, bool) or not isinstance(w, int) or not 0 <= w < n:",
        "if not isinstance(w, int) or not 0 <= w < n:",
        FIRST_OFFENDER,
    ),
    Mutant(
        "digraph: the non-empty vertex set check refuses nothing",
        DIGRAPH,
        "if not s:",
        "if False:",
        "tests/test_digraph.py::test_an_empty_vertex_set_is_refused_in_the_callers_words",
    ),
    Mutant(
        "digraph: the bulk vertex-set test admits id n",
        DIGRAPH,
        "max(vertices) < g.n",
        "max(vertices) <= g.n",
        VERTEX_SETS,
    ),
    Mutant(
        "digraph: the integer check admits bools",
        DIGRAPH,
        "if isinstance(value, bool) or not isinstance(value, int) or value < minimum:",
        "if not isinstance(value, int) or value < minimum:",
        "tests/test_digraph.py::test_integer_arguments_are_refused_in_one_wording",
    ),
    # -- labels and their letter limit -----------------------------------
    Mutant(
        "lines: walk extended by the out-tuple of its first vertex",
        LINES,
        "walks = [w + x for w in walks for x in steps[w[-1]]]",
        "walks = [w + x for w in walks for x in steps[w[0]]]",
        WALK_DICT,
    ),
    Mutant(
        "lines: letters counted one short per label",
        LINES,
        "letters += order * (level + 2)",
        "letters += order * (level + 1)",
        "tests/test_lines.py::test_letter_limit_admits_an_iterate_at_its_exact_letter_count",
    ),
    # -- the closure engine -----------------------------------------------
    Mutant(
        "propagation: white seeded without the colored vertices' in-arcs",
        PROPAGATION,
        """    white = list(map(len, out))
    for v in colored:
        for u in inn[v]:
            white[u] -= 1
""",
        """    white = list(map(len, out))
""",
        NAIVE_CLOSURE,
    ),
    Mutant(
        "propagation: no round increment",
        PROPAGATION,
        "        r += 1\n",
        "        r += 0\n",
        PROPAGATION_TESTS,
    ),
    Mutant(
        "propagation: power-domination forcing rounds start at 1",
        PROPAGATION,
        "        r = 2\n",
        "        r = 1\n",
        PROPAGATION_TESTS,
    ),
    Mutant(
        "propagation: final without initial",
        PROPAGATION,
        "return self.initial.union(v for _, v, _ in self.certificate)",
        "return frozenset(v for _, v, _ in self.certificate)",
        PROPAGATION_TESTS,
    ),
    Mutant(
        "propagation: one round bucket short",
        PROPAGATION,
        "[[] for _ in range(last)]",
        "[[] for _ in range(last - 1)]",
        PROPAGATION_TESTS,
    ),
    # -- witnesses and factors --------------------------------------------
    Mutant(
        "constructions: the last eligible spare instead of the first",
        CONSTRUCTIONS,
        "next((w for w in heads if w not in on_bad_cycle), None)",
        "next((w for w in reversed(heads) if w not in on_bad_cycle), None)",
        "tests/test_constructions.py",
    ),
    Mutant(
        "constructions: the spared arc's id one past its place",
        CONSTRUCTIONS,
        "spared.append(start[v] + heads.index(spare))",
        "spared.append(start[v] + heads.index(spare) + 1)",
        WITNESS_IDS,
    ),
    Mutant(
        "constructions: the L^2 block of the factor arc out of u, not into it",
        CONSTRUCTIONS,
        "first = block[start[f[u]] + out[f[u]].index(u)]",
        "first = block[start[u] + out[u].index(after[u])]",
        WITNESS_IDS,
    ),
    Mutant(
        "constructions: no arc for the vertices paired with tail 0",
        CONSTRUCTIONS,
        "for v, u in enumerate(tail) if u >= 0}",
        "for v, u in enumerate(tail) if u > 0}",
        WITNESS_IDS,
    ),
    Mutant(
        "constructions: in-degree-one cycles ignored",
        CONSTRUCTIONS,
        "on_bad_cycle = {v for cycle in in_degree_one_cycles(g) for v in cycle}",
        "on_bad_cycle = set()",
        "tests/test_constructions.py",
    ),
    Mutant(
        "constructions: max instead of min for the paired tail",
        CONSTRUCTIONS,
        "owner.get(v, min(g._in[v]))",
        "owner.get(v, max(g._in[v]))",
        "tests/test_constructions.py",
    ),
    Mutant(
        "constructions: goodness decided after the matching",
        CONSTRUCTIONS,
        """    if require_good and in_degree_one_cycles(g):
        return None
    match = _perfect_matching(g._out)
""",
        """    match = _perfect_matching(g._out)
    if require_good and in_degree_one_cycles(g):
        return None
""",
        "tests/test_constructions.py::test_good_factor_refused_before_any_matching",
    ),
    Mutant(
        "constructions: matched arcs left in the remaining lists",
        CONSTRUCTIONS,
        "neighbors[u].remove(v)",
        "pass",
        "tests/test_verify.py::test_factors_that_repeat_an_arc_fail_cycle_factorization",
    ),
    Mutant(
        "constructions: the matching head bound dropped",
        CONSTRUCTIONS,
        "if tried > _MATCHING_HEADS:",
        "if False:",
        "tests/test_constructions.py::test_matching_gives_up_past_its_head_bound",
    ),
    Mutant(
        "constructions: the greedy pass takes a head that is already matched",
        CONSTRUCTIONS,
        "if match_head[v] < 0:",
        "if True:",
        "tests/test_constructions.py::test_one_factor_matches_kuhn_and_enumeration",
    ),
    Mutant(
        "constructions: an augmenting path rewires only its root's arc",
        CONSTRUCTIONS,
        "for t, j in zip(tails, positions):",
        "for t, j in zip(tails[:1], positions):",
        "tests/test_constructions.py"
        "::test_cycle_factorization_matches_kuhn_on_the_remaining_arcs",
    ),
    # -- reading input ----------------------------------------------------
    Mutant(
        "io: JSON nested past the recursion limit not refused",
        IO,
        "except RecursionError:",
        "except json.JSONDecodeError:",
        "tests/test_cli.py::test_malformed_json_exits_2_with_one_error_line",
    ),
    Mutant(
        "io: the pre-parse value bound dropped",
        IO,
        "if _holds_too_many_values(data):",
        "if False:",
        "tests/test_cli.py::test_input_holding_more_values_than_the_bounds_exits_3_unparsed",
    ),
    Mutant(
        "io: escaped quotes taken as string ends",
        IO,
        """.replace(b'\\\\"', b"")""",
        "",
        "tests/test_cli.py::test_input_holding_more_values_than_the_bounds_exits_3_unparsed",
    ),
    # -- verification suites ----------------------------------------------
    Mutant(
        "verify: a check with no instance passes",
        VERIFY,
        "0 < held == total",
        "held == total",
        "tests/test_verify.py::test_a_check_left_with_no_instance_fails",
    ),
    Mutant(
        "verify: a check passes with one instance false",
        VERIFY,
        "0 < held == total",
        "0 < held >= total - 1",
        "tests/test_verify.py::test_one_disagreeing_instance_fails_its_check",
    ),
    Mutant(
        "verify: the line identity passes on no isomorphism",
        VERIFY,
        "return CheckResult(label, iso is not None, details)",
        "return CheckResult(label, iso is None, details)",
        GOLDEN_STDOUT,
    ),
    Mutant(
        "verify: the brute-forced comparison inverted",
        VERIFY,
        "return CheckResult(label, found == claimed,",
        "return CheckResult(label, found != claimed,",
        GOLDEN_STDOUT,
    ),
    # -- the command line ---------------------------------------------------
    Mutant(
        "cli: a frozenset encoded in iteration order",
        CLI,
        "return sorted(value)",
        "return list(value)",
        GOLDEN_STDOUT,
    ),
    Mutant(
        "cli: a closed stdout reported as an internal error",
        CLI,
        "return 141",
        "return 4",
        "tests/test_cli.py::test_stdout_closed_early_exits_141_with_nothing_on_stderr",
    ),
    Mutant(
        "cli: a library warning left to the default printer",
        CLI,
        "warnings.showwarning = _show_warning",
        "warnings.simplefilter('default')",
        "tests/test_cli.py::test_library_warning_is_one_stderr_line",
    ),
    Mutant(
        "cli: witness labels unsorted",
        CLI,
        "for v in sorted(witness.vertices)]",
        "for v in witness.vertices]",
        "tests/test_cli.py::test_line_witness_json_shape",
    ),
    Mutant(
        "cli: the trace record emits initial as final",
        CLI,
        "return {field: getattr(trace, field) for field in fields}",
        'return {f: getattr(trace, "initial" if f == "final" else f) for f in fields}',
        "tests/test_cli.py::test_trace_json_shape",
    ),
    Mutant(
        "cli: gen accepts a superset of the family's parameters",
        CLI,
        "if given != set(wanted):",
        "if not given >= set(wanted):",
        "tests/test_cli.py::test_gen_rejects_wrong_parameters",
    ),
    Mutant(
        "cli: rank --line-depth exits 0 on an inconsistent report",
        CLI,
        "return 0 if report.rank_consistent else 1",
        "return 0",
        "tests/test_cli.py::test_rank_line_depth_exits_1_on_an_inconsistent_report",
    ),
    # -- forts and the in-twin bound ---------------------------------------
    Mutant(
        "critical: the twin bound counts every class member",
        CRITICAL,
        "return sum(len(c) - 1 for c in in_twin_classes(g))",
        "return sum(len(c) for c in in_twin_classes(g))",
        "tests/test_critical.py::test_twin_bound_on_de_bruijn",
    ),
    Mutant(
        "critical: sources grouped as in-twins",
        CRITICAL,
        "        if into:\n",
        "        if True:\n",
        "tests/test_critical.py::test_twin_class_pairs_are_strongly_critical",
    ),
    # -- families, corpus, oracles ----------------------------------------
    Mutant(
        "families: Kautz heads without the block skip",
        FAMILIES,
        "yield j // d, rest + block if rest >= first * block else rest",
        "yield j // d, rest",
        "tests/test_families.py",
    ),
    Mutant(
        "families: wrapped butterfly place values reversed",
        FAMILIES,
        "places = [d ** (n - 1 - l) for l in range(n)]",
        "places = [d**l for l in range(n)]",
        "tests/test_families.py",
    ),
    Mutant(
        "families: generalised Kautz without its offset",
        FAMILIES,
        "(-d * x - t - 1) % n",
        "(-d * x - t) % n",
        "tests/test_families.py",
    ),
    Mutant(
        "families: generalised Kautz heads not capped at n",
        FAMILIES,
        "arcs = ((x, (-d * x - t - 1) % n) for x in range(n) for t in range(min(d, n)))",
        "arcs = ((x, (-d * x - t - 1) % n) for x in range(n) for t in range(d))",
        "tests/test_families.py",
    ),
    Mutant(
        "families: conjunction reads the arc set",
        FAMILIES,
        "for a, c in g.arcs_sorted",
        "for a, c in g.arcs",
        GOLDEN_STDOUT,
    ),
    Mutant(
        "corpus: random regular digraphs without interchanges",
        "forcing_lab/corpus.py",
        "for _ in range(4 * d * n):",
        "for _ in range(0):",
        "tests/test_corpus.py::test_random_regular_digraph_reaches_every_labelled_digraph",
    ),
    Mutant(
        "corpus: random regular digraphs drawn past the order bound",
        "forcing_lab/corpus.py",
        "if n > MAX_ORDER:",
        "if False:",
        "tests/test_corpus.py::test_random_regular_digraph_refuses_before_its_first_draw",
    ),
    Mutant(
        "corpus: min-degree candidates listed past the arc bound",
        "forcing_lab/corpus.py",
        "if n * n > MAX_ARCS:",
        "if False:",
        "tests/test_corpus.py::test_min_degree_generator_refuses_before_its_first_draw",
    ),
    Mutant(
        "corpus: the candidate row bound of all_regular_digraphs dropped",
        "forcing_lab/corpus.py",
        "if count > MAX_ARCS:",
        "if False:",
        "tests/test_corpus.py"
        "::test_exhaustive_regular_refuses_too_many_rows_before_listing_them",
    ),
    Mutant(
        "corpus: class orbits closed under the swap alone",
        "forcing_lab/corpus.py",
        "generators = [(*range(1, n), 0), (1, 0, *range(2, n))] if n > 1 else []",
        "generators = [(1, 0, *range(2, n))] if n > 1 else []",
        f"{REGULAR_REFERENCE} {CENSUS_REFERENCE}",
    ),
    Mutant(
        "corpus: a relabelling renames tails but not heads",
        "forcing_lab/corpus.py",
        "image[p[u]] = tuple(sorted(map(p.__getitem__, heads)))",
        "image[p[u]] = heads",
        f"{REGULAR_REFERENCE} {CENSUS_REFERENCE}",
    ),
    Mutant(
        "corpus: the held-arc bound of the class orbits dropped",
        "forcing_lab/corpus.py",
        "if held + len(orbit) * arcs > _MAX_HELD_ARCS:",
        "if False:",
        "tests/test_corpus.py::test_regular_classes_refuse_past_the_held_arcs"
        " tests/test_corpus.py::test_census_refusal_counts_the_held_arcs",
    ),
    Mutant(
        "corpus: the early refusal counts n! labelled digraphs, not (n-1)!",
        "forcing_lab/corpus.py",
        "for k in range(1, n):",
        "for k in range(1, n + 1):",
        "tests/test_corpus.py::test_regular_classes_refuse_early_by_the_least_class",
    ),
    Mutant(
        "corpus: the census walks 5 vertices and more",
        "forcing_lab/corpus.py",
        "if cells > _MAX_HELD_ARCS.bit_length() or cells << (cells - 1) > _MAX_HELD_ARCS:",
        "if False:",
        "tests/test_corpus.py::test_census_refuses_from_5_vertices_before_the_walk",
    ),
    Mutant(
        "corpus: random_digraph takes any order",
        "forcing_lab/corpus.py",
        """    check_int(n, "order n", 1)
    _check_probability(arc_probability""",
        "    _check_probability(arc_probability",
        BAD_INTEGERS,
    ),
    Mutant(
        "corpus: a NaN probability passes the range check",
        "forcing_lab/corpus.py",
        "not 0 <= value <= 1",
        "value < 0 or value > 1",
        "tests/test_corpus.py::test_random_digraph_refuses_bad_probabilities_before_any_toss",
    ),
    Mutant(
        "corpus: min-degree requests too sparse to connect sampled anyway",
        "forcing_lab/corpus.py",
        "if most < n - 1:",
        "if False:",
        "tests/test_corpus.py::test_min_degree_generator_refuses_too_few_arcs_to_connect",
    ),
    Mutant(
        "corpus: min-degree generator without its min_out check",
        "forcing_lab/corpus.py",
        """    check_int(min_out, "min_out", 0)
""",
        "",
        BAD_INTEGERS,
    ),
    Mutant(
        "corpus: random regular digraphs take any degree",
        "forcing_lab/corpus.py",
        """    check_int(d, "degree d", 0)
    if d > n:
        raise""",
        """    if d > n:
        raise""",
        BAD_INTEGERS,
    ),
    Mutant(
        "corpus: random regular digraphs refuse degree 0",
        "forcing_lab/corpus.py",
        """    check_int(d, "degree d", 0)
    if d > n:
        raise""",
        """    check_int(d, "degree d", 1)
    if d > n:
        raise""",
        "tests/test_corpus.py::test_degree_zero_stays_legal",
    ),
    Mutant(
        "corpus: all_regular_digraphs takes any order and degree",
        "forcing_lab/corpus.py",
        """    check_int(n, "order n", 1)
    check_int(d, "degree d", 0)
    if d > n:
        return""",
        """    if d > n:
        return""",
        BAD_INTEGERS,
    ),
    # -- dense matrices and their rank -----------------------------------
    Mutant(
        "linalg: the sandwich always taken",
        LINALG,
        "if _gf2_rank(odd) == upper:",
        "if True:",
        BOUNDS_DIFFER,
    ),
    Mutant(
        "linalg: nonzero entries taken as odd",
        LINALG,
        "[j for j in compress(cols, row) if row[j] & 1]",
        "[j for j in compress(cols, row)]",
        BOUNDS_DIFFER,
    ),
    Mutant(
        "linalg: only the first row object's entry types checked",
        LINALG,
        "for x in row if set(map(type, row)) != {int} else ():",
        "for x in row if row is entries[0] and set(map(type, row)) != {int} else ():",
        SHARED_ROWS,
    ),
    Mutant(
        "linalg: rows that are not tuples accepted",
        LINALG,
        "isinstance(row, tuple) for row in entries",
        "row is not None for row in entries",
        "tests/test_linalg.py::test_matrix_refuses_rows_that_are_not_tuples",
    ),
    Mutant(
        "linalg: a shared row keyed by the wrong out-tuple",
        LINALG,
        "ExactMatrix(tuple(map(shared.__getitem__, g._out)))",
        "ExactMatrix(tuple(map(shared.__getitem__, sorted(g._out))))",
        SHARED_ROWS,
    ),
    Mutant(
        "linalg: the shared zero list written to, not copied",
        LINALG,
        "row = zero.copy()",
        "row = zero",
        SHARED_ROWS,
    ),
    Mutant(
        "linalg: the dense bound counts distinct rows, not their cells",
        LINALG,
        "if len(shared) * g.n > _DENSE_MAX_CELLS:",
        "if len(shared) > _DENSE_MAX_CELLS:",
        "tests/test_linalg.py::test_dense_matrix_bound_counts_distinct_rows_times_order",
    ),
    Mutant(
        "iso: order bound checked before the order comparison",
        ISO,
        """    if g.n != h.n or g.arc_count != h.arc_count:
        return None
    if g.n > _MAX_ORDER:
        raise ResourceLimitError(
            f"isomorphism search order {g.n} is above the limit of {_MAX_ORDER}"
        )
""",
        """    if g.n > _MAX_ORDER:
        raise ResourceLimitError(
            f"isomorphism search order {g.n} is above the limit of {_MAX_ORDER}"
        )
    if g.n != h.n or g.arc_count != h.arc_count:
        return None
""",
        "tests/test_iso.py::test_orders_above_the_bound_are_refused_before_the_search",
    ),
    Mutant(
        "iso: no order bound",
        ISO,
        "if g.n > _MAX_ORDER:",
        "if False:",
        "tests/test_iso.py::test_orders_above_the_bound_are_refused_before_the_search",
    ),
    # -- color refinement by splitters ------------------------------------
    Mutant(
        "iso: split parts not checked for balance",
        ISO,
        """            if len(part_g) != len(part_h):
                return None
""",
        """            if False:
                return None
""",
        NAIVE_REFINE,
    ),
    Mutant(
        "iso: a new part not pushed onto the worklist",
        ISO,
        "                work.append(new)\n",
        "",
        NAIVE_REFINE,
    ),
    Mutant(
        "iso: out- and in-counts merged into one count",
        ISO,
        """                found[colors[v], k, ins.pop(v, 0)].append(v)
            for v, k in ins.items():
                found[colors[v], 0, k].append(v)
""",
        """                found[colors[v], k + ins.pop(v, 0), 0].append(v)
            for v, k in ins.items():
                found[colors[v], k, 0].append(v)
""",
        NAIVE_REFINE,
    ),
    # -- the exhaustive scan's independence and sibling rule ---------------
    Mutant(
        "solvers: imports the propagation engine",
        SOLVERS,
        "from .errors import ResourceLimitError\n",
        "from .errors import ResourceLimitError\nfrom .propagation import zf_closure\n",
        "tests/test_package.py::test_the_oracles_import_only_what_they_state",
    ),
    Mutant(
        "solvers: power domination skipped by the union alone",
        SOLVERS,
        "fresh in map(fresh.__and__, earlier)",
        "True",
        MEMO_ONLY,
    ),
    Mutant(
        "solvers: skipped when fresh meets the earlier closures",
        SOLVERS,
        "if not fresh & ~reached and fresh in map(fresh.__and__, earlier):",
        "if fresh & reached and any(map(fresh.__and__, earlier)):",
        MEMO_ONLY,
    ),
    Mutant(
        "solvers: a skipped vertex excluded at every size",
        SOLVERS,
        "if not chosen:",
        "if True:",
        VERIFY_SCANS,
    ),
    Mutant(
        "solvers: earlier closures not reset per parent",
        SOLVERS,
        """        for base, chosen in level.items():
            # the union and the list of the closures of earlier siblings
            reached, earlier = 0, []
""",
        """        reached, earlier = 0, []
        for base, chosen in level.items():
""",
        MEMO_ONLY,
    ),
    Mutant(
        "solvers: the closures the memo drops left out of reached",
        SOLVERS,
        """                reached |= colored
                earlier.append(colored)
                if colored in level or colored in nxt:
                    pruned += 1
                else:
""",
        """                if colored in level or colored in nxt:
                    pruned += 1
                else:
                    reached |= colored
                    earlier.append(colored)
""",
        WORK_COUNTS,
    ),
    # -- the fort-cover solver's constraints, bound and answer ---------------
    Mutant(
        "solvers: the learned gamma_P constraint is W instead of N-[W]",
        SOLVERS,
        "constraints.append(must_meet(white))",
        "constraints.append(white)",
        FORT_RANDOM,
    ),
    Mutant(
        "solvers: the in-twin classes grouped by out-mask",
        SOLVERS,
        "for v, key in enumerate(inn):",
        "for v, key in enumerate(masks):",
        FORT_RANDOM,
    ),
    Mutant(
        "solvers: a row needs all |C| of its class",
        SOLVERS,
        "(c, c.bit_count() - 1)",
        "(c, c.bit_count())",
        FORT_RANDOM,
    ),
    Mutant(
        "solvers: learned constraints packed over rows still in need",
        SOLVERS,
        """                bound += need
                packed |= row
""",
        """                bound += need
""",
        FORT_RANDOM,
    ),
    Mutant(
        "solvers: the search starts one above the row bound",
        SOLVERS,
        "size = sum(least for _, least in rows)",
        "size = sum(least for _, least in rows) + 1",
        FORT_RANDOM,
    ),
    # Pruning at equality searches one size less at each size, so the
    # answers hold and only the work counts show it.
    Mutant(
        "solvers: the packing bound prunes at equality",
        SOLVERS,
        """                bound += 1
                if bound > k:
""",
        """                bound += 1
                if bound >= k:
""",
        FORT_WORK,
    ),
    Mutant(
        "solvers: the closing empty set answered with 0",
        SOLVERS,
        "number=chosen.bit_count() or 1,",
        "number=chosen.bit_count(),",
        FORT_EMPTY,
    ),
    Mutant(
        "solvers: the colored set learned instead of the white one",
        SOLVERS,
        "constraints.append(must_meet(white))",
        "constraints.append(must_meet(colored))",
        FORT_WORK,
    ),
]
