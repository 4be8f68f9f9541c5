"""Command-line front end.

One JSON document goes to stdout; human-readable summaries go to stderr,
so pipelines can consume the machine output without scraping prose.  A
library warning goes to stderr as one ``warning:`` line when it is raised.
Every stdout record is built here, and the digraph document of ``io`` is
the one format outside this module.  ``_emit`` encodes a dataclass as its
fields in order and a frozenset as its sorted list.

Exit codes: 0 success, 1 a checked property does not hold (a set fails
to force, digraphs are not isomorphic, a verification suite has a
failing check, an adjacency rank is not the predicted one), 2 usage or
domain error, 3 search abandoned on a resource limit, 4 internal error
(any other exception, reported on one stderr line), 141 stdout closed
before the document was written (like a process killed by SIGPIPE,
adding nothing to stderr).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, is_dataclass
from functools import cache
from typing import Callable, Sequence

from .constructions import (
    LineWitness,
    OneFactor,
    construct_pds_L,
    construct_pds_L2,
    construct_zfs_line,
    cycle_factorization,
    one_factor,
)
from .digraph import Digraph
from .errors import DomainError, ResourceLimitError
from .families import FAMILIES
from .io import digraph_to_json_dict, read_digraph, to_dot
from .iso import are_isomorphic
from .linalg import adjacency_rank, mr_and_max_nullity_regular_line
from .lines import iterated_line
from .propagation import PropagationTrace, pd_closure, zf_closure
from .solvers import MinimumSetResult, min_power_dominating, min_zero_forcing
from .verify import run_suite


def _info(message: str) -> None:
    print(message, file=sys.stderr)


def _show_warning(message: Warning | str, *_: object) -> None:
    """``warnings.showwarning`` inside ``main``: one stderr line per warning."""
    _info(f"warning: {message}")


def _encode(value: object) -> object:
    """``json``'s ``default``: the JSON form of a record or a vertex set."""
    if isinstance(value, frozenset):
        return sorted(value)
    if is_dataclass(value):
        return asdict(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _dashed(walk: tuple[int, ...]) -> str:
    """A walk label as written, e.g. ``'3-0-1'``."""
    return "-".join(map(str, walk))


def _trace_record(trace: PropagationTrace) -> dict[str, object]:
    fields = ("mode", "initial", "rounds", "certificate", "final", "covers_all")
    return {field: getattr(trace, field) for field in fields}


def _witness_record(witness: LineWitness) -> dict[str, object]:
    walks = witness.line.labels
    return {
        "line_order": witness.line.graph.n,
        "size": len(witness.vertices),
        "witness": witness.vertices,
        "witness_labels": [_dashed(walks[v]) for v in sorted(witness.vertices)],
        "mode": witness.trace.mode,
    }


def _emit(document: object) -> None:
    print(json.dumps(document, indent=2, default=_encode))


def _write_or_print(text: str, out: str | None, what: str) -> None:
    """Print ``text``, which ends in a newline, or write it to the file
    ``out`` and say so on stderr; an unwritable path is a usage error."""
    if out is None:
        # The newline goes in a write of its own: unbuffered, a write cut
        # short by a closed pipe raises nothing, and the next one raises.
        print(text[:-1])
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DomainError(f"cannot write {out}: {exc.strerror or exc}") from exc
    _info(f"wrote {what} to {out}")


def _digraph_text(g: Digraph, labels: list[str] | None = None) -> str:
    return json.dumps(digraph_to_json_dict(g, labels=labels), indent=2) + "\n"


def _parse_vertex_set(raw: str, labels: list[str] | None) -> frozenset[int]:
    """Accept comma-separated vertex ids, or walk labels such as 0-1-3
    when the digraph carries labels; the library checks the ids.  A token
    that is an id and the label of another vertex is refused."""
    vertices: set[int] = set()
    label_index = {label: i for i, label in enumerate(labels)} if labels else {}
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            as_id: int | None = int(token)
        except ValueError:
            as_id = None
        v = label_index.get(token, as_id)
        if as_id is not None and v != as_id:
            raise DomainError(
                f"--set token {token!r} is ambiguous: vertex id {as_id}, "
                f"or the label of vertex {v}"
            )
        if v is None and labels is None:
            raise DomainError(
                f"--set token {token!r} is not an integer and the input "
                "carries no labels"
            )
        if v is None:
            raise DomainError(f"--set token {token!r} matches no label")
        vertices.add(v)
    return frozenset(vertices)


def _cmd_gen(args: argparse.Namespace) -> int:
    generator, wanted = FAMILIES[args.family]
    given = {p for p in ("d", "D", "n") if getattr(args, p) is not None}
    if given != set(wanted):
        raise DomainError(
            f"family {args.family!r} takes parameters "
            f"{'/'.join('--' + p for p in wanted)}"
        )
    g = generator(*(getattr(args, p) for p in wanted))
    _write_or_print(_digraph_text(g), args.output, g.name or "digraph")
    _info(f"{g.name}: {g.n} vertices, {g.arc_count} arcs")
    return 0


def _cmd_line(args: argparse.Namespace) -> int:
    g, _ = read_digraph(args.input)
    labeled = iterated_line(g, args.iterate)
    text = _digraph_text(labeled.graph, list(map(_dashed, labeled.labels)))
    _write_or_print(text, args.output, labeled.graph.name or "line digraph")
    _info(
        f"L^{args.iterate} of {g.n} vertices / {g.arc_count} arcs: "
        f"{labeled.graph.n} vertices, {labeled.graph.arc_count} arcs"
    )
    return 0


def _cmd_min(
    g: Digraph, solve: Callable[[Digraph], MinimumSetResult], what: str
) -> int:
    result = solve(g)
    _emit(result)
    _info(
        f"{what} = {result.number}, witness {sorted(result.witness)} "
        f"({result.subsets_tested} subsets tested)"
    )
    return 0


def _cmd_closure(
    args: argparse.Namespace,
    g: Digraph,
    labels: list[str] | None,
    closure: Callable[[Digraph, frozenset[int]], PropagationTrace],
    closure_note: str,
    kind: str,
) -> int:
    """``closure`` or ``check`` from ``--set``; ``closure_note`` is formatted
    with ``s``, ``colored``, ``n`` and ``rounds``."""
    if args.set is None:
        raise DomainError(f"{args.command} {args.action} needs --set")
    s = _parse_vertex_set(args.set, labels)
    trace = closure(g, s)
    _emit(_trace_record(trace))
    if args.action == "closure":
        _info(
            closure_note.format(
                s=sorted(s), colored=len(trace.final), n=g.n, rounds=len(trace.rounds)
            )
        )
        return 0
    if trace.covers_all:
        _info(f"{sorted(s)} is a {kind}")
        return 0
    _info(f"{sorted(s)} is not a {kind}")
    return 1


def _emit_witness(witness: LineWitness, what: str, where: str) -> int:
    _emit(_witness_record(witness))
    _info(
        f"{what} of size {len(witness.vertices)} on the "
        f"{witness.line.graph.n}-vertex {where}"
    )
    return 0


def _cmd_zf(args: argparse.Namespace) -> int:
    g, labels = read_digraph(args.input)
    if args.action == "min":
        return _cmd_min(g, min_zero_forcing, "Z")
    if args.action == "construct":
        return _emit_witness(construct_zfs_line(g), "zero forcing set", "line digraph")
    note = "closure of {s} colors {colored}/{n} vertices in {rounds} rounds"
    return _cmd_closure(args, g, labels, zf_closure, note, "zero forcing set")


def _cmd_pd(args: argparse.Namespace) -> int:
    g, labels = read_digraph(args.input)
    if args.action == "min":
        return _cmd_min(g, min_power_dominating, "power domination number")
    what = "power dominating set"
    if args.action == "construct-l2":
        return _emit_witness(construct_pds_L2(g), what, "square iterate")
    if args.action == "construct-l":
        if args.set is None:
            raise DomainError(
                "construct-l needs --set with a disjoint out-neighborhood set"
            )
        s = _parse_vertex_set(args.set, labels)
        return _emit_witness(construct_pds_L(g, s), what, "line digraph")
    note = "domination plus forcing from {s} colors {colored}/{n} vertices"
    return _cmd_closure(args, g, labels, pd_closure, note, what)


def _cmd_rank(args: argparse.Namespace) -> int:
    g, _ = read_digraph(args.input)
    if args.line_depth is not None:
        report = mr_and_max_nullity_regular_line(g, args.line_depth)
        _emit(report)
        _info(
            f"L^{report.depth} of the degree-{report.degree} input: "
            f"order {report.order}, mr {report.min_rank}, "
            f"max nullity {report.max_nullity}"
        )
        return 0 if report.rank_consistent else 1
    result = adjacency_rank(g)
    _emit({"n": g.n, **result._asdict()})
    _info(
        f"adjacency rank {result.rank}, nullity {result.nullity} "
        f"(by {result.method})"
    )
    return 0


def _factor_dict(factor: OneFactor) -> dict[str, object]:
    return {"f": factor.f, "cycles": factor.cycles()}


def _cmd_factor(args: argparse.Namespace) -> int:
    g, _ = read_digraph(args.input)
    if args.cycles:
        factors = cycle_factorization(g).factors
        _emit({"degree": len(factors), "factors": [_factor_dict(f) for f in factors]})
        _info(f"cycle factorization into {len(factors)} 1-factors")
        return 0
    factor = one_factor(g, require_good=args.require_good)
    if factor is None:
        _emit({"factor": None})
        _info("no good 1-factor exists" if args.require_good else "no 1-factor exists")
        return 1
    document = _factor_dict(factor)
    _emit({"factor": document})
    _info(f"1-factor with {len(document['cycles'])} cycles")
    return 0


def _cmd_iso(args: argparse.Namespace) -> int:
    g, _ = read_digraph(args.first)
    h, _ = read_digraph(args.second)
    mapping = are_isomorphic(g, h)
    if mapping is None:
        _emit({"isomorphic": False})
        _info("not isomorphic")
        return 1
    _emit({"isomorphic": True, "mapping": mapping})
    _info(f"isomorphic via {list(mapping)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(args.suite)
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        _info(f"{status} {result.label}: {result.details}")
    failed = sum(1 for result in results if not result.passed)
    _emit({"suite": args.suite, "checks": results, "failed": failed})
    _info(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def _cmd_export_dot(args: argparse.Namespace) -> int:
    g, labels = read_digraph(args.input)
    _write_or_print(to_dot(g, labels=labels), args.output, "DOT")
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` keeps no state
    between calls, and prints its usage, help and errors to the
    ``sys.stdout`` and ``sys.stderr`` of the moment."""
    parser = argparse.ArgumentParser(
        prog="forcing-lab",
        description=(
            "Digraph zero forcing, power domination, line digraphs, and "
            "exact minimum-rank reports"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a named family digraph")
    gen.add_argument("family", choices=sorted(FAMILIES))
    gen.add_argument("--d", type=int, default=None, help="degree parameter")
    gen.add_argument("--D", type=int, default=None, help="word-length parameter")
    gen.add_argument("--n", type=int, default=None, help="order or level parameter")
    gen.add_argument("-o", "--output", default=None)

    line = sub.add_parser("line", help="apply the line-digraph operator")
    line.add_argument("input")
    line.add_argument("--iterate", type=int, default=1, metavar="K")
    line.add_argument("-o", "--output", default=None)

    zf = sub.add_parser("zf", help="zero forcing operations")
    zf.add_argument("action", choices=["closure", "check", "min", "construct"])
    zf.add_argument("input")
    zf.add_argument("--set", default=None, help="comma-separated ids or labels")

    pd = sub.add_parser("pd", help="power domination operations")
    pd.add_argument(
        "action",
        choices=["closure", "check", "min", "construct-l2", "construct-l"],
    )
    pd.add_argument("input")
    pd.add_argument("--set", default=None, help="comma-separated ids or labels")

    rank = sub.add_parser("rank", help="exact adjacency rank and nullity")
    rank.add_argument("input")
    rank.add_argument(
        "--line-depth",
        type=int,
        default=None,
        metavar="K",
        help="report mr and max nullity of L^K of the regular input",
    )

    factor = sub.add_parser("factor", help="1-factor or cycle factorization")
    factor.add_argument("input")
    kind = factor.add_mutually_exclusive_group()
    kind.add_argument("--cycles", action="store_true")
    kind.add_argument("--require-good", action="store_true")

    iso = sub.add_parser("iso", help="isomorphism certificate")
    iso.add_argument("first")
    iso.add_argument("second")

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("suite")

    export = sub.add_parser("export-dot", help="write Graphviz DOT")
    export.add_argument("input")
    export.add_argument("-o", "--output", default=None)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # the caller's warnings state comes back on return: perfbench calls
        # main in-process
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            # command ``export-dot`` runs ``_cmd_export_dot``, looked up at
            # each call rather than held by the cached parser
            code = globals()["_cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()  # a closed stdout is found here, not at exit
        return code
    except DomainError as exc:
        _info(f"error: {exc}")
        return 2
    except ResourceLimitError as exc:
        _info(f"resource limit: {exc}")
        return 3
    except BrokenPipeError:
        # fd 1 goes to devnull so that the flush at exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:
        _info(f"internal error: {type(exc).__name__}: {exc}")
        return 4


if __name__ == "__main__":
    sys.exit(main())
