"""Tests of the benchmark harness: inputs, checkers, tracing and exit codes.

Run with ``python -m pytest perfbench/tests``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest

import run
from run import run_pass
from tracing import Span, Tracer, layer_self_times, self_times, top_level_time
from workloads import WORKLOADS, Op, closes

ROOT = Path(__file__).resolve().parents[2]

# Cheap operations of each seeded workload, for traced passes in tests.
CHEAP = {
    "line-witness": lambda op: op.name.startswith("K4+loops"),
    "oracle-midsize": lambda op: "L^3" in op.name or "L^4" in op.name or " GK(" in op.name,
    "deep-chain": lambda op: "cycle(500)" in op.name,
}


def cheap_ops(fl, workload: str, seed: int):
    return [op for op in WORKLOADS[workload](fl, seed) if CHEAP[workload](op)]


def traced_pass(fl, ops):
    tracer = Tracer()
    tracer.install(fl)
    try:
        return run_pass(ops, tracer)
    finally:
        tracer.restore()


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_same_seed_gives_same_inputs_and_counts(fl, workload):
    first = WORKLOADS[workload](fl, 11)
    again = WORKLOADS[workload](fl, 11)
    other = WORKLOADS[workload](fl, 12)
    assert [op.name for op in first] == [op.name for op in again]
    assert [op.inputs for op in first] == [op.inputs for op in again]
    assert [op.inputs for op in first] != [op.inputs for op in other]

    passes = [traced_pass(fl, cheap_ops(fl, workload, 11)) for _ in range(2)]
    assert all(not p.failed and not p.wrong for p in passes)
    assert passes[0].counts and passes[0].counts == passes[1].counts


def test_a_wrong_answer_is_one_wrong_verdict(fl):
    ops = cheap_ops(fl, "line-witness", 3) + cheap_ops(fl, "oracle-midsize", 3)
    assert run_pass(ops).wrong == []

    def minus_one_vertex(op):
        def call(*inputs):
            witness = op.call(*inputs)
            return dataclasses.replace(witness, vertices=witness.vertices - {min(witness.vertices)})

        return dataclasses.replace(op, call=call)

    def rank_off_by_one(op):
        def call(*inputs):
            report = op.call(*inputs)
            return report._replace(rank=report.rank + 1, nullity=report.nullity - 1)

        return dataclasses.replace(op, call=call)

    witness_op = next(op for op in ops if "construct_zfs_line" in op.name)
    rank_op = next(op for op in ops if op.name.startswith("rank"))
    assert len(run_pass([minus_one_vertex(witness_op)]).wrong) == 1
    assert len(run_pass([rank_off_by_one(rank_op)]).wrong) == 1


def test_a_raising_operation_is_one_failure(fl):
    op = cheap_ops(fl, "deep-chain", 1)[0]
    broken = dataclasses.replace(op, inputs=op.inputs[:1])
    result = run_pass([broken, op])
    assert len(result.failed) == 1 and result.wrong == []


def test_pass_rel_divides_each_operation_by_the_reference_around_it(monkeypatch):
    # Operations of 2 s and 6 s, with reference work of 1 s before the
    # first, 3 s between them and 3 s after the second.
    clock = iter([0.0, 2.0, 10.0, 16.0])
    references = iter([1.0, 3.0, 3.0])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(run, "reference_seconds", lambda: next(references))
    ops = [Op(name, (), lambda: None, lambda _: None) for name in ("first", "second")]
    result = run_pass(ops)
    assert result.seconds == 8.0
    assert result.relative == 2.0 / 2.0 + 6.0 / 3.0


def test_the_reference_work_colors_its_cycles():
    assert run.reference_work() == (run.REFERENCE_ORDER, run.REFERENCE_BITS)
    assert run.reference_seconds() > 0


def test_self_time_on_a_hand_built_span_tree():
    spans = [
        Span("root", "verify", 0.0, 10.0, -1, 0),
        Span("a", "solvers", 1.0, 4.0, 0, 0),
        Span("a1", "digraph", 2.0, 3.0, 1, 0),
        Span("b", "solvers", 5.0, 7.0, 0, 0),
        Span("c", "lines", 12.0, 13.0, -1, 1),
    ]
    assert self_times(spans) == [5.0, 2.0, 1.0, 2.0, 1.0]
    assert layer_self_times(spans) == {"verify": 5.0, "solvers": 4.0, "digraph": 1.0, "lines": 1.0}
    assert top_level_time(spans) == 11.0
    # Children that overlap are covered once.
    overlapping = [Span("p", "x", 0.0, 10.0, -1, 0), Span("q", "y", 1.0, 4.0, 0, 0),
                   Span("r", "y", 3.0, 6.0, 0, 0)]
    assert self_times(overlapping)[0] == 5.0


def _bindings(fl):
    modules = [fl] + [m for k, m in sorted(sys.modules.items()) if k.startswith("forcing_lab.")]
    snapshot = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    snapshot["Digraph.__init__"] = fl.Digraph.__init__
    snapshot.update({("SUITES", k): v for k, v in fl.verify.SUITES.items()})
    return snapshot


def test_traced_run_patches_every_binding_and_restores_the_originals(fl):
    before = _bindings(fl)
    tracer = Tracer()
    tracer.install(fl)
    try:
        for namespace in (fl, fl.verify, fl.solvers):
            assert namespace.min_zero_forcing is not before[("forcing_lab.solvers", "min_zero_forcing")]
        assert fl.constructions.zf_closure is not before[("forcing_lab.propagation", "zf_closure")]
        assert fl.verify.SUITES["line-zf"] is not before[("SUITES", "line-zf")]
        result = run_pass(cheap_ops(fl, "line-witness", 1), tracer)
    finally:
        tracer.restore()
    assert _bindings(fl) == before
    assert result.spans and not result.wrong
    layers = {span.layer for span in result.spans}
    assert {"digraph", "lines", "propagation", "constructions.witness",
            "constructions.factor"} <= layers
    own = layer_self_times(result.spans)
    harness = result.seconds - top_level_time(result.spans)
    assert sum(own.values()) + harness == pytest.approx(result.seconds)


def test_verify_all_counts_solver_work_per_suite(fl):
    tracer = Tracer()
    tracer.install(fl)
    try:
        fl.verify.SUITES["de-bruijn"]()
    finally:
        tracer.restore()
    counts = tracer.counts
    assert counts["solvers.calls"] == 6
    assert counts["verify.de-bruijn.subsets_tested"] == counts["solvers.subsets_tested"] > 0


def test_closure_checker_agrees_with_the_library(fl):
    rng = Random(5)
    for i in range(300):
        n = rng.randrange(1, 8)
        loops = 0.3 if i % 2 else 0.0
        arcs = [(u, v) for u in range(n) for v in range(n)
                if rng.random() < (loops if u == v else 0.35)]
        g = fl.Digraph(n, arcs)
        start = set(rng.sample(range(n), rng.randrange(1, n + 1)))
        assert closes(n, arcs, start, False) == fl.is_zero_forcing_set(g, start)
        assert closes(n, arcs, start, True) == fl.is_power_dominating_set(g, start)


def test_without_the_library_the_command_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        spec["command"] + ["--workload", "deep-chain", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
