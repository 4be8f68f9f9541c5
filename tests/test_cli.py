from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path
from random import Random

import pytest

import forcing_lab
from forcing_lab import cli, constructions, iso, linalg, verify
from forcing_lab.cli import main
from forcing_lab.constructions import construct_pds_L2
from forcing_lab.corpus import random_digraph_min_degrees
from forcing_lab.digraph import MAX_ARCS, MAX_ORDER, Digraph
from forcing_lab.families import (
    complete_with_loops,
    complete_without_loops,
    cycle,
    de_bruijn,
    gen_de_bruijn,
    gen_kautz,
    kautz,
    wrapped_butterfly,
)
from forcing_lab.io import MAX_FILE_BYTES, digraph_to_json_dict, read_digraph
from forcing_lab.solvers import min_zero_forcing


def _run(capsys, *argv: str) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, *argv: str) -> tuple[int, object, str]:
    code, out, err = _run(capsys, *argv)
    return code, json.loads(out), err


def _gen(capsys, tmp_path, name: str, *argv: str) -> str:
    path = str(tmp_path / name)
    code, _, _ = _run(capsys, *argv, "-o", path)
    assert code == 0
    return path


def test_gen_to_stdout(capsys):
    code, doc, err = _run_json(capsys, "gen", "de-bruijn", "--d", "2", "--D", "3")
    assert code == 0
    assert doc["n"] == 8 and len(doc["arcs"]) == 16
    assert doc["name"] == "B(2,3)"
    assert "8 vertices" in err


def test_gen_to_file_round_trips(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "2")
    doc = json.loads(open(path).read())
    assert doc["n"] == 4


def test_library_warning_is_one_stderr_line(capsys):
    showwarning, filters = warnings.showwarning, list(warnings.filters)
    code, out, err = _run(capsys, "gen", "kautz", "--d", "2", "--D", "2")
    assert code == 0 and json.loads(out)["name"] == "K(2,2)"
    assert err == (
        "warning: kautz with d = 2 is outside the range the closed-form "
        "results were stated for; the digraph itself is fine\n"
        "K(2,2): 6 vertices, 12 arcs\n"
    )
    # main leaves the caller's warnings state as it found it
    assert warnings.showwarning is showwarning and warnings.filters == filters


def test_gen_builds_each_family(capsys):
    cases = [
        (("de-bruijn", "--d", "2", "--D", "2"), de_bruijn(2, 2)),
        (("kautz", "--d", "3", "--D", "2"), kautz(3, 2)),
        (("gen-de-bruijn", "--d", "2", "--n", "6"), gen_de_bruijn(2, 6)),
        (("gen-kautz", "--d", "2", "--n", "6"), gen_kautz(2, 6)),
        (("wrapped-butterfly", "--d", "2", "--n", "2"), wrapped_butterfly(2, 2)),
        (("complete-loops", "--d", "3"), complete_with_loops(3)),
        (("complete-noloops", "--n", "4"), complete_without_loops(4)),
        (("cycle", "--n", "5"), cycle(5)),
    ]
    for argv, expected in cases:
        code, doc, _ = _run_json(capsys, "gen", *argv)
        assert code == 0 and doc == digraph_to_json_dict(expected)


def test_gen_rejects_unknown_family(capsys):
    code, out, err = _run(capsys, "gen", "petersen")
    assert (code, out) == (2, "")
    assert "argument family: invalid choice: 'petersen'" in err


def test_gen_rejects_unknown_family_with_parameters(capsys):
    code, out, err = _run(capsys, "gen", "petersen", "--n", "10")
    assert (code, out) == (2, "")
    assert "argument family: invalid choice: 'petersen'" in err


def test_gen_rejects_missing_parameter(capsys):
    code, out, err = _run(capsys, "gen", "de-bruijn", "--d", "2")
    assert (code, out) == (2, "")
    assert err == "error: family 'de-bruijn' takes parameters --d/--D\n"


def test_gen_rejects_wrong_parameters(capsys):
    cases = [
        (("cycle", "--n", "5", "--d", "2"), "'cycle' takes parameters --n"),
        (("complete-loops", "--n", "3"), "'complete-loops' takes parameters --d"),
    ]
    for argv, message in cases:
        code, out, err = _run(capsys, "gen", *argv)
        assert (code, out, err) == (2, "", f"error: family {message}\n")


def test_zf_min(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "3")
    code, doc, _ = _run_json(capsys, "zf", "min", path)
    assert code == 0
    assert doc["number"] == 4 and doc["witness"] == [0, 2, 4, 6]
    assert doc["subsets_tested"] == 15 and doc["prefixes_pruned"] == 0
    assert doc["siblings_skipped"] == 4
    assert doc["tested_per_size"] == [4, 6, 4, 1]


def test_zf_check_exit_codes(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "3")
    good, doc, _ = _run_json(capsys, "zf", "check", path, "--set", "0,2,4,6")
    assert good == 0 and doc["covers_all"] is True
    bad, doc, _ = _run_json(capsys, "zf", "check", path, "--set", "0")
    assert bad == 1 and doc["covers_all"] is False


def test_trace_json_shape(capsys, tmp_path):
    c3 = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "3")
    code, doc, _ = _run_json(capsys, "zf", "closure", c3, "--set", "0")
    assert code == 0
    assert doc == {
        "mode": "zero-forcing",
        "initial": [0],
        "rounds": [[1], [2]],
        "certificate": [[0, 1, 1], [1, 2, 2]],
        "final": [0, 1, 2],
        "covers_all": True,
    }
    # a domination round that colors nothing is printed as an empty round
    loops = _write_arcs(tmp_path, "loops.json", 2, [(0, 0), (1, 1)])
    code, doc, _ = _run_json(capsys, "pd", "closure", loops, "--set", "0")
    assert code == 0
    assert doc == {
        "mode": "power-domination",
        "initial": [0],
        "rounds": [[], [1]],
        "certificate": [[1, 1, 2]],
        "final": [0, 1],
        "covers_all": True,
    }


def test_zf_closure_requires_set(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "b.json", "gen", "cycle", "--n", "4")
    code, _, err = _run(capsys, "zf", "closure", path)
    assert code == 2 and "--set" in err


def test_set_accepts_walk_labels(capsys, tmp_path):
    base = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "2")
    line = str(tmp_path / "line.json")
    code, _, _ = _run(capsys, "line", base, "-o", line)
    assert code == 0
    labels = json.loads(open(line).read())["labels"]
    assert labels[0] == "0-0"
    # B(2,3) in disguise: the four even-indexed arcs force everything
    chosen = ",".join(labels[i] for i in (0, 2, 4, 6))
    code, doc, _ = _run_json(capsys, "zf", "check", line, "--set", chosen)
    assert code == 0 and doc["covers_all"] is True


def test_line_writes_dashed_walk_labels(capsys, tmp_path):
    base = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "2")
    code, doc, _ = _run_json(capsys, "line", base)
    assert code == 0
    assert doc["labels"] == ["0-0", "0-1", "1-2", "1-3", "2-0", "2-1", "3-2", "3-3"]
    code, doc, _ = _run_json(capsys, "line", base, "--iterate", "0")
    assert code == 0 and doc["labels"] == ["0", "1", "2", "3"]


def test_set_rejects_unknown_label(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "b.json", "gen", "cycle", "--n", "4")
    code, _, err = _run(capsys, "zf", "check", path, "--set", "0-1")
    assert code == 2 and "no labels" in err


def test_set_refuses_a_token_matching_no_label(capsys, tmp_path):
    path = tmp_path / "labelled.json"
    path.write_text('{"n": 2, "arcs": [[0, 1], [1, 0]], "labels": ["a", "b"]}')
    code, out, err = _run(capsys, "zf", "closure", str(path), "--set", "a,c")
    assert (code, out) == (2, "")
    assert err == "error: --set token 'c' matches no label\n"


def test_set_on_repeated_labels_exits_2(capsys, tmp_path):
    path = tmp_path / "twins.json"
    path.write_text('{"n": 2, "arcs": [[0, 1], [1, 0]], "labels": ["a", "a"]}')
    code, out, err = _run(capsys, "zf", "closure", str(path), "--set", "a")
    assert code == 2 and out == ""
    assert err == "error: key 'labels' repeats the label 'a'\n"


def test_pd_min_and_construct(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "3")
    code, doc, _ = _run_json(capsys, "pd", "min", path)
    assert code == 0 and doc["number"] == 2 and doc["witness"] == [1, 6]
    assert doc["subsets_tested"] == 13 and doc["prefixes_pruned"] == 3
    assert doc["siblings_skipped"] == 4
    assert doc["tested_per_size"] == [6, 7]

    k3 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "3")
    code, doc, err = _run_json(capsys, "pd", "construct-l2", k3)
    assert code == 0 and doc["size"] == 6
    assert err == "power dominating set of size 6 on the 27-vertex square iterate\n"
    code, doc, err = _run_json(capsys, "pd", "construct-l", k3, "--set", "0")
    assert code == 0 and doc["size"] == 2
    assert err == "power dominating set of size 2 on the 9-vertex line digraph\n"


def test_pd_construct_l_requires_set(capsys, tmp_path):
    k3 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "3")
    code, _, err = _run(capsys, "pd", "construct-l", k3)
    assert code == 2 and "--set" in err


def test_zf_construct(capsys, tmp_path):
    k3 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "3")
    code, doc, err = _run_json(capsys, "zf", "construct", k3)
    assert code == 0 and doc["size"] == 6
    assert err == "zero forcing set of size 6 on the 9-vertex line digraph\n"
    cyc = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "5")
    code, _, err = _run(capsys, "zf", "construct", cyc)
    assert code == 2


def test_line_witness_json_shape(capsys, tmp_path):
    """Each witness lists its ids ascending and, in the same order, the
    labels that ``line`` writes for them, also where the witness set does
    not iterate in ascending order (checked on K(2,3))."""
    rng = Random(71)
    bases = [random_digraph_min_degrees(rng, 5, min_out=2, min_in=1) for _ in range(5)]
    paths = [
        _write_arcs(tmp_path, f"r{i}.json", g.n, g.arcs_sorted)
        for i, g in enumerate(bases)
    ]
    b24 = _gen(capsys, tmp_path, "b24.json", "gen", "de-bruijn", "--d", "2", "--D", "4")
    k23 = _gen(capsys, tmp_path, "k23.json", "gen", "kautz", "--d", "2", "--D", "3")
    k32 = _gen(capsys, tmp_path, "k32.json", "gen", "kautz", "--d", "3", "--D", "2")
    runs = [(("zf", "construct", path), path, "1") for path in paths]
    runs += [(("pd", "construct-l2", path), path, "2") for path in (b24, k23)]
    runs += [(("pd", "construct-l", k32, "--set", "0"), k32, "1")]
    for command, base, k in runs:
        _, line, _ = _run_json(capsys, "line", base, "--iterate", k)
        code, doc, _ = _run_json(capsys, *command)
        assert code == 0
        assert list(doc) == ["line_order", "size", "witness", "witness_labels", "mode"]
        assert doc["line_order"] == line["n"] and doc["size"] == len(doc["witness"])
        assert doc["witness"] == sorted(doc["witness"])
        assert doc["witness_labels"] == [line["labels"][v] for v in doc["witness"]]
        mode = "zero-forcing" if command[0] == "zf" else "power-domination"
        assert doc["mode"] == mode
    with pytest.warns(UserWarning, match="^kautz with d = 2"):
        witness = construct_pds_L2(kautz(2, 3)).vertices
    assert list(witness) != sorted(witness)


def test_rank_and_line_depth(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "3")
    code, doc, _ = _run_json(capsys, "rank", path)
    assert code == 0
    assert doc == {"n": 8, "rank": 4, "nullity": 4, "method": "sandwich"}

    k3 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "3")
    code, doc, _ = _run_json(capsys, "rank", k3, "--line-depth", "2")
    assert code == 0
    assert doc["min_rank"] == 9 and doc["max_nullity"] == 18


def test_rank_line_depth_report_json_keys(capsys, tmp_path):
    k2 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "2")
    code, doc, _ = _run_json(capsys, "rank", k2, "--line-depth", "1")
    assert code == 0
    assert doc["degree"] == 2 and doc["depth"] == 1
    assert doc["min_rank"] == 2 and doc["max_nullity"] == 2
    assert doc["rank_method"] == "sandwich"


def test_rank_line_depth_exits_1_on_an_inconsistent_report(
    capsys, tmp_path, monkeypatch
):
    real = linalg.adjacency_rank

    def one_rank_off(g):
        report = real(g)
        return report._replace(rank=report.rank + 1, nullity=report.nullity - 1)

    monkeypatch.setattr(linalg, "adjacency_rank", one_rank_off)
    k2 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "2")
    code, doc, err = _run_json(capsys, "rank", k2, "--line-depth", "2")
    assert code == 1
    expected = json.loads((GOLDEN / "rank-line-depth.out").read_text())
    expected.update(adjacency_rank=5, adjacency_nullity=3, rank_consistent=False)
    assert doc == expected
    assert err == "L^2 of the degree-2 input: order 8, mr 4, max nullity 4\n"


def test_rank_line_depth_at_order_131072(capsys, tmp_path):
    k2 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "2")
    code, doc, _ = _run_json(capsys, "rank", k2, "--line-depth", "16")
    assert code == 0
    assert (doc["order"], doc["adjacency_rank"]) == (131072, 65536)
    assert doc["rank_method"] == "sandwich" and doc["rank_consistent"]


def test_rank_of_degree_one_and_above_the_bareiss_limit(capsys, tmp_path):
    cyc = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "5")
    code, doc, _ = _run_json(capsys, "rank", cyc, "--line-depth", "1")
    assert code == 0
    assert (doc["min_rank"], doc["max_nullity"], doc["zero_forcing_number"]) == (4, 1, 1)
    code, _, _ = _run(capsys, "rank", cyc, "--line-depth", "1", "--allow-degree-one")
    assert code == 2
    # 342 disjoint copies of out-neighborhoods {0,1}, {1,2}, {0,2}: the
    # rank bounds differ, and Bareiss is refused at order 1026
    arcs = [
        (3 * c + u, 3 * c + v)
        for c in range(342)
        for u, v in [(0, 0), (0, 1), (1, 1), (1, 2), (2, 0), (2, 2)]
    ]
    path = _write_arcs(tmp_path, "copies.json", 1026, arcs)
    code, out, err = _run(capsys, "rank", path)
    assert code == 3 and out == "" and "Bareiss" in err


def test_rank_line_depth_rejects_irregular(capsys, tmp_path):
    path = str(tmp_path / "p.json")
    with open(path, "w") as handle:
        json.dump({"n": 3, "arcs": [[0, 1], [1, 2]]}, handle)
    code, _, err = _run(capsys, "rank", path, "--line-depth", "1")
    assert code == 2 and "regular" in err


def test_factor_commands(capsys, tmp_path):
    k3 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "3")
    code, doc, err = _run_json(capsys, "factor", k3, "--cycles")
    assert code == 0 and doc["degree"] == 3
    assert err == "cycle factorization into 3 1-factors\n"
    code, doc, err = _run_json(capsys, "factor", k3)
    assert code == 0 and err == f"1-factor with {len(doc['factor']['cycles'])} cycles\n"

    path = str(tmp_path / "p.json")
    with open(path, "w") as handle:
        json.dump({"n": 3, "arcs": [[0, 1], [1, 2]]}, handle)
    code, doc, _ = _run_json(capsys, "factor", path)
    assert code == 1 and doc == {"factor": None}

    c4 = _gen(capsys, tmp_path, "c4.json", "gen", "cycle", "--n", "4")
    code, doc, _ = _run_json(capsys, "factor", c4, "--cycles")
    assert code == 0 and doc["degree"] == 1
    code, out, err = _run(capsys, "factor", c4, "--cycles", "--require-good")
    assert (code, out) == (2, "") and "not allowed with" in err


def _write_arcs(tmp_path, name: str, n: int, arcs: list[tuple[int, int]]) -> str:
    path = str(tmp_path / name)
    with open(path, "w") as handle:
        json.dump({"n": n, "arcs": [list(arc) for arc in arcs]}, handle)
    return path


def _chain_of_loops(n: int) -> list[tuple[int, int]]:
    """Loops at ``0 .. n-2`` plus the cycle through every vertex: the one
    augmenting path of its matching runs through all ``n`` tails."""
    return [(v, v) for v in range(n - 1)] + [(v, (v + 1) % n) for v in range(n)]


def test_factor_commands_on_a_long_chain_of_loops(capsys, tmp_path):
    n = 3000
    path = _write_arcs(tmp_path, "chain.json", n, _chain_of_loops(n))
    for flags in ((), ("--require-good",)):
        code, doc, _ = _run_json(capsys, "factor", path, *flags)
        assert code == 0 and doc["factor"]["cycles"] == [list(range(n))]
    # 2-regular: loops at 0 .. n-2, the chain 2 -> ... -> n-1 and four
    # more arcs; the first factor augments once, through n - 1 tails
    arcs = [(v, v) for v in range(n - 1)] + [(v, v + 1) for v in range(2, n - 1)]
    arcs += [(0, 2), (1, n - 1), (n - 1, 0), (n - 1, 1)]
    path = _write_arcs(tmp_path, "regular.json", n, arcs)
    code, doc, _ = _run_json(capsys, "factor", path, "--cycles")
    assert code == 0 and doc["degree"] == 2


def test_factor_exits_3_past_the_matching_head_bound(capsys, tmp_path, monkeypatch):
    path = _write_arcs(tmp_path, "chain.json", 3000, _chain_of_loops(3000))
    monkeypatch.setattr(constructions, "_MATCHING_HEADS", 5000)
    code, out, err = _run(capsys, "factor", path)
    assert (code, out) == (3, "")
    assert err == "resource limit: perfect matching gave up after 5000 heads tried\n"


def test_no_good_factor_above_ten_vertices(capsys, tmp_path):
    # 0 and 1 form an in-degree-one 2-cycle, so no 1-factor is good;
    # every out-degree is 2 and vertices 2..11 carry loops
    arcs = [(0, 1), (0, 2), (1, 0), (1, 3)]
    for v in range(2, 12):
        arcs += [(v, v), (v, 2 + (v - 1) % 10)]
    path = _write_arcs(tmp_path, "bad.json", 12, arcs)
    code, doc, _ = _run_json(capsys, "factor", path)
    assert code == 0
    code, doc, err = _run_json(capsys, "factor", path, "--require-good")
    assert code == 1 and doc == {"factor": None} and "no good 1-factor" in err
    code, _, err = _run(capsys, "pd", "construct-l2", path)
    assert code == 2 and "no suitable 1-factor" in err


def test_iso_exit_codes(capsys, tmp_path, monkeypatch):
    a = _gen(capsys, tmp_path, "a.json", "gen", "cycle", "--n", "4")
    b = _gen(capsys, tmp_path, "b.json", "gen", "cycle", "--n", "5")
    code, doc, _ = _run_json(capsys, "iso", a, a)
    assert code == 0 and doc["mapping"] == [0, 1, 2, 3]
    code, doc, _ = _run_json(capsys, "iso", a, b)
    assert code == 1 and doc == {"isomorphic": False}
    monkeypatch.setattr(iso, "_SEARCH_NODES", 3)
    code, out, err = _run(capsys, "iso", a, a)
    assert code == 3 and out == "" and "gave up after 3 images tried" in err


def test_iso_above_the_order_bound_exits_3_at_once(capsys, tmp_path):
    n = str(iso._MAX_ORDER + 1)
    c = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", n)
    start = time.perf_counter()
    code, out, err = _run(capsys, "iso", c, c)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith(f"resource limit: isomorphism search order {n} is above")


def test_iso_on_a_long_cycle(capsys, tmp_path):
    c = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "1500")
    code, doc, _ = _run_json(capsys, "iso", c, c)
    assert code == 0 and doc["mapping"] == list(range(1500))


def test_verify_suite(capsys):
    code, doc, err = _run_json(capsys, "verify", "de-bruijn")
    assert code == 0
    assert doc["failed"] == 0 and len(doc["checks"]) == 7
    assert err.count("PASS") >= 7


def test_verify_exits_1_when_a_check_fails(capsys, monkeypatch):
    monkeypatch.setattr(verify, "regular_digraphs_up_to_iso", lambda n, d: [])
    code, doc, err = _run_json(capsys, "verify", "nullity-collapse")
    assert code == 1 and doc["failed"] >= 1
    label = "adjacency nullity of iterates equals fort-cover zero forcing"
    assert f"\nFAIL {label}: 0/0 " in "\n" + err
    assert err.endswith("0/1 checks passed\n")


def test_verify_unknown_suite(capsys):
    code, _, err = _run(capsys, "verify", "everything-else")
    assert code == 2 and "unknown suite" in err


def test_export_dot(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "3")
    code, out, _ = _run(capsys, "export-dot", path)
    assert code == 0
    assert "0 -> 1;" in out
    dot = str(tmp_path / "c.dot")
    code, written, err = _run(capsys, "export-dot", path, "-o", dot)
    assert (code, written) == (0, "")
    assert err == f"wrote DOT to {dot}\n"
    assert open(dot).read() == out


def test_unwritable_output_is_usage_error(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "3")
    missing = str(tmp_path / "missing-dir" / "out")
    for argv in (["gen", "cycle", "--n", "3"], ["export-dot", path]):
        code, out, err = _run(capsys, *argv, "-o", missing)
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: cannot write {missing}: ")


def test_missing_input_file(capsys):
    code, _, err = _run(capsys, "zf", "min", "/nonexistent.json")
    assert code == 2 and "cannot read" in err


def test_orders_above_the_limit_exit_3(capsys, tmp_path):
    k2 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "2")
    start = time.perf_counter()
    code, out, err = _run(capsys, "line", k2, "--iterate", "40")
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "")
    assert err.startswith("resource limit: iterate order 262144 is above")
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps({"n": 1000000000, "arcs": []}))
    code, out, err = _run(capsys, "line", str(huge))
    assert (code, out) == (3, "")
    assert err.startswith("resource limit:")


def test_input_file_above_the_byte_bound_exits_3_unparsed(capsys, tmp_path, monkeypatch):
    # A sparse file of NUL bytes, one past the bound: parsed, it would exit
    # 2 as invalid JSON.
    huge = tmp_path / "huge.json"
    with open(huge, "wb") as handle:
        handle.truncate(MAX_FILE_BYTES + 1)
    parsed = []
    monkeypatch.setattr(json, "loads", parsed.append)
    code, out, err = _run(capsys, "zf", "min", str(huge))
    assert (code, out, parsed) == (3, "", [])
    assert err == (
        f"resource limit: {huge} is above the input limit of "
        f"{MAX_FILE_BYTES} bytes\n"
    )


def test_input_holding_more_values_than_the_bounds_exits_3_unparsed(
    capsys, tmp_path, monkeypatch
):
    # Brackets, braces, commas and escaped quotes inside strings are not
    # counted: the largest document by each bound is handed to the parser
    # (patched here to take it and return no object, so it exits 2), and
    # one list, object or comma past it is refused before the parse.
    parsed = []
    monkeypatch.setattr(json, "loads", parsed.append)

    def label(i):
        return json.dumps(f'{i}"[{{,\\')

    def doc(labels, arcs):
        return (
            f'{{"n": 2, "name": {label(-1)}, "labels": [{", ".join(labels)}], '
            f'"arcs": [{",".join(arcs)}]}}'
        )

    labels = list(map(label, range(MAX_ORDER)))
    arcs = ["[0,1]"] * MAX_ARCS
    cases = [
        (doc(labels, arcs), 2),
        (doc(labels, arcs + ["[0,1]"]), 3),
        (doc(labels + ['"x"'], arcs), 3),
        (doc([], ["{}"] * MAX_ARCS), 2),
        (doc([], ["{}"] * (MAX_ARCS + 1)), 3),
    ]
    for case, (text, code_wanted) in enumerate(cases):
        path = tmp_path / f"{case}.json"
        path.write_text(text)
        calls = len(parsed)
        code, out, err = _run(capsys, "zf", "min", str(path))
        parses = int(code_wanted == 2)
        assert (code, out, len(parsed) - calls) == (code_wanted, "", parses), err
        if code == 3:
            assert err == (
                f"resource limit: {path} holds more values than a document of "
                f"{MAX_ARCS} arcs and {MAX_ORDER} labels\n"
            )


def test_unterminated_string_of_escaped_quotes_exits_2_at_once(capsys, tmp_path):
    # Its commas put the file over the value bounds, so the strings are
    # taken out before the count.  A scan that needs each string's closing
    # quote would try every escaped quote as an end, from every quote; this
    # one reads the file in one pass, finds the commas inside the string,
    # and the parser refuses it.
    path = tmp_path / "open.json"
    path.write_text('{"n": 2, "name": "' + '\\",' * (2 * MAX_ARCS + MAX_ORDER + 2))
    start = time.perf_counter()
    code, out, err = _run(capsys, "zf", "min", str(path))
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: not valid JSON (Unterminated string")


def test_largest_document_the_cli_writes_is_read_back(capsys, tmp_path):
    k2 = _gen(capsys, tmp_path, "k.json", "gen", "complete-loops", "--d", "2")
    line = _gen(capsys, tmp_path, "l.json", "line", k2, "--iterate", "16")
    assert os.path.getsize(line) <= MAX_FILE_BYTES
    g, labels = read_digraph(line)
    assert (g.n, g.arc_count) == (1 << 17, 1 << 18)
    assert labels[0] == "-".join(["0"] * 17) and labels[-1] == "-".join(["1"] * 17)


def test_deep_iterates_of_a_cycle_exit_3_at_the_letter_limit(capsys, tmp_path):
    # out-degree 1 keeps the order at 131072, but each level adds a letter
    # to every label, so only the letter limit stops these
    cyc = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "131072")
    refused = "resource limit: walk labels of L^7 pass the limit of 4194304 letters\n"
    for argv in (["line", cyc, "--iterate", "1000"], ["rank", cyc, "--line-depth", "1000"]):
        start = time.perf_counter()
        code, out, err = _run(capsys, *argv)
        assert time.perf_counter() - start < 5, argv
        assert (code, out, err) == (3, "", refused), argv


def test_malformed_json_exits_2_with_one_error_line(capsys, tmp_path):
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000)
    long_int = tmp_path / "long-int.json"
    long_int.write_text('{"n": ' + "9" * 5000 + ', "arcs": []}')
    for path, why in [
        (nested, "JSON nested too deeply"),
        (long_int, "a number has too many digits"),
    ]:
        code, out, err = _run(capsys, "zf", "check", str(path), "--set", "0")
        assert (code, out) == (2, "")
        assert err == f"error: cannot parse {path}: {why}\n"


def test_oversize_families_exit_3_at_once(capsys):
    for argv in (
        "de-bruijn --d 2 --D 30",
        "de-bruijn --d 2 --D 18",
        "de-bruijn --d 3 --D 100000000",
        "kautz --d 3 --D 25",
        "cycle --n 1000000000",
        "gen-de-bruijn --d 2 --n 1000000000",
        "wrapped-butterfly --d 2 --n 40",
        "complete-loops --d 100000",
    ):
        start = time.perf_counter()
        code, out, err = _run(capsys, "gen", *argv.split())
        assert time.perf_counter() - start < 2, argv
        assert (code, out) == (3, ""), argv
        assert err.startswith("resource limit:"), argv
    argv = ("gen", "gen-de-bruijn", "--d", "1000000000", "--n", "5")
    code, doc, _ = _run_json(capsys, *argv)
    assert code == 0 and doc["n"] == 5 and len(doc["arcs"]) == 25


def test_rank_refuses_a_permutation_union_at_order_32768(capsys, tmp_path):
    # GF(2) rank n - 1 falls short of the n distinct rows, so only Bareiss
    # could decide, and the GF(2) step must give up within its budget
    n = 32768
    rng = Random(1)
    perms = [rng.sample(range(n), n) for _ in range(3)]
    arcs = sorted({(v, p[v]) for p in perms for v in range(n)})
    path = _write_arcs(tmp_path, "union.json", n, arcs)
    start = time.perf_counter()
    code, out, err = _run(capsys, "rank", path)
    assert time.perf_counter() - start < 1
    assert (code, out) == (3, "") and "Bareiss" in err


def test_zf_min_order_limit_is_forty(capsys, tmp_path):
    path = _gen(capsys, tmp_path, "c40.json", "gen", "cycle", "--n", "40")
    code, out, _ = _run(capsys, "zf", "min", path)
    assert code == 0 and json.loads(out)["number"] == 1
    path = _gen(capsys, tmp_path, "c41.json", "gen", "cycle", "--n", "41")
    code, out, err = _run(capsys, "zf", "min", path)
    assert code == 3 and out == "" and "limit" in err


def test_internal_error_exits_4(capsys, tmp_path, monkeypatch):
    path = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "3")

    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_export_dot", broken)
    code, out, err = _run(capsys, "export-dot", path)
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_usage_error_without_subcommand(capsys):
    assert _run(capsys)[0] == 2


def _module_env() -> dict[str, str]:
    """The environment with this package's source first on PYTHONPATH."""
    src = str(Path(forcing_lab.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, path)))}


def test_one_parser_prints_what_fresh_processes_print(capsys, monkeypatch):
    # The parser is built once per process; a bad command line and then good
    # ones, run in this process, print what each prints in a process of its
    # own, usage and help text included.
    monkeypatch.setenv("COLUMNS", "80")
    runs = [
        ["factor", "g.json", "--cycles", "--require-good"],
        ["gen", "cycle", "--n", "3"],
        ["zf", "nope", "g.json"],
        ["pd", "--help"],
        ["gen", "kautz", "--d", "3", "--D", "2"],
    ]
    for argv in runs:
        fresh = subprocess.run(
            [sys.executable, "-m", "forcing_lab", *argv],
            capture_output=True, text=True, env=_module_env(), timeout=60,
        )
        assert _run(capsys, *argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert cli.build_parser() is cli.build_parser()


def test_python_dash_m_runs_the_command_line(capsys):
    done = subprocess.run(
        [sys.executable, "-m", "forcing_lab", "verify", "de-bruijn"],
        capture_output=True, text=True, env=_module_env(), timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, out, _ = _run(capsys, "verify", "de-bruijn")
    assert code == 0 and done.stdout == out
    doc = json.loads(done.stdout)
    assert doc["suite"] == "de-bruijn" and doc["failed"] == 0 and doc["checks"]


def test_stdout_closed_early_exits_141_with_nothing_on_stderr():
    """The reader takes one byte and closes the pipe.  The document, about
    290 KB, outgrows the pipe, so the write fails inside ``main``."""
    with subprocess.Popen(
        [sys.executable, "-m", "forcing_lab", "gen", "de-bruijn", "--d", "2", "--D",
         "12"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    ) as proc:
        assert proc.stdout.read(1) == b"{"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


def test_dot_to_a_closed_stdout_exits_141(capsys, tmp_path):
    """The DOT text, about 130 KB, outgrows the pipe as the document does
    above."""
    path = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "12")
    with subprocess.Popen(
        [sys.executable, "-m", "forcing_lab", "export-dot", path],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_module_env(),
    ) as proc:
        assert proc.stdout.read(1) == b"d"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 141
    assert err == b""


def test_set_refuses_an_id_that_labels_another_vertex(capsys, tmp_path):
    path = tmp_path / "swapped.json"
    path.write_text(
        '{"n": 3, "arcs": [[0, 1], [1, 2], [2, 0]], "labels": ["1", "0", "2"]}'
    )
    code, out, err = _run(capsys, "zf", "closure", str(path), "--set", "1")
    assert code == 2 and out == ""
    assert err == (
        "error: --set token '1' is ambiguous: vertex id 1, "
        "or the label of vertex 0\n"
    )


def test_set_accepts_an_id_that_labels_itself(capsys, tmp_path):
    base = _gen(capsys, tmp_path, "c.json", "gen", "cycle", "--n", "3")
    same = str(tmp_path / "same.json")
    code, _, _ = _run(capsys, "line", base, "--iterate", "0", "-o", same)
    assert code == 0
    assert json.loads(open(same).read())["labels"] == ["0", "1", "2"]
    code, doc, err = _run_json(capsys, "zf", "closure", same, "--set", "1")
    assert code == 0 and doc["initial"] == [1]
    assert err == "closure of [1] colors 3/3 vertices in 2 rounds\n"


@pytest.mark.parametrize("bad", ["9", "-1", ","])
@pytest.mark.parametrize(
    "command", [("zf", "check"), ("pd", "closure"), ("pd", "construct-l")]
)
def test_bad_set_exits_2_with_nothing_on_stdout(capsys, tmp_path, command, bad):
    path = _gen(capsys, tmp_path, "b.json", "gen", "de-bruijn", "--d", "2", "--D", "3")
    code, out, err = _run(capsys, *command, path, "--set", bad)
    assert code == 2 and out == ""
    assert err.startswith("error: ")


GOLDEN = Path(__file__).resolve().parent / "golden"
# Two directed paths with sources 1 and 8, so both solvers return the
# witness {1, 8}, a frozenset that iterates as [8, 1]: an encoder that
# lists a frozenset without sorting it changes the stdout.
TWO_PATHS = [(1, 0), (0, 2), (2, 3), (3, 4), (8, 5), (5, 6), (6, 7), (7, 9)]


def _golden_inputs(capsys, tmp_path) -> dict[str, str]:
    return {
        "paths": _write_arcs(tmp_path, "paths.json", 10, TWO_PATHS),
        "mirror": _write_arcs(
            tmp_path, "mirror.json", 10, [(9 - u, 9 - v) for u, v in TWO_PATHS]
        ),
        "k2": _gen(capsys, tmp_path, "k2.json", "gen", "complete-loops", "--d", "2"),
        "k3": _gen(capsys, tmp_path, "k3.json", "gen", "complete-loops", "--d", "3"),
        "k32": _gen(capsys, tmp_path, "k32.json", "gen", "kautz", "--d", "3", "--D", "2"),
    }


GOLDEN_COMMANDS = {
    "zf-min": ("zf", "min", "{paths}"),
    "pd-min": ("pd", "min", "{paths}"),
    "rank-line-depth": ("rank", "{k2}", "--line-depth", "2"),
    "factor": ("factor", "{k3}"),
    "factor-require-good": ("factor", "{k32}", "--require-good"),
    "factor-cycles": ("factor", "{k3}", "--cycles"),
    "factor-cycles-k32": ("factor", "{k32}", "--cycles"),
    "iso": ("iso", "{paths}", "{mirror}"),
    "verify-de-bruijn": ("verify", "de-bruijn"),
    "verify-all": ("verify", "all"),
    "gen-de-bruijn": ("gen", "de-bruijn", "--d", "2", "--D", "3"),
    "line-iterate-2": ("line", "{k3}", "--iterate", "2"),
    "zf-closure": ("zf", "closure", "{paths}", "--set", "1,8"),
    "zf-construct": ("zf", "construct", "{k3}"),
    "pd-closure": ("pd", "closure", "{paths}", "--set", "1,8"),
    "pd-construct-l2": ("pd", "construct-l2", "{k3}"),
    "pd-construct-l": ("pd", "construct-l", "{k32}", "--set", "0"),
}


def _no_arc_set(g: Digraph) -> frozenset[tuple[int, int]]:
    raise AssertionError("the library read Digraph.arcs")


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_records_print_the_golden_stdout(capsys, monkeypatch, tmp_path, name):
    """Each record prints, byte for byte, the stdout in ``tests/golden``.

    The commands run ``verify all``, the three witness constructions, the
    1-factor and the cycle factorization with ``Digraph.arcs`` made to
    raise, since the library reads only the out- and in-tuples; the arc
    set is kept for callers outside it."""
    inputs = _golden_inputs(capsys, tmp_path)
    argv = [arg.format(**inputs) for arg in GOLDEN_COMMANDS[name]]
    monkeypatch.setattr(Digraph, "arcs", property(_no_arc_set))
    code, out, err = _run(capsys, *argv)
    assert code == 0, err
    assert out == (GOLDEN / f"{name}.out").read_text()


def test_encoder_refuses_an_unknown_type():
    assert cli._encode(frozenset({3, 1})) == [1, 3]
    with pytest.raises(TypeError, match="^Object of type complex is not JSON"):
        cli._encode(1j)


def test_golden_witness_does_not_iterate_in_ascending_order():
    witness = min_zero_forcing(Digraph(10, TWO_PATHS)).witness
    assert witness == {1, 8} and list(witness) != sorted(witness)
