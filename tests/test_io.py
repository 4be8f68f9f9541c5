from __future__ import annotations

import json

import pytest

from forcing_lab.cli import main
from forcing_lab.digraph import Digraph
from forcing_lab.errors import DomainError
from forcing_lab.families import de_bruijn
from forcing_lab.io import (
    digraph_from_json_dict,
    digraph_to_json_dict,
    read_digraph,
    to_dot,
)


def _sample() -> Digraph:
    return Digraph(3, [(2, 0), (0, 1), (1, 1)], name="sample")


def test_dict_round_trip():
    g = _sample()
    doc = digraph_to_json_dict(g)
    back, labels = digraph_from_json_dict(doc)
    assert back == g and back.name == "sample"
    assert labels is None


def test_dict_arcs_are_sorted_lists():
    doc = digraph_to_json_dict(_sample())
    assert doc["arcs"] == [[0, 1], [1, 1], [2, 0]]


def test_labels_round_trip():
    g = Digraph(2, [(0, 1)])
    doc = digraph_to_json_dict(g, labels=["0-1", "1-2"])
    back, labels = digraph_from_json_dict(doc)
    assert back == g and labels == ["0-1", "1-2"]


def test_file_round_trip(tmp_path):
    path = tmp_path / "g.json"
    assert main(["gen", "de-bruijn", "--d", "2", "--D", "2", "-o", str(path)]) == 0
    text = path.read_text()
    assert text.endswith("\n")
    g, labels = read_digraph(path)
    assert g == de_bruijn(2, 2) and g.name == de_bruijn(2, 2).name
    assert labels is None


def test_unknown_key_named_in_error():
    doc = digraph_to_json_dict(_sample())
    doc["weight"] = 3
    with pytest.raises(DomainError, match="weight"):
        digraph_from_json_dict(doc)


def test_missing_n_rejected():
    with pytest.raises(DomainError):
        digraph_from_json_dict({"arcs": []})


def test_bad_arc_shape_rejected():
    with pytest.raises(DomainError, match="key 'arcs' is invalid"):
        digraph_from_json_dict({"n": 2, "arcs": [[0, 1, 2]]})
    with pytest.raises(DomainError, match="key 'arcs' is invalid"):
        digraph_from_json_dict({"n": 2, "arcs": [0]})


def test_out_of_range_arc_rejected():
    with pytest.raises(DomainError, match="key 'arcs' is invalid"):
        digraph_from_json_dict({"n": 2, "arcs": [[0, 5]]})


@pytest.mark.parametrize(
    ("entry", "message"),
    [
        ([0, 1, 2], r"arc must be a pair, got \[0, 1, 2\]"),
        ([0], r"arc must be a pair, got \[0\]"),
        (0, r"arc must be a pair, got 0"),
        (None, r"arc must be a pair, got None"),
        ({"tail": 0}, r"arc must be a pair, got \{'tail': 0\}"),
        ("01", r"arc '01' has endpoint outside 0\.\.1"),
        ([True, 0], r"arc \[True, 0\] has endpoint outside 0\.\.1"),
        ([0, 1.0], r"arc \[0, 1\.0\] has endpoint outside 0\.\.1"),
        ([0, "1"], r"arc \[0, '1'\] has endpoint outside 0\.\.1"),
        ([[0], 1], r"arc \[\[0\], 1\] has endpoint outside 0\.\.1"),
        ([0, 5], r"arc \[0, 5\] has endpoint outside 0\.\.1"),
        ([-1, 0], r"arc \[-1, 0\] has endpoint outside 0\.\.1"),
        ([0, 1], r"duplicate arc \(0, 1\)"),
    ],
)
def test_malformed_arc_entry_rejected(entry, message):
    # every entry follows a valid [0, 1], so a repeat of it is a duplicate
    doc = {"n": 2, "arcs": [[0, 1], entry]}
    with pytest.raises(DomainError, match=f"^key 'arcs' is invalid: {message}$"):
        digraph_from_json_dict(doc)


def test_arcs_must_be_a_list():
    with pytest.raises(DomainError, match="key 'arcs' must be a list"):
        digraph_from_json_dict({"n": 2, "arcs": {"0": 1}})


def test_wrong_label_count_rejected():
    with pytest.raises(DomainError):
        digraph_from_json_dict({"n": 2, "arcs": [[0, 1]], "labels": ["0-1"]})


def test_repeated_label_rejected():
    doc = {"n": 3, "arcs": [[0, 1], [1, 2]], "labels": ["a", "b", "b"]}
    with pytest.raises(DomainError, match=r"^key 'labels' repeats the label 'b'$"):
        digraph_from_json_dict(doc)
    doc["labels"] = ["a", "b", "c"]
    assert digraph_from_json_dict(doc)[1] == ["a", "b", "c"]


_NOT_STRINGS = "key 'labels' must be a list of strings"


@pytest.mark.parametrize(
    ("doc", "message"),
    [
        ({"n": 2}, "digraph document missing key 'arcs'"),
        ({"n": 0, "arcs": []}, "key 'n' must be a positive integer"),
        ({"n": True, "arcs": []}, "key 'n' must be a positive integer"),
        ({"n": "2", "arcs": []}, "key 'n' must be a positive integer"),
        ({"n": 2, "arcs": [], "name": 7}, "key 'name' must be a string"),
        ({"n": 2, "arcs": [], "labels": "ab"}, _NOT_STRINGS),
        ({"n": 2, "arcs": [], "labels": ["a", 1]}, _NOT_STRINGS),
    ],
)
def test_document_refusals_name_the_key(doc, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        digraph_from_json_dict(doc)


def test_writers_refuse_a_label_count_other_than_the_order():
    g = _sample()
    for write in (digraph_to_json_dict, to_dot):
        with pytest.raises(DomainError, match="^expected 3 labels, got 2$"):
            write(g, labels=["a", "b"])


def test_non_object_document_rejected():
    with pytest.raises(DomainError):
        digraph_from_json_dict([1, 2])


def test_dot_output_plain():
    text = to_dot(Digraph(3, [(0, 1), (2, 2)]))
    assert "digraph" in text
    assert "0 -> 1;" in text
    assert "2 -> 2;" in text


def test_dot_lists_isolated_vertices():
    text = to_dot(Digraph(2, [(0, 0)]))
    assert "1;" in text


def test_dot_labels_and_quoting():
    g = Digraph(2, [(0, 1)], name='needs "quotes"')
    text = to_dot(g, labels=["0-1", "1-0"])
    assert 'label="0-1"' in text
    assert '\\"quotes\\"' in text


def test_read_reports_offending_file(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises((DomainError, json.JSONDecodeError)):
        read_digraph(path)


def test_unreadable_file_is_domain_error(tmp_path):
    with pytest.raises(DomainError, match="cannot read"):
        read_digraph(tmp_path / "absent.json")
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe")
    with pytest.raises(DomainError, match="cannot read"):
        read_digraph(path)
