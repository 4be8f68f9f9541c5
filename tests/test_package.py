from __future__ import annotations

import ast
from pathlib import Path

import forcing_lab


def test_public_names_resolve_once():
    names = forcing_lab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forcing_lab, name)]
    assert missing == []


def test_only_cli_and_io_know_json():
    """Every stdout record is built in ``cli``, and ``io`` reads and writes
    the digraph document: no other module imports ``json``, and no class
    renders itself with a ``to_json_dict``."""
    package = Path(forcing_lab.__file__).parent
    importers, renderers = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            if any(m.split(".")[0] == "json" for m in modules):
                importers.append(path.stem)
            if isinstance(node, ast.ClassDef):
                renderers += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"
                ]
    assert sorted(set(importers)) == ["cli", "io"]
    assert renderers == []


def test_only_the_rank_input_checks_itself_after_init():
    """Each result is checked in one place, never again by the record that
    holds it: ``ExactMatrix``, ``rank_exact``'s input type, is the one
    class with a ``__post_init__`` (``Digraph`` checks its input in
    ``__init__``)."""
    package = Path(forcing_lab.__file__).parent
    checked = [
        f"{path.stem}.{node.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(item, ast.FunctionDef) and item.name == "__post_init__"
            for item in node.body
        )
    ]
    assert checked == ["linalg.ExactMatrix"]
