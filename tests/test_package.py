from __future__ import annotations

import ast
from pathlib import Path

import forcing_lab


def test_public_names_resolve_once():
    names = forcing_lab.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(forcing_lab, name)]
    assert missing == []


def _imports(path: Path) -> set[tuple[str, str]]:
    """Each ``(module, name)`` that ``path`` imports, a relative import
    read inside ``forcing_lab``; ``import m`` gives the name ``*``."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update((alias.name, "*") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            package = "forcing_lab" if node.level else ""
            module = ".".join(filter(None, (package, node.module)))
            found.update((module, alias.name) for alias in node.names)
    return found


def _package_imports(path: Path) -> set[tuple[str, str]]:
    """The imports of ``path`` from ``forcing_lab``."""
    return {pair for pair in _imports(path) if pair[0].split(".")[0] == "forcing_lab"}


def test_only_cli_and_io_know_json():
    """Every stdout record is built in ``cli``, and ``io`` reads and writes
    the digraph document: no other module imports ``json``, and no class
    renders itself with a ``to_json_dict``."""
    package = Path(forcing_lab.__file__).parent
    importers, renderers = [], []
    for path in sorted(package.glob("*.py")):
        if any(module.split(".")[0] == "json" for module, _ in _imports(path)):
            importers.append(path.stem)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                renderers += [
                    f"{node.name}.{item.name}"
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and item.name == "to_json_dict"
                ]
    assert importers == ["cli", "io"]
    assert renderers == []


def test_the_oracles_import_only_what_they_state():
    """The exhaustive solvers share no code with the closure engine they
    check: ``solvers`` imports nothing from the package but ``digraph``
    and ``errors``, and the tests' naive closure nothing but ``Digraph``."""
    package = Path(forcing_lab.__file__).parent
    solver_modules = {module for module, _ in _package_imports(package / "solvers.py")}
    assert solver_modules == {"forcing_lab.digraph", "forcing_lab.errors"}
    oracles = Path(__file__).parent / "oracles.py"
    assert _package_imports(oracles) == {("forcing_lab.digraph", "Digraph")}


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
