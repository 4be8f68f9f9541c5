"""The committed mutant list stays in step with the code and the tests.

``mutants/run.py`` applies every entry and runs its selector, which takes
tens of seconds.  These checks only read files, so a change that rewrites
a mutated line or renames a selected test fails here at once.
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _mutants() -> list:
    spec = importlib.util.spec_from_file_location(
        "mutant_entries", ROOT / "mutants" / "entries.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


def test_every_snippet_occurs_once_in_its_file():
    for m in _mutants():
        assert (ROOT / "src" / m.file).read_text().count(m.snippet) == 1, m.name


def test_every_selector_names_a_test_file_and_a_def_in_it():
    for m in _mutants():
        for selector in m.test.split():
            path, _, name = selector.partition("::")
            test_file = ROOT / path
            assert test_file.is_file(), m.name
            if name:
                pattern = rf"^def {re.escape(name)}\("
                assert re.search(pattern, test_file.read_text(), re.MULTILINE), m.name
