"""Run the committed mutation check: every mutant must fail its test.

    python3 mutants/run.py

The entries are in ``entries.py``, and every run applies all of them.
The run first looks each snippet up in ``src/`` and stops when one does
not occur exactly once.  It then copies ``src/`` to a temporary
directory and runs every selector there unchanged, which must pass.
Each of ``JOBS`` workers then takes its own copy and applies one entry at
a time: it writes the mutated file, runs ``python -m pytest -x`` on the
entry's selector against the copy, and restores the file.  A mutant is
caught when pytest reports a failed test (exit 1); an import or
collection error, or a run past ``TIMEOUT_S``, does not count.  The exit
code is 0 when every mutant is caught and 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from entries import MUTANTS, Mutant  # noqa: E402

TIMEOUT_S = 60
JOBS = 2  # the whole list runs in about 90 s on two cores


def _pytest(src: Path, tests: list[str]) -> tuple[int, str]:
    """Run ``tests`` from the repository root against the package in
    ``src``; no bytecode is written, so a restored file is never shadowed
    by the mutant's cached bytecode."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    try:
        done = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return -1, f"timed out after {TIMEOUT_S} s"
    lines = done.stdout.strip().splitlines()
    return done.returncode, lines[-1] if lines else done.stderr.strip()


def _copy(dest: Path) -> Path:
    shutil.copytree(SRC, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run_share(src: Path, share: list[Mutant]) -> list[tuple[Mutant, int, str, float]]:
    results = []
    for m in share:
        path = src / m.file
        original = path.read_text()
        path.write_text(original.replace(m.snippet, m.replacement))
        start = time.perf_counter()
        try:
            code, summary = _pytest(src, [m.test])
        finally:
            path.write_text(original)
        results.append((m, code, summary, time.perf_counter() - start))
    return results


def main() -> int:
    missing = []
    for m in MUTANTS:
        count = (SRC / m.file).read_text().count(m.snippet)
        if count != 1:
            missing.append(f"{m.name}: snippet occurs {count} times in src/{m.file}")
    if missing:
        print("\n".join(missing))
        return 1

    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copies = [_copy(Path(tmp) / f"w{i}") for i in range(JOBS)]
        selectors = list(dict.fromkeys(m.test for m in MUTANTS))
        code, summary = _pytest(copies[0], selectors)
        if code != 0:
            print(f"the selectors do not pass on the unchanged copy: {summary}")
            return 1
        shares = [MUTANTS[i::JOBS] for i in range(JOBS)]
        with ThreadPoolExecutor(JOBS) as pool:
            done = [r for rs in pool.map(_run_share, copies, shares) for r in rs]

    survivors = 0
    for m, code, summary, seconds in sorted(done, key=lambda r: MUTANTS.index(r[0])):
        caught = code == 1
        survivors += not caught
        verdict = "caught  " if caught else "SURVIVED"
        print(f"{verdict} {seconds:5.1f}s  {m.name}  [{m.test}]")
        if not caught:
            print(f"         pytest exit {code}: {summary}")
    print(
        f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants caught "
        f"in {time.perf_counter() - start:.1f} s with {JOBS} jobs"
    )
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
