"""Acceptance gate: one test per criterion, printing one PASS/FAIL line
each, running every closed-form claim against its independent oracle.

One criterion runs on a reduced grid: ``pd-identity`` leaves out the
3-regular order-4 classes.  Its details say exactly what was skipped, and
``tests/test_fort_cover.py`` checks every cut instance with the integer
program.  Everything actually run must pass exactly.
"""

from __future__ import annotations

import pytest

from forcing_lab.verify import SUITES, run_suite

_CRITERIA = [
    (
        1,
        "line-zf",
        2,
        "fort-cover Z(L(G)) equals |A(G)|-|V(G)| and the constructed "
        "witness is a verified minimum on 100 seeded random digraphs "
        "with out-degree >= 2 and in-degree >= 1 (exact)",
    ),
    (
        2,
        "de-bruijn",
        7,
        "Z(B(2,2))=2, Z(B(2,3))=4, Z(B(3,2))=6 and power domination "
        "numbers 1, 2, 2 by fort cover; mr(B(2,3))=4 and max nullity 4 "
        "by exact rank (exact)",
    ),
    (
        3,
        "kautz",
        4,
        "Z(K(3,3))=24 by the in-twin fort bound met by a verified "
        "witness, mr(K(3,3))=12 by exact 36x36 rank, power domination "
        "number 8 by a constructed set and ceil(Z / max out-degree), no "
        "solver (exact)",
    ),
    (
        4,
        "gen-families",
        3,
        "GB(2,6) and GK(2,6) are isomorphic to the line digraphs of "
        "GB(2,3) and GK(2,3); Z(GB(2,12))=6 by fort cover (exact)",
    ),
    (
        5,
        "wrapped-butterfly",
        4,
        "WB(2,2) is isomorphic to L(K_2 (x) C_2); Z=4 by fort cover; "
        "mr=4 by exact rank; the fort-cover power domination value is "
        "produced and compared with the claimed 2(d-1) (exact)",
    ),
    (
        6,
        "gimbert",
        1,
        "exact adjacency rank of L(G) equals |V(L(G))|/d for 20 random "
        "d-regular digraphs, d in {2,3}, order <= 6 (exact)",
    ),
    (
        7,
        "nullity-collapse",
        1,
        "adjacency nullity of L^k(G) equals fort-cover Z(L^k(G)) for "
        "regular classes, d in {2,3}, order <= 4, k in {1,2}, the "
        "3-regular depth-2 iterates of order 27 and 36 included (exact)",
    ),
    (
        8,
        "pd-zf-bridge",
        1,
        "S power dominates G exactly when N+[S] is a zero forcing set, "
        "200 random (G,S) pairs with and without loops (exact)",
    ),
    (
        9,
        "cycle-factorization",
        1,
        "20 random d-regular digraphs split into exactly d 1-factors "
        "whose arc sets partition the arcs (exact)",
    ),
    (
        10,
        "sandwich",
        1,
        "Z >= power domination number >= ceil(Z / max out-degree) on "
        "every instance where both numbers were found by fort cover (exact)",
    ),
    (
        11,
        "pd-identity",
        1,
        "fort-cover power domination of L^2(G) equals fort-cover "
        "Z(L(G)) for regular classes, d in {2,3}, order <= 4; the "
        "3-regular order-4 case is cut and is skipped "
        "(exact on everything run)",
    ),
]


def test_criteria_cover_each_suite_once():
    # the rows above are the suites of `verify all`, in order, with its
    # 26 checks; this runs no suite
    assert [suite for _, suite, _, _ in _CRITERIA] == list(SUITES)
    assert sum(checks for _, _, checks, _ in _CRITERIA) == 26


@pytest.mark.parametrize(
    "number,suite,checks,description",
    _CRITERIA,
    ids=[f"{number:02d}-{suite}" for number, suite, _, _ in _CRITERIA],
)
def test_criterion(number: int, suite: str, checks: int, description: str):
    results = run_suite(suite)
    assert len(results) == checks, f"criterion {number} ran {len(results)} checks"
    passed = all(result.passed for result in results)
    print(f"{'PASS' if passed else 'FAIL'} criterion {number}: {description}")
    for result in results:
        marker = "ok" if result.passed else "FAIL"
        print(f"  {marker} {result.label}: {result.details}")
    failing = [result.label for result in results if not result.passed]
    assert passed, f"criterion {number} failing checks: {failing}"
