"""The acceptance gate: every headline criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all).
Every tolerance here is exact: the library is integer/rational arithmetic
throughout, so equality means equality.

``golden/check_all_full.json`` holds the (name, ok, cases, detail) of each
criterion under ``check-all --profile full``.  Every result must match it, so
a change that alters what a criterion checks, or how many cases it counts,
shows up here rather than in a hand diff of the command's output.
"""

import json
import pathlib

import pytest

from mwslice.checks import CRITERIA, _Run

GOLDEN = {
    entry["name"]: entry
    for entry in json.loads(
        (pathlib.Path(__file__).parent / "golden" / "check_all_full.json").read_text(encoding="utf-8")
    )
}


def test_every_criterion_has_a_golden_result():
    assert sorted(GOLDEN) == sorted(label.split(" ", 1)[1] for label, _ in CRITERIA)


@pytest.mark.parametrize("label,check", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_acceptance_criterion(label, check):
    result = check(_Run(label, "full"))
    print(result.line())
    assert result.ok, result.line()
    got = {"name": result.name, "ok": result.ok, "cases": result.cases, "detail": result.detail}
    assert got == GOLDEN[result.name]
