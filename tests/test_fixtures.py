"""Regression pins for `probqos check` on the shipped fixture files.

Each fixture profile is checked against each fixture requirement at the
default --samples and --seed; the exit code, verdict and witness are pinned.
"""

import json
from pathlib import Path

import pytest

from probqos.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
REQUIREMENTS = ("box_band", "conjunction", "good_min", "two_scenario", "unbounded")

SAT, VIOL = ("satisfied", {}), ("violated", None)
EXPECTED = {
    "a": (SAT, VIOL, VIOL, VIOL, None),
    "b": (VIOL, SAT, SAT, ("satisfied", {"p1": True, "p2": False}), None),
    "c": (SAT, VIOL, VIOL, VIOL, None),
    "d": (VIOL, VIOL, VIOL, ("satisfied", {"p1": False, "p2": True}), None),
}
CASES = [(s, r, expected) for s, row in EXPECTED.items()
         for r, expected in zip(REQUIREMENTS, row)]


@pytest.mark.parametrize("service,requirement,expected", CASES,
                         ids=[f"{s}-{r}" for s, r, _ in CASES])
def test_check_fixture(capsys, service, requirement, expected):
    code = main(["check", str(FIXTURES / "profiles" / f"service_{service}.json"),
                 str(FIXTURES / "requirements" / f"{requirement}.qreq"), "--json"])
    out = capsys.readouterr().out
    if expected is None:  # the unbounded region is rejected before any check
        assert (code, out) == (12, "")
        return
    verdict, witness = expected
    doc = json.loads(out)
    assert code == (0 if verdict == "satisfied" else 1)
    assert (doc["verdict"], doc["witness"]) == (verdict, witness)


def test_select_ranks_by_binding_bounds(capsys):
    # service_b's second estimate is 0 against [_, 0.3]: its margin is 0.3,
    # not the distance to the absent lower bound 0
    code = main(["select", str(FIXTURES / "profiles"),
                 str(FIXTURES / "requirements" / "conjunction.qreq"), "--seed", "7",
                 "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [row["service_id"] for row in doc["all_services"]] == [
        "service_b", "service_d", "service_a", "service_c"]
    assert doc["selected"][0]["constraints"][1]["margin"] == pytest.approx(0.3)
