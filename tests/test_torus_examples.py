"""The matrix torus answers as recorded: each `torus` command of
torus_examples.json, run in-process through cli.execute, gives the recorded
report (timing_ms aside).  The recording covers families A and C at r <= 4
over ell in {2, 3, 5, 7, 11, 13, 23, 101, 1009}, every descriptor whose
torus had at most 10^7 elements, and pins each torus generator entry by
entry."""

import json
from pathlib import Path

import pytest

from frobsplit.cli import execute, parse

RECORDED = json.loads((Path(__file__).parent / "torus_examples.json").read_text())


def test_the_recording_covers_both_families_and_every_rank():
    keys = {tuple(case["command"].split()[2:6:2]) for case in RECORDED}
    assert keys == {(family, str(r)) for family in "AC" for r in range(1, 5)} and len(RECORDED) == 62


@pytest.mark.parametrize("case", RECORDED, ids=[case["command"].replace(" --", "-").replace(" ", "") for case in RECORDED])
def test_a_torus_command_gives_its_recorded_report(case):
    report, status = execute(parse(case["command"].split()))
    del report["timing_ms"]
    assert (status, report) == (0, case["report"])
