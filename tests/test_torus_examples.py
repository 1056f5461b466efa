"""The matrix torus answers as recorded: each `torus` command of
torus_examples.json, run in-process through cli.execute, gives the recorded
report (timing_ms aside).  The recording covers families A and C at r <= 4
over ell in {2, 3, 5, 7, 11, 13, 23, 101, 1009}, every descriptor whose
torus had at most 10^7 elements, and pins each torus generator entry by
entry.  Past r = 4, seven higher-rank tori are pinned by the sha256 of
their canonical report (sorted keys, no spaces, timing_ms dropped),
recorded at commit 4fb8573; the two largest are slow-marked."""

import hashlib
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


HIGH_RANK = {
    "torus --family C --r 5 --ell 3": "6cb553353e3662d615ad824770437cb3af54c3c62d897f29d3b8d0ab3335eeb1",
    "torus --family C --r 9 --ell 11": "e7ff30054ad3e4ad2b31535f033fc2e58627b0a88407be45337062d8cca540a5",
    "torus --family A --r 6 --ell 5": "7e453dd8b07ddbd70b7a924a77c4c6595c215bd061e5825d42e9835d40cd6851",
    "torus --family A --r 11 --ell 3": "42ea24a4dc880f2803e9f58c87959b987224b5a2cc52cdff52b49d7af1c6c9b0",
    "torus --family A --r 12 --ell 3": "ab858015707dac85cd1bea5d2b77e5070a10d9d7fb834d776b4434ee4d61ff1c",
    "torus --family C --r 10 --ell 3": "f20e99185f729d3b9a71bbd596e1e158c8f4d327ac44b91e685ae03756ccb088",
    "torus --family A --r 20 --ell 3": "1265ee594156d531f2d2f29f2fbf97b91747470f2a95873f713704439b47bc27",
}
SLOW = {"torus --family C --r 10 --ell 3", "torus --family A --r 20 --ell 3"}


@pytest.mark.parametrize(
    "command",
    [pytest.param(command, marks=pytest.mark.slow) if command in SLOW else command for command in HIGH_RANK],
    ids=lambda command: command.replace(" --", "-").replace(" ", ""),
)
def test_a_high_rank_torus_command_gives_its_recorded_digest(command):
    report, status = execute(parse(command.split()))
    del report["timing_ms"]
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    assert (status, hashlib.sha256(canonical.encode()).hexdigest()) == (0, HIGH_RANK[command])
