"""The README's examples answer as recorded: each `frobsplit ...` line of
its command-line block, run in-process through cli.main, prints the JSON in
readme_examples.json (timing_ms aside), and its library block runs."""

import json
import re
import shlex
from pathlib import Path

import pytest

from frobsplit.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()
RECORDED = json.loads((Path(__file__).parent / "readme_examples.json").read_text())


def _block(heading, language):
    return re.search(rf"## {heading}\n.*?```{language}\n(.*?)```", README, re.S).group(1)


COMMANDS = [line for line in _block("Command line", "sh").splitlines() if line.startswith("frobsplit ")]


def test_the_recording_holds_every_readme_command():
    assert [case["command"] for case in RECORDED] == COMMANDS and len(COMMANDS) == 9


@pytest.mark.parametrize("case", RECORDED, ids=[f"{i}-{case['command'].split()[1]}" for i, case in enumerate(RECORDED)])
def test_a_readme_command_prints_its_recorded_json(case, capsys):
    status = main(shlex.split(case["command"])[1:])
    report = json.loads(capsys.readouterr().out)
    del report["timing_ms"]
    assert (status, report) == (case["status"], case["report"])


def test_the_readme_library_example_runs():
    exec(_block("Library example", "python"), {})
