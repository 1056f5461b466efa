"""cli-cases: every item is a fresh ``frobsplit`` process, as a desk user runs it.

Caches are cold and interpreter start and import are counted.  An untraced
case runs under cli_sampled.py, which also times the speed reference inside
the case process.  The case list and its references are in cli_cases.json;
the seed only sets the order in which the cases run.

A case's answer is checked in three ways:
* ``facts``: values stated in the README or given by closed forms (dotted
  paths into the result);
* ``result``: the result recorded from the program with ``timing_ms`` left
  out.  Fields in ``ignored_fields`` are provenance, not answers; a null
  recorded field was not computed then, so any value there is accepted;
* ``exit`` 3: the case ended in BudgetExceeded when recorded.  If it later
  answers (exit 0) it counts as answered but unverified, never as wrong.
"""

from __future__ import annotations

import json
import random
import sys

from common import BENCH, OUT, run_child
from spans import layer_totals

CASES_FILE = BENCH / "cli_cases.json"
ATTRIBUTION_CASE = "torus-C1-1009"

# Timed passes per run, and set-up probes spread over them.
PASSES = 4
SETUP_PROBES = 13
# Cases that run in fewer timed passes than PASSES (by default a case runs in
# all of them).  One run of a long case already spans seconds of the
# machine's ups and downs; the short cases, which interpreter start and
# import dominate, need more runs.  A run of all timed passes takes about 28 s.
CASE_PASSES = {"torus-C1-1009": 1, "density-A2-5": 2, "readme-goursat": 2, "torus-C2-13": 2, "torus-C3-5": 2}
SETUP_CODE = "import frobsplit.cli"


def _lookup(payload, dotted: str):
    for key in dotted.split("."):
        payload = payload[int(key)] if isinstance(payload, list) else payload[key]
    return payload


class CliCases:
    cold = True

    def __init__(self, seed: int, state):
        data = json.loads(CASES_FILE.read_text())
        self.ignored = set(data["ignored_fields"])
        self.items = list(data["cases"])
        random.Random(seed).shuffle(self.items)
        self.spans_path = OUT / "cli_child_spans.json"
        self.samples_path = OUT / "cli_ref_samples.txt"

    def timed_passes(self, case) -> int:
        return CASE_PASSES.get(case["id"], PASSES)

    def run(self, case, traced: bool):
        if traced:
            argv = [sys.executable, "perfbench/cli_child.py", str(self.spans_path), *case["argv"]]
        else:
            argv = [sys.executable, "perfbench/cli_sampled.py", str(self.samples_path), *case["argv"]]
            self.samples_path.unlink(missing_ok=True)
        done = run_child(argv)
        try:
            report = json.loads(done.stdout)
            report.pop("timing_ms", None)
        except json.JSONDecodeError:
            report = None
        child_trace = json.loads(self.spans_path.read_text()) if traced else None
        ref_times = ()
        if not traced and self.samples_path.exists():
            ref_times = [float(t) for t in self.samples_path.read_text().split()]
        output = (done.status, report, "Traceback" in done.stderr)
        return output, child_trace, done.maxrss_kb, ref_times

    def check(self, case, output) -> str:
        status, report, traceback = output
        if traceback or report is None or status not in (0, 3):
            return f"wrong: exit {status}, traceback={traceback}"
        if status == 3:
            if report.get("error", {}).get("type") != "BudgetExceeded":
                return "wrong: exit 3 without BudgetExceeded"
            return "budget"
        result = report.get("result")
        if result is None:
            return "wrong: exit 0 without a result"
        for path, expected in case.get("facts", {}).items():
            try:
                got = _lookup(result, path)
            except (KeyError, IndexError, TypeError):
                got = None
            if got != expected:
                return f"wrong: {path} = {got!r}, expected {expected!r}"
        if case["exit"] == 3:
            return "unverified"
        for key, expected in case["result"].items():
            if key in self.ignored or expected is None:
                continue
            if result.get(key) != expected:
                return f"wrong: result field {key} differs from the recorded answer"
        return "ok"

    def final_checks(self):
        return []

    def attribution(self, case, child_trace) -> str | None:
        """The one known fact the trace must reproduce: a cold
        ``torus --family C --r 1 --ell 1009`` spends most of its time in
        normalizer_census (the GF(1009) packed tables are built before the
        budget check raises), not in the torus count (torus_census self time)."""
        if case["id"] != ATTRIBUTION_CASE:
            return None
        spans = child_trace["spans"]
        total = sum(s[2] - s[1] for s in spans if s[0] == "cli.torus")
        normalizer = sum(s[2] - s[1] for s in spans if s[0] == "groups.normalizer_census")
        count = layer_totals(spans).get("groups.torus_census", (0, 0.0, 0))[1]
        verdict = "PASS" if normalizer > total / 2 and normalizer > count else "FAIL"
        return (
            f"attribution {verdict}: {ATTRIBUTION_CASE}: normalizer_census {normalizer:.2f} s "
            f"of {total:.2f} s in cli.torus; torus count {count:.2f} s"
        )


WORKLOAD = CliCases
