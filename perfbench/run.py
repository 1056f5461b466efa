"""frobsplit benchmark: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1`` from the root of a checkout.

One closed-loop client runs the workload's items back to back in whole
passes: the workload's fixed number of timed passes, then more, untimed but
checked, until S seconds have gone by.  Every answer is checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` every item runs once
untraced and once traced, the per-layer metrics come from the traced runs
and the spans are written to perfbench/out/.  ``--workload all`` runs every
workload in turn.  README.md in this directory describes the workloads and
which layer metric should move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from collections import Counter

from common import OUT, ROOT, WORKLOAD_MODULES, nearest_rank, require_source, run_child
from reference import Sampler
from spans import PER_LAYER_UNITS, Tracer, layer_metrics, layer_totals, merge_totals

# The time of one reference unit at the reference speed that timings are
# scaled to, and the fewest units inside an item's timed runs that give the
# item a scale of its own (see README.md).
REF_NOMINAL_S = 0.00025
MIN_ITEM_UNITS = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "answered_frac": "frac",
    "peak_rss_mb": "MB",
}


def _setup_probe(module) -> float:
    """Spawn-to-exit time of a fresh process that runs only the program
    set-up, ``python3 -c SETUP_CODE``; it imports nothing of the benchmark."""
    done = run_child([sys.executable, "-c", module.SETUP_CODE])
    if done.status != 0:
        raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
    return done.wall_s


class Run:
    """Measurement state of one benchmark run.

    Only the first ``passes`` passes are timed, so every commit gets the same
    number of samples; set-up probes run at ``probe_at``, evenly spaced item
    positions over those passes, so they see the same machine as the items.
    The speed reference runs inside every timed untraced item: in this
    process (``sampler``) or, for a cold workload, in the item's own
    process.  Each item keeps the unit times (``item_refs``)."""

    def __init__(self, traced: bool, n_items: int, passes: int, probes: int, cold: bool):
        self.traced = traced
        self.passes = passes
        total = passes * n_items
        self.probe_at = set() if traced else {k * total // probes for k in range(probes)}
        self.sampler = None if traced or cold else Sampler()
        self.setup_times = []
        self.item_refs = [[] for _ in range(n_items)]
        self.times = ([[] for _ in range(n_items)], [[] for _ in range(n_items)])  # untraced, traced
        self.outcomes = Counter()
        self.problems = []
        self.mismatches = 0
        self.child_rss_kb = 0
        self.slices = []  # per traced pass: (layer totals, counts)
        self.child_imports = []
        self.child_traces = []
        self.notes = []

    def mean_times(self, times):
        """Each item's mean time over the timed passes it ran in."""
        return [statistics.fmean(t) for t in times]

    def scales(self):
        """The factors that bring measured times to the reference speed: one
        for the run, from every reference unit timed in it, and one per item,
        from the units that ran inside the item (the run's factor for an
        item with fewer than MIN_ITEM_UNITS)."""
        run_scale = REF_NOMINAL_S / statistics.fmean(t for r in self.item_refs for t in r)
        return run_scale, [
            REF_NOMINAL_S / statistics.fmean(r) if len(r) >= MIN_ITEM_UNITS else run_scale for r in self.item_refs
        ]


def measure(name: str, seed: int, seconds: float, traced: bool):
    module = importlib.import_module(WORKLOAD_MODULES[name])
    cold = module.WORKLOAD.cold  # items are child processes; this process never imports the program
    tracer = None
    import_s = None
    state = None
    if not cold:
        started = time.perf_counter()
        import frobsplit.cli  # noqa: F401

        import_s = time.perf_counter() - started
        if traced:
            tracer = Tracer()
            tracer.item = ("setup",)
            tracer.install()
        try:
            state = module.program_setup()
        finally:
            if tracer:
                tracer.uninstall()
    setup_counts = Counter(tracer.counts) if tracer else Counter()
    workload = module.WORKLOAD(seed, state)
    run = Run(traced, len(workload.items), 1 if traced else module.PASSES, module.SETUP_PROBES, cold)

    loop_start = time.perf_counter()
    p = 0
    while p < run.passes or time.perf_counter() - loop_start < seconds:
        _one_pass(run, workload, tracer, p, module)
        p += 1

    errors = workload.final_checks()
    wrong = sum(n for k, n in run.outcomes.items() if k.startswith("wrong"))
    attempted = sum(run.outcomes.values())
    lines = [
        f"workload {name}  seed {seed}  passes {p} ({run.passes} timed)  items per pass {len(workload.items)}  "
        f"traced {int(traced)}",
        "outcomes " + ", ".join(f"{k}: {n}" for k, n in sorted(run.outcomes.items())),
    ]
    lines += [f"problem: {msg}" for msg in run.problems[:10]]
    lines += [f"final check failed: {msg}" for msg in errors]
    lines += run.notes

    if traced:
        setup_totals = layer_totals(tracer.spans, lambda item: item == ("setup",)) if tracer else {}
        per_pass = []
        for totals, counts in run.slices:
            merge_totals(totals, setup_totals)
            per_pass.append(layer_metrics(totals, counts + setup_counts))
        metrics = {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
        metrics["cli.import_s"] = import_s if import_s is not None else statistics.median(run.child_imports)
        metrics["trace.overhead_frac"] = sum(run.mean_times(run.times[1])) / sum(run.mean_times(run.times[0])) - 1
        if run.mismatches:
            lines.append(f"traced outputs differ from untraced outputs on {run.mismatches} items")
        OUT.mkdir(exist_ok=True)
        spans_file = OUT / f"spans-{name}-seed{seed}.json"
        with open(spans_file, "w") as fh:
            json.dump(tracer.spans if tracer else run.child_traces, fh)
        lines.append(f"spans written to {spans_file.relative_to(ROOT)}")
        units = PER_LAYER_UNITS
    else:
        own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        answered = run.outcomes["ok"] + run.outcomes["unverified"]
        run_scale, item_scales = run.scales()
        means = run.mean_times(run.times[0])
        scaled = [m * k for m, k in zip(means, item_scales)]
        measured_setup = statistics.median(run.setup_times)
        metrics = {
            "setup_s": measured_setup * run_scale,
            "wall_s": sum(scaled),
            "item_p50_ms": 1000 * nearest_rank(scaled, 0.5),
            "item_p90_ms": 1000 * nearest_rank(scaled, 0.9),
            "answered_frac": answered / attempted,
            "peak_rss_mb": max(own_kb, run.child_rss_kb) / 1024,
        }
        lines.append(f"wrong_frac {wrong / attempted:.4f} frac  (must be 0)")
        lines.append(f"latency samples {len(means)} items, each the mean of its timed passes (at most {run.passes})")
        lines.append(f"setup_s is the median of {len(run.setup_times)} set-up probes")
        lines.append(
            f"speed reference: {sum(map(len, run.item_refs))} units; "
            f"run scale {run_scale:.4f}, item scales {min(item_scales):.4f}..{max(item_scales):.4f}"
        )
        lines.append(
            f"measured, not scaled: setup_s {measured_setup:.6g} s, wall_s {sum(means):.6g} s, "
            f"item_p50_ms {1000 * nearest_rank(means, 0.5):.6g} ms, item_p90_ms {1000 * nearest_rank(means, 0.9):.6g} ms"
        )
        units = END_TO_END_UNITS
    lines += [f"{key} {metrics[key]:.6g} {unit}" for key, unit in units.items()]
    result = {
        "correct": wrong == 0 and not errors and run.mismatches == 0,
        "attempted": attempted,
        "failed": wrong,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    return result, lines


def _one_pass(run: Run, workload, tracer, p: int, module) -> None:
    modes = (False, True) if run.traced else (False,)
    totals, counts = {}, Counter()
    before = Counter(tracer.counts) if tracer else None
    for i, item in enumerate(workload.items):
        if p * len(workload.items) + i in run.probe_at:
            run.setup_times.append(_setup_probe(module))
        if not run.traced and p < run.passes and p >= workload.timed_passes(item):
            continue
        outputs = []
        for traced in modes:
            if tracer and traced:
                tracer.item = (p, i)
                tracer.install()
            child_trace = None
            sampled = run.sampler is not None and p < run.passes
            first_unit = len(run.sampler.times) if sampled else 0
            started = time.perf_counter()
            if sampled:
                run.sampler.start()
            try:
                output, child_trace, rss_kb, ref_times = workload.run(item, traced)
                outcome = None
            except Exception as exc:  # any failure of the program is a wrong answer, not a crash
                output, rss_kb, ref_times = repr(exc), 0, ()
                outcome = "budget" if type(exc).__name__ == "BudgetExceeded" else f"wrong: raised {exc!r}"
            finally:
                if sampled:
                    run.sampler.stop()
                    ref_times = run.sampler.times[first_unit:]
                elapsed = time.perf_counter() - started
                if tracer and traced:
                    tracer.uninstall()
            if p < run.passes:  # later passes are checked, not timed
                # Reference units run inside the item are not the program's time.
                run.times[traced][i].append(elapsed - sum(ref_times))
                run.item_refs[i].extend(ref_times)
            outcome = outcome or workload.check(item, output)
            run.outcomes[outcome.split(":")[0]] += 1
            if outcome.startswith("wrong"):
                run.problems.append(f"pass {p} item {i}: {outcome}")
            run.child_rss_kb = max(run.child_rss_kb, rss_kb)
            if child_trace is not None:
                merge_totals(totals, layer_totals(child_trace["spans"]))
                counts.update(child_trace["counts"])
                run.child_imports.append(child_trace["import_s"])
                run.child_traces.append({"pass": p, "item": i, **child_trace})
                note = workload.attribution(item, child_trace)
                if note:
                    run.notes.append(note)
            outputs.append(output)
        if run.traced and outputs[0] != outputs[1]:
            run.mismatches += 1
            run.problems.append(f"pass {p} item {i}: traced output differs from untraced")
    if run.traced:
        if tracer:
            totals = layer_totals(tracer.spans, lambda item: item is not None and item[0] == p)
            counts = tracer.counts - before
        run.slices.append((totals, counts))


def run_all(args) -> int:
    """Every workload in turn, each in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_MODULES:
        argv = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = run_child(argv, timeout=900)
        print(done.stdout, end="")
        if done.status != 0:
            print(done.stderr, file=sys.stderr)
            return done.status or 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOAD_MODULES, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_source()
    if args.workload == "all":
        return run_all(args)
    result, lines = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
