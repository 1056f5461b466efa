"""Record a labelled result set: ``python3 perfbench/record.py --label NAME``.

Runs every workload untraced once per seed (seeds 1..10) and traced once
(seed 1), each with run_seconds of BENCHMARK.json, one process at a time,
and writes perfbench/results/BENCH_NAME.json with each end-to-end metric's
values, median, quartiles and the spread (q3 - q1) / median, plus the traced
per-layer metrics.  Before/after
comparisons cite two such files made with the same benchmark code.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys

from common import BENCH, WORKLOAD_MODULES, require_source, run_child

RUNS = 10


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    done = run_child(argv, timeout=900)
    if done.status != 0:
        raise SystemExit(f"perfbench: {' '.join(argv[1:])} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["report"] = lines[:-1]
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args()
    require_source()
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    out = {"label": args.label, "python": platform.python_version(), "machine": platform.machine(),
           "seconds": seconds, "workloads": {}}
    for workload in WORKLOAD_MODULES:
        runs = [_run(workload, seed, seconds, 0) for seed in range(1, RUNS + 1)]
        summary = {}
        for key in runs[0]["metrics"]:
            values = [r["metrics"][key]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            summary[key] = {
                "unit": runs[0]["metrics"][key]["unit"],
                "median": statistics.median(values),
                "q1": q1,
                "q3": q3,
                "spread": (q3 - q1) / statistics.median(values),
                "values": values,
            }
            print(f"{workload:14s} {key:14s} median {summary[key]['median']:.6g} "
                  f"spread {summary[key]['spread']:.4f}", flush=True)
        traced = _run(workload, 1, seconds, 1)
        out["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs) and traced["correct"],
            "end_to_end": summary,
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "traced_report": [line for line in traced["report"] if line.split(" ")[0] not in traced["metrics"]],
        }
    path = BENCH / "results" / f"BENCH_{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
