"""Helpers shared by the benchmark modules: where the source tree is, how a
child process is run and timed, and the order statistics the report uses."""

from __future__ import annotations

import math
import os
import select
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Longest a single child process may run before it is killed and counted wrong.
CHILD_TIMEOUT_S = 150.0

# Workload name -> the module that defines it: ``WORKLOAD``, ``program_setup``
# (warm workloads), ``PASSES``, ``SETUP_PROBES`` and ``SETUP_CODE``.
WORKLOAD_MODULES = {"cli-cases": "cli_cases", "certify-sweep": "certify", "weil-batch": "weilbatch"}


def require_source() -> None:
    """Exit with an error, printing no result, unless the checkout holds the
    frobsplit sources; the benchmark always measures the tree it sits in."""
    if not (SRC / "frobsplit" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no frobsplit source tree under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict:
    env = dict(os.environ)
    parts = [str(SRC)]
    if env.get("PYTHONPATH"):
        parts.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(parts)
    return env


@dataclass(frozen=True)
class ChildResult:
    status: int  # exit code; negative when killed by a signal
    stdout: str
    stderr: str
    wall_s: float  # spawn to reap
    maxrss_kb: int  # peak resident set of this child alone


def run_child(argv, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion and reap it with wait4, which gives its own
    peak RSS.  Output goes to files so a chatty child can never block."""
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"child-{os.getpid()}.stdout", OUT / f"child-{os.getpid()}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        pidfd = os.pidfd_open(proc.pid)
        try:
            ready, _, _ = select.select([pidfd], [], [], timeout)
            if not ready:
                proc.kill()
        except BaseException:
            proc.kill()
            raise
        finally:
            _, wstatus, usage = os.wait4(proc.pid, 0)
            os.close(pidfd)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    stdout, stderr = out_path.read_text(errors="replace"), err_path.read_text(errors="replace")
    out_path.unlink()
    err_path.unlink()
    return ChildResult(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


def nearest_rank(values, p: float) -> float:
    """The p-quantile as an observed sample (nearest-rank definition)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]
