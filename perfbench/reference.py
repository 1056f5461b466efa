"""The machine-speed reference: a fixed pure-Python loop that the benchmark
times alongside the program to scale its timings (see README.md).  It loads
nothing but ``signal`` and ``time``, so the cold CLI processes can run it too."""

import signal
import time

# Wall time of running items between two reference units.
INTERVAL_S = 0.025


def _reference_kernel(n: int):
    """A fixed pure-Python loop: small-integer arithmetic and list and dict
    updates, the kind of work the program's hot loops do."""
    row, table, acc = list(range(64)), {}, 0
    for i in range(n):
        a = (i * 2654435761) % 1000003
        row[i & 63] = (row[(i + 7) & 63] * a + acc) % 65521
        acc = (acc + row[i & 63]) & 0xFFFF
        table[(a & 255, i & 3)] = acc
    return acc, len(table)


def reference_unit() -> float:
    """Seconds one unit of the machine-speed reference takes now (about a
    quarter of a millisecond).  It runs benchmark code only, never the program's."""
    started = time.perf_counter()
    _reference_kernel(500)
    return time.perf_counter() - started


class Sampler:
    """Runs one reference unit every INTERVAL_S of the wall time during which
    it is started, from a SIGALRM interval timer in this process, and keeps
    the unit times.  Stopping keeps the timer's phase, so items shorter than
    the interval are sampled too, in proportion to their length."""

    def __init__(self):
        self.times = []
        self._delay = INTERVAL_S
        signal.signal(signal.SIGALRM, lambda signum, frame: self.times.append(reference_unit()))

    def start(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, self._delay, INTERVAL_S)

    def stop(self) -> None:
        delay, _ = signal.setitimer(signal.ITIMER_REAL, 0)
        self._delay = delay or INTERVAL_S  # a zero delay would leave the timer off
