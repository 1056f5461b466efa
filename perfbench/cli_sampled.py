"""Untraced cold CLI process: ``python3 perfbench/cli_sampled.py SAMPLES_PATH ARGV...``.

Runs ``frobsplit.cli.main(ARGV)``, import included, as ``python3 -m
frobsplit.cli ARGV`` would, while a reference.Sampler runs the speed
reference in this process.  Writes the unit times to SAMPLES_PATH and exits
with the CLI's status.  Only the reference module is loaded before the
program.
"""

import sys

from reference import Sampler


def main() -> int:
    samples_path, argv = sys.argv[1], sys.argv[2:]
    sampler = Sampler()
    sampler.start()
    try:
        import frobsplit.cli

        return frobsplit.cli.main(argv)
    finally:
        sampler.stop()
        with open(samples_path, "w") as fh:
            fh.write(" ".join(repr(t) for t in sampler.times))


if __name__ == "__main__":
    raise SystemExit(main())
