"""Traced cold CLI process: ``python3 perfbench/cli_child.py SPANS_PATH ARGV...``.

Times the import of frobsplit.cli, runs ``frobsplit.cli.main(ARGV)`` with
the tracer installed, writes the spans and counts to SPANS_PATH and exits
with the CLI's status.  The untraced cases run ``python3 -m frobsplit.cli``.
"""

import sys
import time


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    started = time.perf_counter()
    import frobsplit.cli

    import_s = time.perf_counter() - started
    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        return frobsplit.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path, import_s=import_s)


if __name__ == "__main__":
    raise SystemExit(main())
