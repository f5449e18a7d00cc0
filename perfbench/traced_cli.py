"""Run one ``crossover`` command with spans installed, then write the spans.

    python3 perfbench/traced_cli.py SPANS.json <crossover arguments>

The traced cli-analyst run starts this in a fresh interpreter in place of
``python -m crossover.cli``; the exit code is the command's own.
"""

import sys

import crossover.cli

from tracing import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        return crossover.cli.main(argv)
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
