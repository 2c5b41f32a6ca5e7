"""Traced launch of the ``qmass-lab`` console script, for cli-cold trace runs.

Usage: python3 bench/cli_child.py SPANS_FILE [qmass-lab arguments...]

Calls ``qmasslab.cli.main`` with the arguments, as the console script does,
with the traced functions patched, writes the spans to SPANS_FILE and exits
with main's return code.
"""

import sys

import tracing


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    from qmasslab import cli

    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.patched(), tracer.span("cli.main"):
        code = cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
