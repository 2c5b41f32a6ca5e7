"""Command line front end: ``qmass-lab <scenario> --config file [options]``.

Exit codes: 0 all metrics pass, 1 metric failure, 2 bad input (usage, an
unreadable config, an ``InvalidConfigError``, a run too large for memory;
the ``doubleslit-map`` grid is streamed to its CSV, so only its axes are held),
3 any other ``QmassError``.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import sys

# ``import numpy`` starts OpenBLAS's thread pool, about a third of numpy's import
# time (on a 2-vCPU host, median 225 ms with the pool and 157 ms on one thread),
# and this package's small products only lose by threading.  A user's own value
# wins, and a process that loaded numpy before this module keeps its environment.
# A process that reaches this module before numpy was started for the command
# line, so it also freezes its heap at exit: the interpreter's shutdown
# collections then skip the ~21k objects its imports made (3.7-5.3 ms per full
# collection), and exit handlers, stdio flushes and module teardown still run.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    atexit.register(gc.freeze)

from .errors import InvalidConfigError, QmassError  # noqa: E402  (after the pin)
from .scenarios import SCENARIOS, run  # noqa: E402


def _parse_override(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise InvalidConfigError(f"--set expects key=value, got {text!r}")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except ValueError:  # not JSON, or an integer past Python's digit limit
        value = raw
    return key, value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmass-lab",
        description="Wave-interference mass laboratory: run a scenario and "
        "export CSV data plus a JSON verification summary.",
    )
    parser.add_argument("scenario", choices=SCENARIOS)
    parser.add_argument("--config", help="JSON file with scenario parameters")
    parser.add_argument("--out", default=".", help="output directory (default: cwd)")
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[], metavar="KEY=VALUE",
        help="override a single parameter; flags win over the config file",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    params: dict = {}
    try:
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    config = json.load(fh)
            except ValueError as exc:  # bad JSON or UTF-8, or an over-long integer
                raise InvalidConfigError(f"--config {args.config}: {exc}") from exc
            if not isinstance(config, dict):
                raise InvalidConfigError(
                    f"--config must hold a JSON object, got {type(config).__name__}")
            params.update(config)
        for item in args.overrides:
            key, value = _parse_override(item)
            params[key] = value
        summary = run(args.scenario, params, args.out)
    except (InvalidConfigError, OSError) as exc:
        print(f"qmass-lab: config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"qmass-lab: config error: {args.scenario} does not fit in memory: {exc}",
              file=sys.stderr)
        return 2
    except QmassError as exc:
        print(f"qmass-lab: {args.scenario}: {exc}", file=sys.stderr)
        return 3
    for m in summary.metrics:
        status = "PASS" if m.passed else "FAIL"
        print(
            f"{status} {m.name}: predicted={m.predicted:.9g} "
            f"measured={m.measured:.9g} rel_error={m.rel_error:.3g} "
            f"tol={m.tolerance:.3g} [{m.source}]"
        )
    print(f"{'PASS' if summary.passed else 'FAIL'} {summary.kind} "
          f"({summary.duration_s:.2f}s, files: {', '.join(summary.files) or 'none'})")
    return 0 if summary.passed else 1


if __name__ == "__main__":
    sys.exit(main())
