"""Regenerate golden.json: SHA-256 of every CSV each cli-cold and pipeline-warm
menu entry writes, keyed by workload and entry id.

Usage (from the root of a qmasslab checkout): python3 bench/make_golden.py

Run it only on a commit whose CSVs are known good; the benchmark counts any
later mismatch as a failed op.  summary.json is skipped: it records a duration.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(1, str(ROOT / "src"))

import menus  # noqa: E402
from checks import GOLDEN, digests, fresh_dir  # noqa: E402
from ops import OPS  # noqa: E402


def main() -> int:
    out = ROOT / ".bench_work" / "golden"
    golden = {}
    for workload in ("cli-cold", "pipeline-warm"):
        call = OPS[workload][0]
        golden[workload] = {}
        for e in menus.MENUS[workload]:
            result = call(e, fresh_dir(out))
            passed = result == 0 if workload == "cli-cold" else result.passed
            if not passed:
                print(f"{workload} {e.id}: gate failed; no digest written", file=sys.stderr)
                return 1
            golden[workload][e.id] = digests(out)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
