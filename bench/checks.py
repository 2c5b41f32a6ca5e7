"""Output checks shared by run.py and its workload interpreters.

Standard library only, so run.py never imports qmasslab.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden.json")


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text())


def digests(out: Path) -> dict[str, str]:
    """SHA-256 of every data file in ``out``; summary.json records a duration, so is skipped."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "summary.json"
    }


def fresh_dir(out: Path) -> Path:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


#: Margin of an op that raised, exited non-zero or missed a zero tolerance.
FAILED_MARGIN = -1.0


def margin_of(rel_error: float, tolerance: float) -> float:
    if rel_error == 0.0:
        return 1.0
    return 1.0 - rel_error / tolerance if tolerance > 0 else FAILED_MARGIN


def _rel(measured: float, predicted: float) -> float:
    if predicted == 0.0:
        return abs(measured)
    return abs(measured - predicted) / abs(predicted)


def check_closed_forms(pairs) -> tuple[bool, float, str]:
    """``pairs`` of (name, measured, predicted, tolerance); all must hold."""
    margin, bad = math.inf, []
    for name, measured, predicted, tol in pairs:
        rel = _rel(float(measured), float(predicted))
        margin = min(margin, margin_of(rel, tol))
        if not rel <= tol:
            bad.append(f"{name}: rel_error {rel:.3g} > {tol:.3g}")
    return not bad, margin, "; ".join(bad)


def check_exports(summary_metrics, out: Path, expected: dict | None) -> tuple[bool, float, str]:
    """Gate results from a summary plus golden digests of the CSVs in ``out``."""
    pairs = [(m["name"], m["rel_error"], m["tolerance"], m["pass"]) for m in summary_metrics]
    margin = min((margin_of(rel, tol) for _, rel, tol, _ in pairs), default=1.0)
    bad = [f"gate FAIL {name}" for name, _, _, ok in pairs if not ok]
    got = digests(out)
    if expected is None:
        bad.append("no golden digests for this entry")
    elif got != expected:
        diff = sorted(set(got) ^ set(expected)) + [
            n for n in sorted(set(got) & set(expected)) if got[n] != expected[n]
        ]
        bad.append(f"CSV mismatch: {', '.join(diff)}")
    return not bad, margin, "; ".join(bad)


def check_cli(code: int, out: Path, expected: dict | None) -> tuple[bool, float, str]:
    """A CLI op is correct when it exits 0 and its summary and CSVs check out."""
    summary = out / "summary.json"
    if code != 0 or not summary.is_file():
        return False, FAILED_MARGIN, f"exit code {code}"
    return check_exports(json.loads(summary.read_text())["metrics"], out, expected)
