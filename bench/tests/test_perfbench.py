"""Tests of the benchmark itself: span arithmetic, plans, patching and checks.

Run from the root of a qmasslab checkout: python3 -m pytest bench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(1, str(BENCH.parent / "src"))

import checks  # noqa: E402
import menus  # noqa: E402
import ops  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
from qmasslab import boxwell, cli, scenarios, wavecore  # noqa: E402


def span(name, start, end, parent=-1, count=None):
    return [name, start, end, parent, 0, count]


class TestSelfTime:
    def test_nested_children_are_subtracted(self):
        spans = [
            span("op", 0.0, 10.0),
            span("a", 1.0, 4.0, parent=0),
            span("b", 5.0, 6.0, parent=0),
            span("c", 2.0, 3.0, parent=1),
        ]
        assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_count_once(self):
        spans = [span("op", 0.0, 10.0), span("a", 1.0, 5.0, 0), span("b", 3.0, 7.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(4.0)

    def test_child_past_the_parent_is_clipped(self):
        spans = [span("op", 0.0, 4.0), span("a", 3.0, 9.0, 0)]
        assert tracing.self_times(spans)[0] == pytest.approx(3.0)

    def test_aggregate_and_layer_metrics(self):
        spans = [
            span("op", 0.0, 10.0),
            span("qmass.mass_state_of", 1.0, 4.0, 0),
            span("qmass.invariant_mass", 2.0, 3.0, 1),
            span("wavecore.evaluate", 5.0, 7.0, 0, count=100),
            span("op", 10.0, 12.0),
        ]
        totals = tracing.aggregate(spans)
        assert totals["qmass.mass_state_of"] == pytest.approx([3.0, 2.0, 1, 0])
        m = tracing.layer_metrics(totals, n_ops=2)
        assert m["qmass.s"] == pytest.approx(1.5)
        assert m["qmass.calls"] == 2
        assert m["wavecore.evaluate.s"] == pytest.approx(1.0)
        assert m["wavecore.evaluate.points"] == 100
        assert m["doubleslit.rk4_steps_per_s"] == 0.0


def test_import_times_parse():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:      1000 |       1000 |   numpy.core",
        "import time:       500 |       1500 | numpy",
        "import time:      2000 |       2000 |     scipy.signal",
        "import time:       100 |       9000 | qmasslab",
    ])
    assert tracing.import_times(text) == {
        "import.qmasslab_s": 0.009, "import.numpy_s": 0.0015, "import.scipy_s": 0.002,
    }


def test_reference_sample_is_a_short_positive_time():
    assert 0.0 < reference.sample() < 1.0


def test_cold_reference_sample_is_a_positive_time_and_raises_on_failure(monkeypatch):
    wall, cpu = reference.cold_sample(60)
    assert 0.0 < wall < 60 and 0.0 < cpu < 60
    monkeypatch.setattr(reference, "COLD_CODE", "raise SystemExit(3)")
    with pytest.raises(subprocess.CalledProcessError):
        reference.cold_sample(60, stderr=subprocess.DEVNULL)


def test_tail_uses_highest_percentile_with_ten_beyond():
    lat = list(range(1, 101))
    assert run.tail(lat) == (90, 90)
    assert run.tail(list(range(1, 21))) == (50, 10)


def test_end_to_end_metrics_of_records():
    records = [["a", 1.0, 0.5], ["b", 2.0, 1.0], ["c", 3.0, 1.5], ["d", 6.0, 3.0]]
    metrics = run.end_to_end(records, [4.0, 1.0, 2.0])
    assert metrics == pytest.approx({
        "ops_per_s": 4 / 12.0, "op_p50_s": 2.5, "op_tail_s": 2.0,
        "cpu_per_op_s": 1.5, "setup_s": 2.0,
    })


class TestPlan:
    @pytest.mark.parametrize("workload", menus.WORKLOADS)
    def test_blocks_hold_every_entry_once(self, workload):
        ids = sorted(e.id for e in menus.MENUS[workload])
        blocks = menus.plan(workload, seed=3, seconds=20)
        assert len(blocks) >= 2
        assert len(blocks) * len(ids) >= menus.MIN_OPS
        assert all(sorted(b) == ids for b in blocks)

    @pytest.mark.parametrize("workload", menus.WORKLOADS)
    def test_trace_run_has_half_the_blocks(self, workload):
        full = menus.block_count(workload, 20)
        assert menus.block_count(workload, 20, trace=True) == math.ceil(full / 2)
        assert len(menus.plan(workload, 3, 20, trace=True)) == math.ceil(full / 2)

    def test_seed_orders_but_does_not_size(self):
        a = menus.plan("oracle-warm", 1, 20)
        assert a == menus.plan("oracle-warm", 1, 20)
        b = menus.plan("oracle-warm", 2, 20)
        assert len(a) == len(b) and a != b

    def test_menu_ids_are_unique_and_explained(self):
        for workload, menu in menus.MENUS.items():
            assert len({e.id for e in menu}) == len(menu)
            assert all(e.why for e in menu)


def test_patched_traces_every_lookup_and_restores():
    originals = (wavecore.evaluate, boxwell.evaluate, cli.run, scenarios.run)
    tracer = tracing.Tracer()
    with tracer.patched():
        assert boxwell.evaluate is not originals[1]
        assert cli.run is not originals[2]
        boxwell.analyze_beats(boxwell.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.4), 0.275)
    assert (wavecore.evaluate, boxwell.evaluate, cli.run, scenarios.run) == originals
    names = [s[0] for s in tracer.spans]
    assert names.count("boxwell.analyze_beats") == 1
    assert "wavecore.evaluate" in names
    assert "wavecore.measure_temporal_frequencies" in names
    parent = {s[0]: s[3] for s in tracer.spans}
    assert tracer.spans[parent["wavecore.evaluate"]][0] == "boxwell.analyze_beats"


def test_corrupted_golden_digest_is_a_failed_op(tmp_path):
    entry = menus.Entry("map-small", "doubleslit-map", {"nx": 21, "ny": 21}, "test")
    out = tmp_path / "out"
    first = worker._run_op("pipeline-warm", entry, out, {}, None)
    assert not first[3] and "no golden" in first[5]
    golden = {entry.id: checks.digests(out)}
    assert worker._run_op("pipeline-warm", entry, out, golden, None)[3]
    name = next(iter(golden[entry.id]))
    golden[entry.id][name] = "0" * 64
    rec = worker._run_op("pipeline-warm", entry, out, golden, None)
    assert not rec[3] and "CSV mismatch" in rec[5]


def test_perturbed_closed_form_is_a_failed_op(monkeypatch):
    entry = menus.entry("oracle-warm", "beats-v0.4")
    assert worker._run_op("oracle-warm", entry, None, {}, None)[3]
    monkeypatch.setattr(ops, "_gamma", lambda beta: 1.01 / math.sqrt(1.0 - beta * beta))
    rec = worker._run_op("oracle-warm", entry, None, {}, None)
    assert not rec[3] and "fast_frequency" in rec[5]


def test_energy_error_inside_the_loose_bound_still_fails(monkeypatch):
    real = boxwell.quantize

    def drifted(cfg, n_max):
        reps = real(cfg, n_max)
        # 1e-6 relative energy error: far inside relativistic_bound (~1e-3).
        return [r.__class__(**{**r.__dict__, "kinetic_energy": r.kinetic_energy * (1 + 1e-6)})
                for r in reps]

    monkeypatch.setattr(boxwell, "quantize", drifted)
    entry = menus.entry("oracle-warm", "quantize-10")
    rec = worker._run_op("oracle-warm", entry, None, {}, None)
    assert not rec[3] and "energy_discrepancy" in rec[5]


def test_exception_is_a_failed_op():
    entry = menus.Entry("bad", "beats", {"v": 2.0}, "test")
    rec = worker._run_op("oracle-warm", entry, None, {}, None)
    assert not rec[3] and "InvalidConfigError" in rec[5]


def test_cli_nonzero_exit_is_a_failed_op(tmp_path):
    assert checks.check_cli(1, tmp_path, {})[0] is False


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "oracle-warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_golden_covers_every_exporting_entry():
    golden = json.loads(checks.GOLDEN.read_text())
    for workload in ("cli-cold", "pipeline-warm"):
        assert set(golden[workload]) == {e.id for e in menus.MENUS[workload]}
