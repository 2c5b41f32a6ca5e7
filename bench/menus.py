"""Workload menus and the seeded, balanced plan of ops drawn from them.

Every op of a run is one menu entry.  A run is a fixed number of blocks; each
block holds every entry of the workload's menu exactly once, in an order
shuffled by the seed.  The work per run therefore depends on ``--seconds``
only, never on the seed, and every count the trace records repeats exactly
between two runs with the same seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Entry:
    """One parameter set: ``target`` is a scenario (cli, pipeline) or an oracle op."""

    id: str
    target: str
    params: dict = field(default_factory=dict)
    why: str = ""


TRAJ5 = [[25.0, 0.0], [17.7, 17.7], [0.01, 0.5], [10.0, -3.0], [5.0, 1.0]]

MENUS: dict[str, list[Entry]] = {
    # Light scenarios, one fresh interpreter each: import dominates the op.
    "cli-cold": [
        Entry("boost", "boost", {}, "default boost, as in the README"),
        Entry("boost-b0.3", "boost", {"beta": 0.3},
              "slow boost: long envelope grid, Hilbert oracle"),
        Entry("boost-w2-b0.8", "boost", {"omega0": 2.0, "beta": 0.8},
              "fast boost: short grid, other omega0"),
        Entry("fringes-arc", "doubleslit-fringes", {},
              "default arc screen fringe oracle"),
        Entry("fringes-line", "doubleslit-fringes",
              {"d": 1.0, "wavelength": 0.05, "D": 40.0, "screen": "line"},
              "flat screen branch of the fringe oracle"),
        Entry("beat", "box-beat", {}, "default box-beat speed"),
        Entry("beat-v0.2", "box-beat", {"v": 0.2},
              "short probe series (~900 samples) through the Brent refinement"),
        Entry("beat-v0.02", "box-beat", {"v": 0.02},
              "longest probe series (6529 samples) through the Brent refinement"),
        Entry("quantize-3", "box-quantize", {"n_max": 3},
              "few bisection root solves, 3 envelope CSVs"),
        Entry("quantize-10", "box-quantize", {"n_max": 10},
              "upper end of n_max, 10 envelope CSVs"),
    ],
    # Parameter sweep in one interpreter: RK4 loop, lstsq loop, CSV formatting.
    "pipeline-warm": [
        Entry("traj-1x3000", "doubleslit-traj",
              {"starts": [[25.0, 0.0]], "max_steps": 3000},
              "single far-field streamline, cheapest trajectory op; 3000 steps keep it "
              "clear of states-320, so op_p50_s is the median of one entry"),
        Entry("traj-3x2500", "doubleslit-traj", {"max_steps": 2500},
              "default three starts including the near-slit start"),
        Entry("traj-5x2000", "doubleslit-traj", {"starts": TRAJ5, "max_steps": 2000},
              "five starts, slowest op of the menu"),
        Entry("states-80-v0.05", "box-states", {"n_positions": 80, "v": 0.05},
              "short per-position lstsq sweep"),
        Entry("states-160", "box-states", {},
              "default sweep: 160 evaluate and lstsq calls"),
        Entry("states-320-v0.1", "box-states", {"n_positions": 320, "v": 0.1},
              "long sweep at a faster cavity"),
        Entry("map-101", "doubleslit-map", {"nx": 101, "ny": 101},
              "small grid that fits in cache; export overhead per cell"),
        Entry("map-201", "doubleslit-map", {},
              "default 201x201 grid"),
        Entry("map-401", "doubleslit-map", {"nx": 401, "ny": 401},
              "8 MB CSV; arrays outgrow the 4 MiB L2"),
    ],
    # Physics and oracle functions called directly, as the demos do; no export.
    "oracle-warm": [
        Entry("boost-w1-b0.1", "boost", {"omega0": 1.0, "beta": 0.1},
              "2816-point snapshot, the largest Hilbert envelope"),
        Entry("boost-w1-b0.5", "boost", {"omega0": 1.0, "beta": 0.5},
              "768-point snapshot"),
        Entry("boost-w2-b0.9", "boost", {"omega0": 2.0, "beta": 0.9},
              "near-light boost, smallest envelope margin"),
        Entry("beats-v0.02", "beats", {"v": 0.02},
              "6529-sample probe series, the costliest DTFT refinement"),
        Entry("beats-v0.03", "beats", {"v": 0.03},
              "long series, second costliest refinement"),
        Entry("beats-v0.0627", "beats", {"v": 0.062708},
              "default box-beat speed"),
        Entry("beats-v0.1", "beats", {"v": 0.1},
              "mid-length series"),
        Entry("beats-v0.2", "beats", {"v": 0.2},
              "short series"),
        Entry("beats-v0.4", "beats", {"v": 0.4},
              "448-sample series; the middle-cost entry, so op_p50_s is a Brent refinement"),
        Entry("fringes-arc", "fringes", {"d": 0.5, "wavelength": 0.01, "D": 50.0, "screen": "arc"},
              "default fringe oracle"),
        Entry("fringes-line", "fringes", {"d": 1.0, "wavelength": 0.05, "D": 40.0, "screen": "line"},
              "flat screen, largest fringe error of the menu"),
        Entry("quantize-10", "quantize", {"n_max": 10},
              "bisection root solves for modes 1 to 10"),
        Entry("residual-400", "residual", {"grid_steps": 399},
              "finite-difference residual on a 400x400 grid; sets the latency tail"),
    ],
}

WORKLOADS = tuple(MENUS)

#: Typical wall time of one block at the seed commit on a 2-vCPU x86-64 Linux
#: host (Python 3.11, numpy 2.4, scipy 1.17) whose speed drifted by about 20%
#: while measured; cli-cold's includes the cold reference samples run.py
#: takes between its ops.  Only turns ``--seconds`` into a block count, so a
#: run does the same work whatever the machine's speed.
NOMINAL_BLOCK_S = {"cli-cold": 24.0, "pipeline-warm": 3.4, "oracle-warm": 0.035}

#: Ops a run needs so that the median has ten samples beyond it.
MIN_OPS = 20


def block_count(workload: str, seconds: float, trace: bool = False) -> int:
    """Blocks in a run: about ``seconds`` of work, at least two blocks and MIN_OPS ops.

    A trace run runs every block twice (``passes``), so it gets half the
    blocks, and takes about as long as a run without tracing.
    """
    menu = len(MENUS[workload])
    n = max(2, math.ceil(MIN_OPS / menu), round(seconds / NOMINAL_BLOCK_S[workload]))
    return math.ceil(n / 2) if trace else n


def plan(workload: str, seed: int, seconds: float, trace: bool = False) -> list[list[str]]:
    """Seeded blocks of entry ids; each block is a permutation of the whole menu."""
    rng = random.Random(f"{workload}:{seed}")
    ids = [e.id for e in MENUS[workload]]
    blocks = []
    for _ in range(block_count(workload, seconds, trace)):
        block = list(ids)
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def passes(index: int, trace: bool) -> list[bool]:
    """Traced flags of the passes over block ``index``.

    A trace run runs every block twice in a row, untraced and traced, in an
    order that alternates between blocks, so both passes see the same ops at
    nearly the same time and their ratio is the tracing overhead.
    """
    if not trace:
        return [False]
    return [False, True] if index % 2 == 0 else [True, False]


def entry(workload: str, entry_id: str) -> Entry:
    for e in MENUS[workload]:
        if e.id == entry_id:
            return e
    raise KeyError(f"{workload} has no menu entry {entry_id!r}")


def cli_argv(e: Entry) -> list[str]:
    """Command-line arguments a user would type for a cli-cold entry (without --out)."""
    argv = [e.target]
    for key, value in e.params.items():
        argv += ["--set", f"{key}={value}"]
    return argv
