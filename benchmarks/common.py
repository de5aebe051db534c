"""Shared fixtures and calibration constants for the benchmark harness.

Every benchmark regenerates one table/figure-equivalent of the paper (see
DESIGN.md section 4 and EXPERIMENTS.md).  The constants here are the
workload sizes and the per-case-study CPU-overhead calibration used across
all benchmarks, so that the numbers printed by different benchmarks are
comparable with each other.

Benchmarks run each exploration exactly once (``benchmark.pedantic`` with a
single round): the measured quantity is the end-to-end tool runtime, and the
printed tables are the reproduction artefacts.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

from repro.core.exploration import ExplorationEngine, ExplorationSettings
from repro.core.space import compact_parameter_space, default_parameter_space
from repro.memhier.energy import EnergyModel
from repro.memhier.hierarchy import embedded_two_level
from repro.workloads.easyport import EasyportWorkload
from repro.workloads.vtc import VTCWorkload

#: Random seed shared by every benchmark (the paper's publication year).
SEED = 2006

#: Easyport workload size used by the benchmarks.
EASYPORT_PACKETS = 1200

#: VTC texture size used by the benchmarks.
VTC_IMAGE_SIZE = 176

#: Number of configurations sampled from the full 12 960-point space for the
#: headline case-study benchmarks (exhaustive exploration of the full space
#: takes tens of minutes in pure Python; the sample preserves the ranges and
#: the Pareto structure).
FULL_SPACE_SAMPLE = 300

#: Cycles of application CPU work between DM operations, per case study.
#: Easyport (packet forwarding) does comparatively little work per packet;
#: the VTC decoder performs heavy wavelet arithmetic per decoded object.
EASYPORT_CPU_CYCLES_PER_OP = 3000
VTC_CPU_CYCLES_PER_OP = 20_000


@lru_cache(maxsize=None)
def easyport_trace(packets: int = EASYPORT_PACKETS):
    """The canonical Easyport benchmark trace (cached across benchmarks)."""
    return EasyportWorkload(packets=packets).generate(seed=SEED)


@lru_cache(maxsize=None)
def vtc_trace(image_size: int = VTC_IMAGE_SIZE):
    """The canonical VTC benchmark trace (cached across benchmarks)."""
    return VTCWorkload(image_width=image_size, image_height=image_size).generate(seed=SEED)


def easyport_engine(sample: int | None = FULL_SPACE_SAMPLE, compact: bool = False):
    """Exploration engine for the Easyport case study."""
    hierarchy = embedded_two_level()
    space = compact_parameter_space() if compact else default_parameter_space()
    settings = ExplorationSettings(sample=None if compact else sample, sample_seed=SEED)
    energy_model = EnergyModel(hierarchy, cpu_overhead_cycles=EASYPORT_CPU_CYCLES_PER_OP)
    return ExplorationEngine(
        space,
        easyport_trace(),
        hierarchy=hierarchy,
        settings=settings,
        energy_model=energy_model,
    )


def vtc_engine(sample: int | None = FULL_SPACE_SAMPLE, compact: bool = False):
    """Exploration engine for the VTC case study."""
    hierarchy = embedded_two_level()
    space = compact_parameter_space(max_dedicated_pools=3) if compact else default_parameter_space(3)
    settings = ExplorationSettings(sample=None if compact else sample, sample_seed=SEED)
    energy_model = EnergyModel(hierarchy, cpu_overhead_cycles=VTC_CPU_CYCLES_PER_OP)
    return ExplorationEngine(
        space,
        vtc_trace(),
        hierarchy=hierarchy,
        settings=settings,
        energy_model=energy_model,
    )


#: Repository root, where the committed ``BENCH_*.json`` records live.
REPO_ROOT = Path(__file__).resolve().parent.parent


def write_bench_record(filename: str, document: dict, committed: bool) -> None:
    """Write a benchmark's JSON record.

    Only the dedicated runs (``BENCH_*_FULL=1`` or ``--benchmark-only``)
    rewrite the committed record in the repository root; quick-mode runs,
    including a plain ``pytest``, write to the git-ignored ``.benchmarks/``.
    """
    directory = REPO_ROOT if committed else REPO_ROOT / ".benchmarks"
    directory.mkdir(exist_ok=True)
    path = directory / filename
    path.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
    print(f"\nwrote {path}")


def print_table(title: str, rows: list[tuple], header: tuple) -> None:
    """Print a small aligned table with a title (benchmark report output)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[col])), max((len(str(row[col])) for row in rows), default=0))
        for col in range(len(header))
    ]
    print("  ".join(str(header[col]).ljust(widths[col]) for col in range(len(header))))
    for row in rows:
        print("  ".join(str(row[col]).ljust(widths[col]) for col in range(len(header))))
