"""Summarise and check one artefact in a process of its own.

    python3 perfbench/check.py WORKLOAD ARTEFACT

Prints one JSON object: the artefact's sha256 and size, the configurations
profiled fresh, memo hits, pruning skips, the Pareto front and, when
``reference.json`` has the workload, ``hv_fraction``.  The benchmark runs
this as a child so that the harness never loads the program: on Linux a
child's peak RSS includes its parent's peak at the time of the fork, so the
harness must stay smaller than the runs it measures.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference.json"
sys.path.insert(0, str(BENCH_DIR.parent / "src"))


def front_of(database) -> list[dict]:
    """The Pareto-optimal records of a result database, as labels and vectors."""
    return [
        {"label": record.configuration_id, "metrics": list(record.metric_vector())}
        for record in database.pareto_records()
    ]


def hv_fraction(front: list[dict], reference: dict) -> float:
    """Hypervolume of ``front`` over the reference's ground-truth hypervolume."""
    from repro.core.pareto import hypervolume

    vectors = [entry["metrics"] for entry in front]
    return hypervolume(vectors, reference["reference_point"]) / reference["hypervolume"]


def sha256_of(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def summary(workload: str, artefact: Path) -> dict:
    from repro.core.results import ResultDatabase

    database = ResultDatabase.from_json(artefact)
    front = front_of(database)
    result = {
        "sha256": sha256_of(artefact),
        "artefact_bytes": artefact.stat().st_size,
        # Windowed runs keep no memo: they profile every point exactly once.
        "fresh_configs": database.cache_misses or len(database),
        "cache_hits": database.cache_hits,
        "prune_skipped": database.prune_skipped,
        "front": front,
    }
    if REFERENCE.is_file():
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"]
        if workload in reference:
            result["hv_fraction"] = hv_fraction(front, reference[workload])
    return result


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    print(json.dumps(summary(sys.argv[1], Path(sys.argv[2]))))
