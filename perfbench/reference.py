"""Record ``perfbench/reference.json`` from one run of the current commit.

    python3 perfbench/reference.py EASYPORT_EXHAUSTIVE.json

Runs every workload once and stores its artefact sha256 and Pareto front.
``hv_fraction`` is measured against a ground-truth front: a workload's own
front for the exhaustive and windowed workloads (so it reads 1.0 and checks
the front), and for ``easyport-nsga2`` the front of the exhaustive Easyport
sweep, whose artefact the argument names.  Produce it from the repository
root with :data:`EASYPORT_TRUTH_COMMAND` (about 35 minutes serially).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

from check import front_of, hv_fraction, sha256_of
from run import REFERENCE, WORKLOADS, Run, environment

EASYPORT_TRUTH_COMMAND = (
    "PYTHONPATH=src python3 -m repro explore --workload easyport "
    "--space easyport --seed 1 --jobs 2 --out easyport-exhaustive.json"
)


def truth(artefact: Path) -> dict:
    """Ground-truth front and the fixed hypervolume reference point."""
    from repro.core.pareto import hypervolume, reference_point
    from repro.core.results import ResultDatabase

    database = ResultDatabase.from_json(artefact)
    point = reference_point([r.metric_vector() for r in database.feasible_records()])
    front = front_of(database)
    return {
        "reference_point": list(point),
        "hypervolume": hypervolume([entry["metrics"] for entry in front], point),
        "front": front,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit(__doc__)
    easyport_truth = Path(argv[0]).resolve()
    recorded = {}
    for workload in WORKLOADS:
        run = Run(workload, None, deadline=perf_counter() + 3600)
        result = run.workload_pass()
        if run.failures:
            raise SystemExit(f"{workload}: {run.failures}")
        front = result["front"]
        entry = {
            "sha256": result["sha256"],
            "artefact_bytes": result["artefact_bytes"],
            "front": front,
        }
        if workload == "easyport-nsga2":
            ground = truth(easyport_truth)
            entry["truth_command"] = EASYPORT_TRUTH_COMMAND
            entry["truth_sha256"] = sha256_of(easyport_truth)
            entry["truth_front"] = ground.pop("front")
        else:
            ground = truth(run.artefact)
            del ground["front"]
            entry["truth_command"] = "the workload's own front"
        entry.update(ground)
        entry["hv_fraction"] = hv_fraction(front, entry)
        recorded[workload] = entry
        print(f"{workload}: sha256 {entry['sha256']} hv_fraction {entry['hv_fraction']}")
    document = {"recorded_with": environment(seed=1), "workloads": recorded}
    REFERENCE.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
