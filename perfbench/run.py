"""End-to-end benchmark of the ``dmexplore`` CLI over the paper's case studies.

One run of one workload::

    python3 perfbench/run.py --workload easyport-nsga2 --seed 3 --seconds 50 --trace 0

Every workload at once, repeated, with median and quartile spread::

    python3 perfbench/run.py --runs 3

With ``--trace 0`` a run launches ``python3 -m repro`` untouched and reports
the end-to-end metrics; with ``--trace 1`` it runs one untraced and one
traced pass (``perfbench/instrument.py``) and reports the per-layer metrics.
Metric names and units come from ``BENCHMARK.json``.  The last line of
standard output is one JSON object; the full result, with the environment
record, goes to ``.perfbench/<workload>/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

from instrument import SETUP_EXIT

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".perfbench"
REFERENCE = BENCH_DIR / "reference.json"
CHECK = BENCH_DIR / "check.py"

#: Every workload runs the case study with this seed: the reference artefact
#: hashes and the exhaustive Easyport front exist for it alone.  The run's
#: ``--seed`` is recorded in the result but does not change the inputs.
WORKLOAD_SEED = "1"

#: Why each workload is here: which layer carries its time (README.md).
#: ``BENCHMARK.json`` lists all but vtc-exhaustive, whose wall time spreads
#: too widely on a shared VM to gate a comparison.
WORKLOADS = {
    # 6 480 configurations over the 2 900-event VTC decoder trace: batch
    # group simulation and fallback replay share the time.
    "vtc-exhaustive": [
        "explore", "--workload", "vtc", "--space", "vtc", "--seed", WORKLOAD_SEED,
    ],
    # A 5 % NSGA-II budget over the 12 960-point Easyport space: the only
    # user of the strategy layer and of prefix-replay pruning.
    "easyport-nsga2": [
        "explore", "--workload", "easyport", "--space", "easyport",
        "--strategy", "nsga2", "--budget", "648", "--prune", "--seed", WORKLOAD_SEED,
    ],
    # 160 sampled configurations replayed window by window: the only user of
    # the segment replay kernel; bypasses the batch engine entirely.
    "diurnal-windows": [
        "windows", "--workload", "diurnal", "--space", "default", "--sample", "160",
        "--seed", WORKLOAD_SEED, "--window-events", "1000",
    ],
}

#: Set-up is a sub-second process launch; its median over this many probes
#: is the reported ``setup_s``.
SETUP_PROBES = 3
#: A run stops its children and reports within this many seconds.
RUN_DEADLINE_S = 170.0


class Child:
    """One finished child process: wall time, peak RSS and exit status.

    The harness itself must stay smaller than its children (see check.py):
    ``rss_masked`` is true when the parent's own peak could hide the child's.
    """

    def __init__(self, argv: list[str], cwd: Path, log: Path, timeout: float) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with log.open("wb") as out:
            start = perf_counter()
            process = subprocess.Popen(
                argv, cwd=cwd, env=env, stdout=out, stderr=subprocess.STDOUT
            )
            timer = threading.Timer(max(timeout, 0.0), process.kill)
            timer.start()
            try:
                _pid, status, usage = os.wait4(process.pid, 0)
            finally:
                timer.cancel()
            self.wall_s = perf_counter() - start
        process.returncode = self.status = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        own_peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.rss_masked = own_peak_mb >= self.peak_rss_mb


def median_and_spread(values: list[float]) -> dict:
    """Sample count, median and quartiles (``statistics.quantiles``, n=4)."""
    if len(values) < 2:
        q1 = median = q3 = values[0] if values else 0.0
    else:
        q1, median, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "median": median, "q1": q1, "q3": q3, "values": values}


class Run:
    """One benchmark run of one workload: probes, passes and checks."""

    def __init__(self, workload: str, reference: dict | None, deadline: float) -> None:
        self.workload = workload
        self.reference = reference
        self.deadline = deadline
        self.work = WORK / workload
        self.work.mkdir(parents=True, exist_ok=True)
        self.artefact = self.work / "artefact.json"
        self.attempted = 0
        self.failures: list[str] = []

    def _cli(self, prefix: list[str], log: str) -> Child:
        argv = prefix + WORKLOADS[self.workload] + ["--out", self.artefact.name]
        return Child(argv, self.work, self.work / log, self.deadline - perf_counter())

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def setup_probe(self) -> float:
        self.attempted += 1
        probe = self._cli(
            [sys.executable, str(BENCH_DIR / "instrument.py"), "setup", "--"],
            "setup.log",
        )
        if probe.status != SETUP_EXIT:
            self.fail(f"setup probe exited {probe.status} (see setup.log)")
        return probe.wall_s

    def workload_pass(self, traced: bool = False) -> dict:
        """One full CLI run, checked against the reference artefact."""
        self.attempted += 1
        self.artefact.unlink(missing_ok=True)
        if traced:
            prefix = [sys.executable, str(BENCH_DIR / "instrument.py"), "trace",
                      str(self.work / "spans.json"), "--"]
        else:
            prefix = [sys.executable, "-m", "repro"]
        child = self._cli(prefix, "traced.log" if traced else "run.log")
        result = {"wall_s": child.wall_s, "peak_rss_mb": child.peak_rss_mb,
                  "rss_masked": child.rss_masked}
        if child.status != 0 or not self.artefact.is_file():
            self.fail(f"{'traced ' if traced else ''}pass exited {child.status}")
            return result
        try:
            checked = subprocess.run(
                [sys.executable, str(CHECK), self.workload, str(self.artefact)],
                capture_output=True, text=True, check=False,
                timeout=max(self.deadline - perf_counter(), 1.0),
            )
        except subprocess.TimeoutExpired:
            self.fail("artefact check ran past the run's deadline")
            return result
        if checked.returncode != 0:
            self.fail(f"artefact check exited {checked.returncode}: {checked.stderr}")
            return result
        result.update(json.loads(checked.stdout))
        if self.reference is None:  # recording the reference itself
            return result
        if result["sha256"] != self.reference["sha256"]:
            self.fail(f"artefact sha256 {result['sha256']} differs from the reference")
        if result["hv_fraction"] < self.reference["hv_fraction"]:
            self.fail(f"hv_fraction {result['hv_fraction']} below the reference")
        return result


def end_to_end(run: Run, seconds: float) -> tuple[dict, dict]:
    """Set-up probes, then workload passes while another one fits."""
    setups = [run.setup_probe() for _ in range(SETUP_PROBES)]
    start = perf_counter()
    passes = [run.workload_pass()]
    while perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        passes.append(run.workload_pass())
    if any(p["rss_masked"] for p in passes):
        run.fail("peak RSS masked: the harness outgrew the run it measures")
    setup = statistics.median(setups)
    samples = {
        "setup_s": setups,
        "wall_s": [p["wall_s"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "configs_per_s": [
            p["fresh_configs"] / (p["wall_s"] - setup)
            for p in passes if "fresh_configs" in p
        ],
        "hv_fraction": [p["hv_fraction"] for p in passes if "hv_fraction" in p],
    }
    values = {
        name: statistics.median(found) if (found := samples[name]) else 0.0
        for name in samples
    }
    values["hv_fraction"] = min(samples["hv_fraction"], default=0.0)
    return values, {
        "samples": {name: median_and_spread(found) for name, found in samples.items()}
    }


def _self_and_inclusive(spans: list[list]) -> tuple[dict, dict, dict]:
    """Per span name: summed self time, outermost inclusive time, count."""
    children = [0.0] * len(spans)
    for name, parent, start, end in spans:
        if parent >= 0:
            children[parent] += end - start
    own: dict[str, float] = {}
    inclusive: dict[str, float] = {}
    calls: dict[str, int] = {}
    for index, (name, parent, start, end) in enumerate(spans):
        duration = end - start
        own[name] = own.get(name, 0.0) + duration - children[index]
        calls[name] = calls.get(name, 0) + 1
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor < 0:  # not nested in a span of the same layer
            inclusive[name] = inclusive.get(name, 0.0) + duration
    return own, inclusive, calls


def per_layer(run: Run) -> tuple[dict, dict]:
    """One untraced and one traced pass; layer metrics from the spans."""
    untraced = run.workload_pass()
    traced = run.workload_pass(traced=True)
    spans_path = run.work / "spans.json"
    if "fresh_configs" not in traced or not spans_path.is_file():
        return {}, {"untraced_wall_s": untraced["wall_s"]}
    recorded = json.loads(spans_path.read_text(encoding="utf-8"))
    spans, counters = recorded["spans"], recorded["counters"]
    own, inclusive, calls = _self_and_inclusive(spans)
    busy = inclusive.get
    batched = [
        (end - start) * 1000.0 for name, _p, start, end in spans if name == "batch.batched"
    ]
    percentiles = statistics.quantiles(batched, n=100) if len(batched) > 1 else batched * 99
    evaluate_s = busy("exploration.evaluate", 0.0)

    def rate(events: str, seconds: float) -> float:
        return counters.get(events, 0) / seconds if seconds else 0.0

    values = {
        "workloads.generate_s": busy("workloads.generate", 0.0),
        "profiling.compile_s": busy("profiling.compile", 0.0),
        "api.resolve_s": busy("api.resolve", 0.0),
        "exploration.evaluate_s": evaluate_s,
        "exploration.evaluate_calls": calls.get("exploration.evaluate", 0),
        "exploration.fresh_configs": traced["fresh_configs"],
        "exploration.cache_hits": traced["cache_hits"],
        "batch.batched_s": busy("batch.batched", 0.0),
        "batch.batched_configs": calls.get("batch.batched", 0),
        "batch.config_p50_ms": percentiles[49] if percentiles else 0.0,
        "batch.config_p99_ms": percentiles[98] if percentiles else 0.0,
        "batch.fallback_s": busy("batch.fallback", 0.0),
        "batch.fallback_configs": calls.get("batch.fallback", 0),
        "batch.fallback_share": (
            busy("batch.fallback", 0.0) / evaluate_s if evaluate_s else 0.0
        ),
        "profiler.run_s": busy("profiler.run", 0.0),
        "profiler.runs": calls.get("profiler.run", 0),
        "profiler.events_per_s": rate("profiler.run.events", busy("profiler.run", 0.0)),
        "search.predict_s": busy("search.predict", 0.0),
        "search.predict_calls": calls.get("search.predict", 0),
        "search.prune_skipped": traced["prune_skipped"],
        "search.strategy_self_s": own.get("search.strategy", 0.0),
        "stream.replay_segment_s": busy("stream.replay_segment", 0.0),
        "stream.segments": calls.get("stream.replay_segment", 0),
        "stream.events_per_s": rate(
            "stream.replay_segment.events", busy("stream.replay_segment", 0.0)
        ),
        "stream.snapshot_s": busy("stream.snapshot", 0.0),
        "results.to_json_s": busy("results.to_json", 0.0),
        "results.artefact_bytes": traced["artefact_bytes"],
        "reporting.report_s": busy("reporting.report", 0.0),
        "trace.overhead_ratio": traced["wall_s"] / untraced["wall_s"],
        "trace.coverage": sum(own.values()) / traced["wall_s"],
    }
    detail = {
        "untraced_wall_s": untraced["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "layers": {
            name: {"calls": calls[name], "inclusive_s": inclusive.get(name, 0.0),
                   "self_s": own[name]}
            for name in sorted(calls)
        },
    }
    return values, detail


def environment(seed: int) -> dict:
    """What produced a result: interpreter, kernel path, machine, commit."""
    try:  # metadata only: importing numpy would grow the harness (check.py)
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text(encoding="utf-8", errors="replace").splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    git_sha = None
    if (ROOT / ".git").exists():
        found = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        git_sha = found.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        # profiling/batch.py picks its free-list scan by numpy's presence.
        "batch_kernel": "numpy" if numpy_version else "pure-python",
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": git_sha,
        "workload_seed": int(WORKLOAD_SEED),
        "seed": seed,
    }


def benchmark_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {entry["name"]: entry["unit"] for entry in declared[kind]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result record (also written to disk)."""
    deadline = perf_counter() + RUN_DEADLINE_S
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))["workloads"][workload]
    run = Run(workload, reference, deadline)
    if trace:
        values, detail = per_layer(run)
        units = benchmark_metrics("per_layer")
    else:
        values, detail = end_to_end(run, seconds)
        units = benchmark_metrics("end_to_end")
    missing = [name for name in units if name not in values]
    if missing and not run.failures:
        run.fail(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {
            name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()
        },
    }
    record = {
        "workload": workload,
        "trace": trace,
        "result": result,
        "failures": run.failures,
        **detail,
        "environment": environment(seed),
    }
    path = run.work / f"result-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return record


def print_table(workload: str, records: list[dict]) -> None:
    """Every metric by name and unit, with median and quartiles over runs."""
    attempted = sum(r["result"]["attempted"] for r in records)
    failed = sum(r["result"]["failed"] for r in records)
    print(f"\n{workload}: {len(records)} run(s), "
          f"failed {failed}/{attempted} ({failed / max(attempted, 1):.1%})")
    names = records[0]["result"]["metrics"]
    for name, entry in names.items():
        values = [r["result"]["metrics"][name]["value"] for r in records]
        stats = median_and_spread(values)
        spread = (stats["q3"] - stats["q1"]) / stats["median"] if stats["median"] else 0.0
        print(f"  {name:28s} {stats['median']:14.6g} {entry['unit']:6s} "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {spread:.2%}")
    for record in records:
        for failure in record["failures"]:
            print(f"  FAILED: {failure}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="repeat workload passes while another fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED, SEED+1, ...")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no dmexplore sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        records = [
            run_workload(workload, args.seed + offset, args.seconds, bool(args.trace))
            for offset in range(args.runs)
        ]
        print_table(workload, records)
        for record in records:
            summary["correct"] &= record["result"]["correct"]
            summary["attempted"] += record["result"]["attempted"]
            summary["failed"] += record["result"]["failed"]
        prefix = "" if args.workload else f"{workload}/"
        for name, entry in records[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in records]
            summary["metrics"][prefix + name] = {
                "value": statistics.median(values), "unit": entry["unit"],
            }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
