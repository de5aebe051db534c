"""Run the ``dmexplore`` CLI in this process with instrumentation installed
from outside the program.

Two modes, both ending in ``repro.cli.main(ARGS)``:

``python3 perfbench/instrument.py setup -- ARGS...``
    Exits with :data:`SETUP_EXIT` the moment the first configuration is
    handed to a replay kernel (batch engine, one-shot profiler or segment
    session).  The caller times the process from launch to that exit: the
    run's set-up time (interpreter start, imports, spec resolution, trace
    generation and compilation).

``python3 perfbench/instrument.py trace SPANS.json -- ARGS...``
    Wraps the public entry point of every layer in a span, runs the CLI to
    completion and writes the spans and counters to ``SPANS.json``.

Untimed runs of the benchmark never import this module: they launch
``python3 -m repro`` directly, so they carry no wrappers.
"""

from __future__ import annotations

import json
import os
import sys
import types
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Exit status of a setup probe that reached the evaluation layer.
SETUP_EXIT = 17


class SpanRecorder:
    """Nested spans ``[name, parent index, start, end]`` kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][3] = perf_counter()
        self._stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, call, name: str, events=None):
        """``call`` inside a span; ``events(*args)`` adds to ``<name>.events``."""

        def wrapper(*args, **kwargs):
            if events is not None:
                self.count(f"{name}.events", events(*args, **kwargs))
            index = self.open(name)
            try:
                return call(*args, **kwargs)
            finally:
                self.close(index)

        return wrapper

    def write(self, path: Path) -> None:
        payload = {"counters": self.counters, "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")), encoding="utf-8")


def _replace_function(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at
    ``replacement`` (modules bind imported functions by name)."""
    for module_name, module in list(sys.modules.items()):
        if module_name == "repro" or module_name.startswith("repro."):
            for attribute, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attribute, replacement)


def _layers():
    """The layer entry points: ``(owner, attribute, span name, events)``."""
    import repro.cli  # noqa: F401 - loads every module the CLI reaches
    from repro.api.experiment import Experiment
    from repro.core import reporting
    from repro.core.exploration import ExplorationEngine
    from repro.core.results import ResultDatabase
    from repro.core.search import SearchStrategy
    from repro.profiling import compiled
    from repro.profiling.profiler import Profiler, SegmentReplaySession
    from repro.stream import windows
    from repro.workloads.base import Workload

    generators = [cls for cls in _subclasses(Workload) if "generate" in vars(cls)]
    return [
        (Experiment, "resolve", "api.resolve", None),
        *[(cls, "generate", "workloads.generate", None) for cls in generators],
        (compiled, "compile_trace", "profiling.compile", None),
        (windows, "compile_windows", "profiling.compile", None),
        (ExplorationEngine, "explore", "exploration.explore", None),
        (ExplorationEngine, "evaluate_points", "exploration.evaluate", None),
        (ExplorationEngine, "predict_point", "search.predict", None),
        (SearchStrategy, "run", "search.strategy", None),
        (Profiler, "run", "profiler.run", lambda _p, _a, trace, *_r, **_k: len(trace)),
        (windows, "windowed_exploration", "stream.windowed", None),
        (
            SegmentReplaySession,
            "replay_segment",
            "stream.replay_segment",
            lambda _s, segment: len(segment),
        ),
        (SegmentReplaySession, "snapshot", "stream.snapshot", None),
        (ResultDatabase, "to_json", "results.to_json", None),
        (reporting, "exploration_report", "reporting.report", None),
    ]


def _subclasses(cls) -> list[type]:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install_tracing(recorder: SpanRecorder) -> None:
    """Wrap every layer entry point, plus the batch engine's per-configuration
    call split into batched and fallback spans."""
    from repro.profiling.batch import BatchReplayEngine

    for owner, attribute, name, events in _layers():
        original = getattr(owner, attribute)
        wrapped = recorder.wrap(original, name, events)
        if isinstance(owner, types.ModuleType):
            _replace_function(original, wrapped)
        else:
            setattr(owner, attribute, wrapped)

    run_configuration = BatchReplayEngine.run_configuration

    def traced_run_configuration(engine, configuration):
        # A call that raised the fallback counter took the single-replay path.
        before = engine.fallback_configurations
        index = recorder.open("batch.configuration")
        try:
            return run_configuration(engine, configuration)
        finally:
            recorder.close(index)
            fallback = engine.fallback_configurations > before
            recorder.spans[index][0] = "batch.fallback" if fallback else "batch.batched"

    BatchReplayEngine.run_configuration = traced_run_configuration


def install_setup_stop() -> None:
    """Exit at the first configuration handed to a replay kernel."""
    from repro.profiling.batch import BatchReplayEngine
    from repro.profiling.profiler import Profiler, SegmentReplaySession

    def stop(*_args, **_kwargs):
        sys.stdout.flush()
        os._exit(SETUP_EXIT)

    BatchReplayEngine.run_configuration = stop
    Profiler.run = stop
    SegmentReplaySession.replay_segment = stop


def main(argv: list[str]) -> int:
    if "--" not in argv:
        raise SystemExit(__doc__)
    split = argv.index("--")
    mode, options, cli_args = argv[0], argv[1:split], argv[split + 1 :]
    from repro.cli import main as cli_main

    if mode == "setup":
        install_setup_stop()
        cli_main(cli_args)
        print("setup probe: the run finished without evaluating a configuration",
              file=sys.stderr)
        return 1
    if mode == "trace" and len(options) == 1:
        recorder = SpanRecorder()
        install_tracing(recorder)
        status = cli_main(cli_args)
        recorder.write(Path(options[0]))
        return status
    raise SystemExit(__doc__)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
