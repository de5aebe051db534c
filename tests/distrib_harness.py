"""Subprocess harness for the distributed exploration service tests.

This file plays two roles:

* **imported by tests** — :func:`spawn_coordinator` / :func:`spawn_worker`
  launch real OS processes (``sys.executable`` running *this file*) and
  wrap them in :class:`ManagedProcess`, which pumps stdout on a thread so
  tests can wait for log lines ("listening on HOST:PORT", per-lease
  statistics) without deadlocking on a full pipe;
* **executed as a subprocess entry point** — ``python tests/distrib_harness.py
  serve SPEC.json ...`` / ``... worker HOST:PORT ...`` run a coordinator or
  worker, optionally wrapped in a **chaos** subclass that injects one
  specific fault through the documented override seams.

Chaos modes (``--chaos KIND[:N]``):

=====================  ===========  ========================================
kind                   role         fault injected
=====================  ===========  ========================================
``kill-after:N``       worker       SIGKILL itself right *after* reporting
                                    its N-th lease complete (range is done,
                                    but the worker vanishes without goodbye)
``kill-before:N``      worker       SIGKILL itself right *before* reporting
                                    its N-th lease complete (all points are
                                    in the store, the lease must expire and
                                    be re-leased)
``drop-heartbeat:N``   worker       silently skip the first N heartbeats it
                                    would have sent
``torn-write:N``       worker       on its N-th store append, write only
                                    half the entry line and SIGKILL itself
                                    mid-append (a torn write the loader
                                    must recover from)
``stall:SECONDS``      worker       evaluate the first lease fully, then
                                    sit silent for SECONDS before reporting
                                    it complete (no heartbeats flow while
                                    stalled, so the lease expires and the
                                    range is re-leased; the late completion
                                    must still be tolerated)
``delay-join``         worker       announce readiness, then hold the
                                    ``hello`` until the process receives
                                    SIGUSR1 (the test decides exactly when
                                    the worker joins, e.g. after the sweep
                                    finished)
``delay-ack:SECONDS``  coordinator  sleep before sending every ``ack``
=====================  ===========  ========================================

The chaos classes subclass the production :class:`Worker` /
:class:`Coordinator` and override only the designated seams
(``_join``, ``_lease_complete``, ``_send_heartbeat``, ``_prepare_store``,
``_send``)
— the protocol and state machines under test are the production ones.
"""

from __future__ import annotations

import argparse
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
HARNESS = Path(__file__).resolve()

if str(REPO_ROOT / "src") not in sys.path:  # subprocess entry has no conftest
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.api.spec import ExperimentSpec  # noqa: E402
from repro.distrib import Coordinator, Worker, parse_address  # noqa: E402

LISTENING = re.compile(r"listening on ([^\s:]+):(\d+)")


# -- chaos subclasses (subprocess side) -------------------------------------


class KillAroundCompleteWorker(Worker):
    """SIGKILL self before/after the N-th lease-complete message."""

    def __init__(self, *args, fatal_lease: int = 1, phase: str = "after", **kwargs):
        super().__init__(*args, **kwargs)
        self.fatal_lease = fatal_lease
        self.phase = phase  # "before" | "after" the complete round trip

    def _lease_complete(self, lease_id: int) -> None:
        fatal = self.leases_completed + 1 >= self.fatal_lease
        if fatal and self.phase == "before":
            self.log(f"{self.name}: chaos: SIGKILL before completing {lease_id}")
            os.kill(os.getpid(), signal.SIGKILL)
        super()._lease_complete(lease_id)
        if fatal and self.phase == "after":
            self.log(f"{self.name}: chaos: SIGKILL after completing {lease_id}")
            os.kill(os.getpid(), signal.SIGKILL)


class DropHeartbeatWorker(Worker):
    """Silently drop the first N heartbeats (tests lease expiry)."""

    def __init__(self, *args, drop: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self._to_drop = drop

    def _send_heartbeat(self, lease_id: int) -> None:
        if self._to_drop > 0:
            self._to_drop -= 1
            self.log(f"{self.name}: chaos: dropping heartbeat for lease {lease_id}")
            return
        super()._send_heartbeat(lease_id)


class TornWriteWorker(Worker):
    """Die mid-append: the N-th store put writes half a line, then SIGKILL."""

    def __init__(self, *args, fatal_put: int = 1, **kwargs):
        super().__init__(*args, **kwargs)
        self.fatal_put = fatal_put

    def _prepare_store(self, store) -> None:
        remaining = self.fatal_put
        intact_append = store._append

        def torn_append(data: bytes) -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                intact_append(data)
                return
            cut = max(1, len(data) // 2)
            os.write(store._ensure_fd(), data[:cut])
            self.log(
                f"{self.name}: chaos: torn write ({cut}/{len(data)} bytes); SIGKILL"
            )
            os.kill(os.getpid(), signal.SIGKILL)

        store._append = torn_append


class StallingWorker(Worker):
    """Go silent between finishing the first lease and reporting it.

    The evaluation itself completes (every point is committed), but the
    worker neither heartbeats nor completes for ``stall`` seconds — long
    enough, with a short lease timeout, for the coordinator to expire the
    lease and hand the range to someone else.  The eventual late
    ``complete`` exercises the expired-lease tolerance path.
    """

    def __init__(self, *args, stall: float = 3.0, **kwargs):
        super().__init__(*args, **kwargs)
        self.stall = stall

    def _lease_complete(self, lease_id: int) -> None:
        if self.leases_completed == 0 and self.stall > 0:
            self.log(f"{self.name}: chaos: stalling {self.stall:g}s before "
                     f"completing lease {lease_id}")
            time.sleep(self.stall)
        super()._lease_complete(lease_id)


class DelayJoinWorker(Worker):
    """Hold the join until SIGUSR1: the test forces the join order."""

    HOLDING = "chaos: holding join until SIGUSR1"

    def _join(self) -> dict:
        released = threading.Event()
        signal.signal(signal.SIGUSR1, lambda *_args: released.set())
        self.log(f"{self.name}: {self.HOLDING}")
        while not released.wait(0.1):
            pass
        self.log(f"{self.name}: chaos: joining")
        return super()._join()


class DelayAckCoordinator(Coordinator):
    """Sleep before every ``ack`` (slow-coordinator latency injection)."""

    def __init__(self, *args, ack_delay: float = 0.5, **kwargs):
        self.ack_delay = ack_delay
        super().__init__(*args, **kwargs)

    def _send(self, connection, message: dict) -> None:
        if message.get("type") == "ack" and self.ack_delay > 0:
            time.sleep(self.ack_delay)
        super()._send(connection, message)


def _parse_chaos(text: str | None) -> tuple[str, float]:
    if not text:
        return "", 0.0
    kind, _, amount = text.partition(":")
    return kind, float(amount or 1)


# -- subprocess entry points ------------------------------------------------


def _run_serve(args: argparse.Namespace) -> int:
    spec = ExperimentSpec.from_json(args.experiment)
    kind, amount = _parse_chaos(args.chaos)
    options = dict(
        host=args.host,
        port=args.port,
        lease_size=args.lease_size,
        lease_timeout=args.lease_timeout,
        store_path=args.store,
    )
    if kind == "delay-ack":
        coordinator = DelayAckCoordinator(spec, ack_delay=amount, **options)
    elif kind:
        raise SystemExit(f"unknown coordinator chaos kind {kind!r}")
    else:
        coordinator = Coordinator(spec, **options)
    database = coordinator.serve()
    if args.out:
        database.to_json(args.out)
    return 0


def _run_worker(args: argparse.Namespace) -> int:
    address = parse_address(args.address)
    kind, amount = _parse_chaos(args.chaos)
    options = dict(spec_hash=args.spec_hash, name=args.name)
    if kind == "kill-after":
        worker = KillAroundCompleteWorker(
            address, fatal_lease=int(amount), phase="after", **options
        )
    elif kind == "kill-before":
        worker = KillAroundCompleteWorker(
            address, fatal_lease=int(amount), phase="before", **options
        )
    elif kind == "drop-heartbeat":
        worker = DropHeartbeatWorker(address, drop=int(amount), **options)
    elif kind == "torn-write":
        worker = TornWriteWorker(address, fatal_put=int(amount), **options)
    elif kind == "stall":
        worker = StallingWorker(address, stall=amount, **options)
    elif kind == "delay-join":
        worker = DelayJoinWorker(address, **options)
    elif kind:
        raise SystemExit(f"unknown worker chaos kind {kind!r}")
    else:
        worker = Worker(address, **options)
    return worker.run()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)

    serve = commands.add_parser("serve", help="run a (possibly chaotic) coordinator")
    serve.add_argument("experiment", type=Path)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0)
    serve.add_argument("--lease-size", type=int, default=None)
    serve.add_argument("--lease-timeout", type=float, default=None)
    serve.add_argument("--store", type=Path, default=None)
    serve.add_argument("--out", type=Path, default=None)
    serve.add_argument("--chaos", default="")

    worker = commands.add_parser("worker", help="run a (possibly chaotic) worker")
    worker.add_argument("address")
    worker.add_argument("--name", default="")
    worker.add_argument("--spec-hash", default="")
    worker.add_argument("--chaos", default="")

    args = parser.parse_args(argv)
    if args.command == "serve":
        return _run_serve(args)
    return _run_worker(args)


# -- test-side process management -------------------------------------------


class ManagedProcess:
    """A harness subprocess with its stdout pumped on a daemon thread.

    Pumping keeps the pipe from filling (which would deadlock the child)
    and lets tests block on specific log lines with :meth:`wait_for_line`.
    """

    def __init__(self, argv: list[str], name: str) -> None:
        self.name = name
        self.lines: list[str] = []
        self._condition = threading.Condition()
        self._eof = False
        self.process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            cwd=REPO_ROOT,
        )
        self._pump = threading.Thread(target=self._drain, daemon=True)
        self._pump.start()

    def _drain(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            with self._condition:
                self.lines.append(line.rstrip("\n"))
                self._condition.notify_all()
        with self._condition:
            self._eof = True
            self._condition.notify_all()

    def wait_for_line(self, pattern: str, timeout: float = 30.0) -> re.Match:
        """Block until a stdout line matches ``pattern``; returns the match."""
        compiled = re.compile(pattern)
        deadline = time.monotonic() + timeout
        scanned = 0
        with self._condition:
            while True:
                while scanned < len(self.lines):
                    match = compiled.search(self.lines[scanned])
                    scanned += 1
                    if match:
                        return match
                if self._eof:
                    raise AssertionError(
                        f"{self.name}: exited without matching {pattern!r}; "
                        f"output:\n" + "\n".join(self.lines)
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise AssertionError(
                        f"{self.name}: no line matching {pattern!r} within "
                        f"{timeout:g}s; output so far:\n" + "\n".join(self.lines)
                    )
                self._condition.wait(remaining)

    def wait(self, timeout: float = 60.0) -> int:
        """Wait for exit and the output pump; returns the exit code."""
        code = self.process.wait(timeout=timeout)
        self._pump.join(timeout=5.0)
        return code

    def signal(self, signum: int) -> None:
        """Deliver ``signum`` to the (still running) process."""
        self.process.send_signal(signum)

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait(timeout=5.0)

    @property
    def output(self) -> str:
        return "\n".join(self.lines)


def spawn_coordinator(
    experiment: Path,
    *,
    store: Path,
    out: Path | None = None,
    lease_size: int | None = None,
    lease_timeout: float | None = None,
    chaos: str = "",
) -> tuple[ManagedProcess, str]:
    """Start a coordinator subprocess; returns it plus its ``HOST:PORT``.

    Blocks until the coordinator announces the (ephemeral) port it bound.
    """
    argv = [
        sys.executable,
        str(HARNESS),
        "serve",
        str(experiment),
        "--store",
        str(store),
    ]
    if out is not None:
        argv += ["--out", str(out)]
    if lease_size is not None:
        argv += ["--lease-size", str(lease_size)]
    if lease_timeout is not None:
        argv += ["--lease-timeout", str(lease_timeout)]
    if chaos:
        argv += ["--chaos", chaos]
    process = ManagedProcess(argv, name="coordinator")
    match = process.wait_for_line(LISTENING.pattern)
    return process, f"{match.group(1)}:{match.group(2)}"


def spawn_worker(
    address: str,
    *,
    name: str,
    spec_hash: str = "",
    chaos: str = "",
) -> ManagedProcess:
    """Start a worker subprocess connected to ``address`` (``HOST:PORT``)."""
    argv = [sys.executable, str(HARNESS), "worker", address, "--name", name]
    if spec_hash:
        argv += ["--spec-hash", spec_hash]
    if chaos:
        argv += ["--chaos", chaos]
    return ManagedProcess(argv, name=name)


if __name__ == "__main__":
    raise SystemExit(main())
