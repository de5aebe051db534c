"""Multi-process cluster tests: byte-identity under fault injection.

Every test here spawns a *real* 3-process cluster — one coordinator and two
workers, launched as OS processes through ``distrib_harness.py`` — runs the
same experiment single-host in-process, and asserts the two artefacts are
**byte-identical**.  The fault matrix:

* clean cluster (no faults),
* a worker SIGKILLed mid-sweep and restarted (its abandoned range is
  requeued on disconnect and resumed from the store),
* a lease that expires (the worker goes silent) and is re-leased to
  another worker while the original eventually reports late,
* a worker SIGKILLed *mid-store-append* (a torn write the loader must
  recover from; the resumed sweep re-evaluates only the lost points),
* a worker that joins only after the sweep finished (it must be told
  ``done`` and exit cleanly, not find the port closed).

``make verify-cluster`` runs this file; the CI cluster job selects the
clean and the killed-worker variants as its matrix.
"""

import re
import signal
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import distrib_harness as harness  # noqa: E402

from repro.api.spec import ExperimentSpec  # noqa: E402
from repro.cli import main  # noqa: E402
from repro.core.store import ResultStore  # noqa: E402

pytestmark = pytest.mark.timeout(180)

SIGKILLED = -9

PROFILED = r"lease \d+ \[{start},{stop}\) done: (\d+) profiled, (\d+) from store"


@pytest.fixture()
def cluster(tmp_path):
    """Spec file, store/artefact paths, and the single-host reference bytes."""
    spec = ExperimentSpec.from_dict(
        {
            "spec_version": 1,
            "workload": {"name": "uniform", "params": {"operations": 300}},
            "space": "smoke",
            "seed": 1,
        }
    )
    experiment = tmp_path / "experiment.json"
    spec.to_json(experiment)
    reference = tmp_path / "single-host.json"
    assert main(["run", str(experiment), "--out", str(reference)]) == 0
    return {
        "experiment": experiment,
        "store": tmp_path / "store.jsonl",
        "out": tmp_path / "cluster.json",
        "reference": reference.read_bytes(),
    }


def assert_byte_identical(cluster):
    produced = cluster["out"].read_bytes()
    assert produced == cluster["reference"], (
        "distributed artefact differs from the single-host run "
        f"({len(produced)} vs {len(cluster['reference'])} bytes)"
    )


class TestCleanCluster:
    def test_clean_cluster_matches_single_host(self, cluster):
        coordinator, address = harness.spawn_coordinator(
            cluster["experiment"],
            store=cluster["store"],
            out=cluster["out"],
            lease_size=3,
        )
        workers = [
            harness.spawn_worker(address, name=f"w{i}") for i in (1, 2)
        ]
        try:
            assert coordinator.wait() == 0
            assert [w.wait() for w in workers] == [0, 0]
        finally:
            coordinator.kill()
            for worker in workers:
                worker.kill()
        assert_byte_identical(cluster)
        assert "sweep complete: 8 records" in coordinator.output


class TestKilledWorker:
    def test_killed_and_restarted_worker_matches_single_host(self, cluster):
        coordinator, address = harness.spawn_coordinator(
            cluster["experiment"],
            store=cluster["store"],
            out=cluster["out"],
            lease_size=2,
        )
        # w1 evaluates its second lease fully, then dies *before* reporting
        # it: the coordinator must requeue the range on disconnect, and the
        # successor must find every point already in the store.
        victim = harness.spawn_worker(address, name="w1", chaos="kill-before:2")
        survivors = []
        try:
            assert victim.wait() == SIGKILLED
            coordinator.wait_for_line(r"worker w1 gone .*requeued 1 lease")
            survivors = [
                harness.spawn_worker(address, name="w1"),  # the restart
                harness.spawn_worker(address, name="w2"),
            ]
            assert coordinator.wait() == 0
            assert [w.wait() for w in survivors] == [0, 0]
        finally:
            coordinator.kill()
            for worker in [victim, *survivors]:
                worker.kill()
        assert_byte_identical(cluster)
        # The re-leased range was recovered from the store, not re-profiled.
        recovered = re.search(
            PROFILED.format(start=2, stop=4),
            survivors[0].output + survivors[1].output,
        )
        assert recovered is not None
        assert recovered.groups() == ("0", "2")


class TestExpiredLease:
    def test_expired_lease_is_releases_and_late_completion_tolerated(
        self, cluster
    ):
        coordinator, address = harness.spawn_coordinator(
            cluster["experiment"],
            store=cluster["store"],
            out=cluster["out"],
            lease_size=4,
            lease_timeout=1.0,
        )
        # w1 takes [0,4), commits every point, then goes silent for longer
        # than the lease timeout before reporting completion.
        stalled = harness.spawn_worker(address, name="w1", chaos="stall:4")
        coordinator.wait_for_line(r"lease 1 \[0,4\) -> w1")
        fresh = harness.spawn_worker(address, name="w2")
        try:
            coordinator.wait_for_line(r"lease 1 \[0,4\) of w1 expired; requeued")
            assert coordinator.wait() == 0
            assert fresh.wait() == 0
            # The stalled worker exits cleanly when its late completion
            # lands inside the drain window, or with the connection-lost
            # code when the coordinator is already gone — never a crash.
            assert stalled.wait() in (0, 3)
        finally:
            coordinator.kill()
            stalled.kill()
            fresh.kill()
        assert_byte_identical(cluster)
        # The re-leased range cost nothing: all four points were committed
        # by the stalled worker before it went silent.
        releases = re.search(PROFILED.format(start=0, stop=4), fresh.output)
        assert releases is not None
        assert releases.groups() == ("0", "4")


class TestTornWrite:
    def test_torn_write_is_recovered_and_only_lost_points_reprofiled(
        self, cluster
    ):
        coordinator, address = harness.spawn_coordinator(
            cluster["experiment"],
            store=cluster["store"],
            out=cluster["out"],
            lease_size=4,
        )
        # w1 commits two points of [0,4) intact, then dies halfway through
        # writing the third entry line: point 2's bytes are torn, point 3
        # was never evaluated.
        victim = harness.spawn_worker(address, name="w1", chaos="torn-write:3")
        successor = None
        try:
            assert victim.wait() == SIGKILLED
            coordinator.wait_for_line(r"worker w1 gone .*requeued 1 lease")
            successor = harness.spawn_worker(address, name="w2")
            assert coordinator.wait() == 0
            assert successor.wait() == 0
        finally:
            coordinator.kill()
            victim.kill()
            if successor is not None:
                successor.kill()
        assert_byte_identical(cluster)
        # Exactly the torn and the never-evaluated point were re-profiled;
        # the two intact commits were served from the store.
        resumed = re.search(PROFILED.format(start=0, stop=4), successor.output)
        assert resumed is not None
        assert resumed.groups() == ("2", "2")
        # A fresh loader sees (and skips) the torn line.
        store = ResultStore(cluster["store"])
        assert store.corrupt_entries == 1
        assert len(store) == 8


class TestLateJoiner:
    def test_worker_joining_after_the_sweep_exits_cleanly(self, cluster):
        coordinator, address = harness.spawn_coordinator(
            cluster["experiment"],
            store=cluster["store"],
            out=cluster["out"],
            lease_size=3,
        )
        # w2 is started first but holds its hello until signalled; w1
        # drains the whole sweep, and only then is w2 released.
        late = harness.spawn_worker(address, name="w2", chaos="delay-join")
        early = None
        try:
            late.wait_for_line(harness.DelayJoinWorker.HOLDING)
            early = harness.spawn_worker(address, name="w1")
            coordinator.wait_for_line(r"sweep complete: 8 records")
            late.signal(signal.SIGUSR1)
            assert late.wait() == 0
            assert early.wait() == 0
            assert coordinator.wait() == 0
        finally:
            coordinator.kill()
            late.kill()
            if early is not None:
                early.kill()
        assert_byte_identical(cluster)
        assert "worker w2 joined after the sweep; done" in coordinator.output
        assert "sweep already complete" in late.output
        assert "['w1']" in coordinator.output
