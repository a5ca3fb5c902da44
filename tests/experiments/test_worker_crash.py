"""``--jobs N`` survives its workers: a killed local worker costs only its cell.

``ParallelExecutor`` runs the lease coordinator on a loopback port with
local workers it owns, so a SIGKILLed worker's lease is re-queued and a
replacement starts, up to ``MAX_LOCAL_RESPAWNS``; past that budget the sweep
stops with a typed error and the cells it finished stay journaled.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass
from typing import ClassVar

import pytest

from repro.experiments import (
    ParallelExecutor,
    ScaleSettings,
    cluster,
    plan_study,
    results_equivalent,
    run_study_plan,
)
from repro.experiments.resilience import CellOutcome
from repro.faults import FaultType
from repro.telemetry import read_trace, validate_trace

from .test_executors import MICRO
from .test_resilience import _make_result

#: Four real-training cells: two per worker, so a killed worker is holding
#: its second lease.
PLAN = plan_study(
    scale=MICRO,
    models=("convnet",),
    datasets=("pneumonia",),
    fault_types=(FaultType.MISLABELLING, FaultType.REMOVAL),
    rates=(0.1, 0.3),
    techniques=["baseline"],
)


def child_pids() -> set[int]:
    return {proc.pid for proc in multiprocessing.active_children()}


def journaled_keys(path) -> list[str]:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    return [row["key"] for row in rows if row["kind"] == "cell"]


def sockets_of(pid: int) -> set[str]:
    """The sockets open in process ``pid`` (Linux ``/proc``)."""
    found = set()
    try:
        fds = os.listdir(f"/proc/{pid}/fd")
    except OSError:
        return found  # exited since it was listed
    for fd in fds:
        try:
            target = os.readlink(f"/proc/{pid}/fd/{fd}")
        except OSError:
            continue  # closed since the listing
        if target.startswith("socket:"):
            found.add(target)
    return found


class TestKilledWorker:
    @pytest.fixture(scope="class")
    def sweep(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("killed")
        before = child_pids()
        has_proc = os.path.isdir("/proc/self/fd")
        #: Sockets this process held before the sweep (stdin may be one).
        ours = sockets_of(os.getpid()) if has_proc else set()
        killed: list[int] = []
        pids: dict[str, int] = {}
        shared: list[dict[int, set]] = []

        def kill_first_worker(index, unit, outcome):
            pids[unit.key] = outcome.pid
            if killed:
                if has_proc:
                    # The coordinator's sockets that a worker also holds.  A
                    # just-forked replacement closes its copies a moment
                    # after it starts, so poll briefly.
                    deadline = time.monotonic() + 2.0
                    while True:
                        coordinator = sockets_of(os.getpid()) - ours
                        sample = {
                            pid: sockets_of(pid) & coordinator
                            for pid in child_pids() - before
                        }
                        if not any(sample.values()) or time.monotonic() > deadline:
                            break
                        time.sleep(0.01)
                    shared.append(sample)
                return
            # The worker that sent the first result already holds its next
            # lease (dispatch precedes the yield), so this kill loses that
            # cell mid-fit.
            killed.append(outcome.pid)
            os.kill(outcome.pid, signal.SIGKILL)

        report = run_study_plan(
            PLAN, executor=ParallelExecutor(jobs=2),
            checkpoint=tmp / "study.jsonl", trace=tmp / "trace.jsonl",
            on_outcome=kill_first_worker,
        )
        return dict(
            report=report, tmp=tmp, killed=killed[0], pids=pids,
            shared=shared, left=child_pids() - before,
        )

    def test_sweep_completes_with_each_key_journaled_once(self, sweep):
        assert sweep["report"].ok and sweep["report"].executed == len(PLAN)
        keys = journaled_keys(sweep["tmp"] / "study.jsonl")
        assert sorted(keys) == sorted(u.key for u in PLAN)

    def test_results_equivalent_to_serial(self, sweep):
        serial = run_study_plan(PLAN)
        assert results_equivalent(serial.results, sweep["report"].results)

    def test_trace_records_the_lost_lease(self, sweep):
        events = read_trace(sweep["tmp"] / "trace.jsonl")
        validate_trace(events)
        lost = [e for e in events if e.get("name") == "worker_lost"]
        assert len(lost) == 1
        assert lost[0]["reason"] == "disconnected"
        assert lost[0]["worker"].endswith(f":{sweep['killed']}")
        # The lost cell was re-run, and by another worker.
        assert sweep["pids"][lost[0]["key"]] != sweep["killed"]

    def test_no_child_process_outlives_the_sweep(self, sweep):
        assert sweep["left"] == set()

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc")
    def test_workers_hold_no_coordinator_socket(self, sweep):
        # A forked worker, the replacement included, closes its copies of the
        # listener and of the other workers' connections, so a worker the
        # coordinator drops sees its connection close.
        assert sweep["shared"]
        for sample in sweep["shared"]:
            assert not any(sample.values()), sample


@dataclass(frozen=True)
class ExitingUnit:
    """A picklable plan unit; ``exit_worker`` units end their worker process."""

    trace_spans: ClassVar[tuple[str, str]] = ("study", "unit")
    scale: ClassVar[ScaleSettings] = MICRO
    key: str
    exit_worker: bool = False

    def span_attrs(self) -> dict:
        return {"key": self.key}

    def execute(self, runner, retry) -> CellOutcome:
        if self.exit_worker:
            os._exit(3)
        return CellOutcome(
            result=_make_result("pneumonia", "convnet", "baseline", self.key),
            attempts=1,
        )


class TestRespawnBudget:
    #: Seconds for 2 + ``MAX_LOCAL_RESPAWNS`` workers to start and die; each
    #: takes a fork, one lease and one coordinator turn (~0.3 s here).
    BOUND_S = 30.0

    def test_exhausted_budget_raises_typed_error_and_keeps_the_journal(self, tmp_path):
        plan = [ExitingUnit("a"), ExitingUnit("b"), ExitingUnit("poison", exit_worker=True)]
        before = child_pids()
        start = time.monotonic()
        with pytest.raises(cluster.WorkersLostError) as info:
            run_study_plan(
                plan, executor=ParallelExecutor(jobs=2),
                checkpoint=tmp_path / "study.jsonl",
            )
        elapsed = time.monotonic() - start
        assert elapsed < self.BOUND_S
        assert info.value.key == "poison"
        assert f"all {cluster.MAX_LOCAL_RESPAWNS} replacements" in str(info.value)
        assert sorted(journaled_keys(tmp_path / "study.jsonl")) == ["a", "b"]
        assert child_pids() - before == set()
