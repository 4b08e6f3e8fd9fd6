"""Concurrent `JobRunner` execution equals serial execution, bit for bit.

`JobRunner` is thread-safe as a library: a caller may run many jobs on
their own threads.  This file pins the contract that makes that safe:
N jobs on distinct job-dirs executed concurrently produce exactly the
outputs of the same jobs run serially
— on both execution engines, with per-thread watchdogs active (the
deadline slots are thread-local, so one job's budget never cancels
another's).
"""

import threading

import pytest

from repro.runtime.jobs import JobConfig, JobRunner
from repro.runtime.watchdog import Watchdog, active_watchdog

from .test_jobs import K, make_reads, run_fingerprint

N_JOBS = 4


def _workloads():
    return [make_reads(seed=100 + i, genome_bp=300) for i in range(N_JOBS)]


@pytest.mark.parametrize("engine", ["scalar", "bulk"])
def test_threaded_jobs_match_serial_baseline(tmp_path, engine):
    workloads = _workloads()
    config = JobConfig(k=K, engine=engine)

    serial = []
    for i, reads in enumerate(workloads):
        out = JobRunner(tmp_path / f"serial-{i}", config).run(reads)
        serial.append(run_fingerprint(out.result))

    results: dict[int, tuple] = {}
    errors: list = []

    def work(i: int, reads) -> None:
        try:
            watchdog = Watchdog(stage_budget_s=600.0)
            out = JobRunner(
                tmp_path / f"thread-{i}", config, watchdog=watchdog
            ).run(reads)
            results[i] = run_fingerprint(out.result)
        except BaseException as exc:  # pragma: no cover - diagnostics
            errors.append((i, exc))

    threads = [
        threading.Thread(target=work, args=(i, reads))
        for i, reads in enumerate(workloads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=600)
    assert not errors, f"concurrent jobs failed: {errors}"
    assert len(results) == N_JOBS
    for i in range(N_JOBS):
        assert results[i] == serial[i], f"job {i} diverged under concurrency"


def test_watchdog_slots_are_thread_local():
    """One thread's active watchdog is invisible to another thread."""
    outer = Watchdog()
    seen: list = []

    def probe():
        seen.append(active_watchdog())
        inner = Watchdog()
        with inner.active():
            seen.append(active_watchdog())

    with outer.active():
        thread = threading.Thread(target=probe)
        thread.start()
        thread.join(timeout=30)
        assert active_watchdog() is outer
    assert seen[0] is None
    assert seen[1] is not outer
