"""Crash-tolerant job runtime: checkpoints, watchdog deadlines, retries.

Three cooperating modules wrap :class:`~repro.assembly.pipeline.PimPipeline`
into resumable, deadline-bounded jobs:

* :mod:`repro.runtime.checkpoint` — content-hashed stage-boundary
  journal (`kill -9`-safe; resumes are bit-identical),
* :mod:`repro.runtime.watchdog` — cooperative cancellation checkpoints
  with per-stage / whole-job deadline budgets,
* :mod:`repro.runtime.jobs` — the :class:`JobRunner` retry ladder
  (quarantine, roll back to the last journaled record, re-run).

The assembly modules import :func:`checkpoint` from here, and
``jobs`` imports the assembly pipeline — so the jobs symbols are
exposed lazily to keep the import graph acyclic.
"""

from __future__ import annotations

from repro.runtime.checkpoint import JobJournal, RecordRef
from repro.runtime.watchdog import Watchdog, active_watchdog, checkpoint

__all__ = [
    "JobJournal",
    "RecordRef",
    "Watchdog",
    "active_watchdog",
    "checkpoint",
    # lazily resolved from repro.runtime.jobs:
    "JobConfig",
    "JobDecision",
    "JobOutcome",
    "JobReport",
    "JobRunner",
    "reads_fingerprint",
]

_JOBS_EXPORTS = {
    "JobConfig",
    "JobDecision",
    "JobOutcome",
    "JobReport",
    "JobRunner",
    "reads_fingerprint",
}


def __getattr__(name: str):
    if name in _JOBS_EXPORTS:
        from repro.runtime import jobs

        return getattr(jobs, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
