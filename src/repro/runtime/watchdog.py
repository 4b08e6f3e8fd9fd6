"""Cooperative deadline enforcement for long-running assembly jobs.

A :class:`Watchdog` holds per-stage and whole-job wall-clock budgets.
The compute loops of the three Fig. 5a stages — the Hashmap insert
loop, the Wallace adjacency reduction and the Euler/unitig traversal —
poll :func:`checkpoint` at their inner-loop cancellation points.  When
an active watchdog's budget has expired, the poll raises a typed
:class:`~repro.errors.StageTimeoutError`; because the job layer only
journals *completed* stage boundaries, the journal on disk is always a
valid resume point when the error unwinds.

The poll is designed to be cheap enough for per-k-mer call sites: every
call bumps a counter, and only every ``stride``-th call reads the
clock.  Activation is a context manager over a *thread-local* slot, so
deep loops need no plumbing and jobs run on concurrent threads each
enforce their own budgets without cross-talk::

    wd = Watchdog(stage_budget_s=30.0)
    with wd.active(), wd.stage("hashmap"):
        ...  # any checkpoint() call past the budget raises

Tests (and the crash/resume property harness) can observe or interrupt
execution at the exact same points via ``on_tick``, which fires on
every poll *before* the deadline check.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterator, Mapping
from contextlib import contextmanager

from repro.errors import StageTimeoutError
from repro.observability.spans import event

__all__ = ["Watchdog", "checkpoint", "active_watchdog"]

#: per-thread slot for the currently active watchdog — a job running on
#: its own thread cancels only itself
_TLS = threading.local()


def checkpoint() -> None:
    """Cancellation point: cheap no-op unless a watchdog is active."""
    active = getattr(_TLS, "watchdog", None)
    if active is not None:
        active.tick()


def active_watchdog() -> "Watchdog | None":
    """This thread's watchdog installed by :meth:`Watchdog.active`."""
    return getattr(_TLS, "watchdog", None)


class Watchdog:
    """Per-stage and whole-job deadline budgets, cooperatively enforced.

    Args:
        job_budget_s: wall-clock budget for the whole job (``None``
            disables the job deadline).
        stage_budget_s: default budget applied to every stage.
        stage_budgets: per-stage overrides, e.g. ``{"hashmap": 120.0}``.
        stride: clock-read interval — deadline checks happen every
            ``stride``-th :meth:`tick`; 1 checks on every poll.
        clock: monotonic-seconds source (injectable for tests).
        on_tick: called on *every* poll with the running tick count;
            lets tests simulate crashes at randomized kill points.
    """

    def __init__(
        self,
        job_budget_s: float | None = None,
        stage_budget_s: float | None = None,
        stage_budgets: Mapping[str, float] | None = None,
        stride: int = 64,
        clock: Callable[[], float] = time.monotonic,
        on_tick: Callable[[int], None] | None = None,
    ) -> None:
        if stride < 1:
            raise ValueError("stride must be >= 1")
        for name, value in (
            ("job_budget_s", job_budget_s),
            ("stage_budget_s", stage_budget_s),
        ):
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive")
        self.job_budget_s = job_budget_s
        self.stage_budget_s = stage_budget_s
        self.stage_budgets = dict(stage_budgets or {})
        self.stride = stride
        self.clock = clock
        self.on_tick = on_tick
        self._ticks = 0
        self._job_start: float | None = None
        self._stage_start: float | None = None
        self._stage: str = "<no stage>"

    # ----- lifecycle --------------------------------------------------------

    @contextmanager
    def active(self) -> Iterator["Watchdog"]:
        """Install this watchdog as this thread's cancellation target."""
        previous = getattr(_TLS, "watchdog", None)
        _TLS.watchdog = self
        if self._job_start is None:
            self._job_start = self.clock()
        try:
            yield self
        finally:
            _TLS.watchdog = previous

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Scope a stage budget; nested stages are not supported."""
        self._stage = name
        self._stage_start = self.clock()
        event(
            "watchdog.stage.enter",
            lane="watchdog",
            stage=name,
            budget_s=self.stage_budgets.get(name, self.stage_budget_s),
        )
        try:
            yield
        finally:
            event(
                "watchdog.stage.exit",
                lane="watchdog",
                stage=name,
                ticks=self._ticks,
            )
            self._stage_start = None
            self._stage = "<no stage>"

    # ----- polling ----------------------------------------------------------

    def tick(self) -> None:
        """One cancellation poll (called via :func:`checkpoint`)."""
        self._ticks += 1
        if self.on_tick is not None:
            self.on_tick(self._ticks)
        if self._ticks % self.stride == 0:
            self.check_now()

    def check_now(self) -> None:
        """Read the clock and raise if any active budget is exhausted."""
        now = self.clock()
        if self.job_budget_s is not None and self._job_start is not None:
            elapsed = now - self._job_start
            if elapsed > self.job_budget_s:
                event(
                    "watchdog.timeout",
                    lane="watchdog",
                    stage=self._stage,
                    scope="job",
                    budget_s=self.job_budget_s,
                    elapsed_s=elapsed,
                )
                raise StageTimeoutError(
                    self._stage, "job", self.job_budget_s, elapsed
                )
        budget = self.stage_budgets.get(self._stage, self.stage_budget_s)
        if budget is not None and self._stage_start is not None:
            elapsed = now - self._stage_start
            if elapsed > budget:
                event(
                    "watchdog.timeout",
                    lane="watchdog",
                    stage=self._stage,
                    scope="stage",
                    budget_s=budget,
                    elapsed_s=elapsed,
                )
                raise StageTimeoutError(self._stage, "stage", budget, elapsed)

    @property
    def ticks(self) -> int:
        """Total cancellation polls observed (test/diagnostic aid)."""
        return self._ticks
