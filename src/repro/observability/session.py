"""One-stop wiring of the observability layer around a run.

:class:`ObservabilitySession` bundles the pieces — a span
:class:`~repro.observability.spans.Tracer`, a
:class:`~repro.observability.metrics.MetricsRegistry`, a
:class:`~repro.observability.power.PowerTimeline`, a
:class:`~repro.observability.flightrec.FlightRecorder`, and the
simulated-clock bridge between them — and activates them together::

    session = ObservabilitySession()
    with session.activate():
        result = assemble_with_pim(reads, k=21)
    session.export(trace_path="t.json", metrics_path="m.json", pim=pim)

Every stats-ledger record the run charges flows through the session's
own :class:`~repro.observability.metrics.Recorder` — :meth:`on_command`
for one record, :meth:`on_batch` for a kernel's ordered stream — into
exactly one accumulator, the power timeline, and onto the
flight-recorder ring.  The timeline's cursor is the simulated clock the
tracer and the flight ring read, and its per-mnemonic and per-stage
sums are published into the registry at :meth:`export`.  Ledgers
connect through :func:`connect_ledger`, which
:class:`~repro.core.platform.PimAssembler` calls at construction — a
no-op unless a session is active, so the default simulator keeps its
zero-instrumentation cost and job resumes (which rebuild the platform
mid-run) reconnect automatically.

One lock serialises both entry points: jobs run on concurrent threads
may share a single session, and the power timeline's conservation
invariant (bit-exact against the ledger) does not survive lost
updates.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from typing import Iterator, Sequence

import numpy as np

from repro.observability.export import (
    subarray_utilization,
    write_chrome_trace,
    write_metrics,
)
from repro.observability.flightrec import FlightRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.power import PowerTimeline
from repro.observability.spans import Tracer

__all__ = ["ObservabilitySession", "active_session", "connect_ledger"]

#: the currently active session (single-threaded cooperative model)
_ACTIVE: "ObservabilitySession | None" = None


class ObservabilitySession:
    """Tracer + registry + power timeline + flight recorder, as one unit."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()
        self.power = PowerTimeline()
        power = self.power
        # the clock holds the timeline, not the session, so a finished
        # session frees itself by refcount
        self.tracer = Tracer(sim_clock=lambda: power.cursor_ns)
        self.flight = FlightRecorder()
        self.tracer.listener = self.flight
        self._lock = threading.Lock()

    # ----- the Recorder fed to every connected StatsLedger -------------------

    def on_command(
        self,
        command: str,
        count: int,
        time_ns: float,
        energy_nj: float,
        phase: "str | None",
    ) -> None:
        """Fold one ledger record into the timeline and the flight ring."""
        with self._lock:
            self.power.on_command(command, count, time_ns, energy_nj, phase)
            self.flight.on_command(
                command,
                count,
                time_ns,
                energy_nj,
                phase,
                sim_ns=self.power.cursor_ns,
            )

    def on_batch(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        counts: np.ndarray,
        time_ns: np.ndarray,
        energy_nj: np.ndarray,
        phase: "str | None",
    ) -> None:
        """Fold an ordered stream of ledger records, as :meth:`on_command`
        per record would."""
        with self._lock:
            sim_ns = self.power.on_batch(
                names, codes, counts, time_ns, energy_nj, phase
            )
            self.flight.on_batch(
                names, codes, counts, time_ns, energy_nj, phase, sim_ns
            )

    @property
    def sim_time_ns(self) -> float:
        """Cumulative simulated nanoseconds observed by this session."""
        return self.power.cursor_ns

    # ----- lifecycle --------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["ObservabilitySession"]:
        """Install the session, its tracer and its registry globally."""
        global _ACTIVE
        previous = _ACTIVE
        _ACTIVE = self
        with ExitStack() as stack:
            stack.enter_context(self.tracer.activate())
            stack.enter_context(self.registry.activate())
            try:
                yield self
            finally:
                _ACTIVE = previous

    # ----- failure handling --------------------------------------------------

    def dump_flight(self, job_dir, reason: str):
        """Dump the flight rings into ``job_dir``."""
        return self.flight.dump(job_dir, reason)

    # ----- export -----------------------------------------------------------

    def snapshot_platform(self, pim) -> list[dict]:
        """Fold a platform's sub-array occupancy into gauges; return it."""
        records = subarray_utilization(pim)
        for record in records:
            key = f"{record['bank']}.{record['mat']}.{record['subarray']}"
            self.registry.gauge(f"pim.subarray.rows_used.{key}").set(
                record["rows_used"]
            )
        self.registry.gauge("pim.subarray.touched").set(len(records))
        if records:
            self.registry.gauge("pim.subarray.max_utilization").set(
                max(r["utilization"] for r in records)
            )
        return records

    def export(
        self,
        trace_path: "str | None" = None,
        metrics_path: "str | None" = None,
        pim=None,
    ) -> list[str]:
        """Write the requested artefacts; returns the written paths."""
        written: list[str] = []
        heatmap = self.snapshot_platform(pim) if pim is not None else []
        self.power.publish(self.registry)
        if trace_path:
            written.append(
                str(write_chrome_trace(trace_path, self.tracer,
                                       power=self.power))
            )
        if metrics_path:
            extra: dict = {"power": self.power.summary()}
            if heatmap:
                extra["subarray_heatmap"] = heatmap
            written.append(
                str(write_metrics(metrics_path, self.registry, extra=extra))
            )
        return written


def active_session() -> "ObservabilitySession | None":
    """The session currently installed by :meth:`ObservabilitySession.activate`."""
    return _ACTIVE


def connect_ledger(ledger) -> None:
    """Attach the active session's recorder to a stats ledger.

    Called by :class:`~repro.core.platform.PimAssembler` when it builds
    (or rebuilds, on resume) its ledger; a cheap no-op when no session
    is active, so construction stays instrumentation-free by default.
    """
    if _ACTIVE is not None:
        ledger.attach_recorder(_ACTIVE)
