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

The simulated clock is fed by the session's own
:class:`~repro.observability.metrics.Recorder`: every stats-ledger
record the run charges flows through :meth:`on_command`, which
advances the tracer's simulated timestamp, folds the event into the
registry, deposits its energy into the power timeline, and pushes it
onto the flight-recorder ring.  Ledgers connect through
:func:`connect_ledger`, which
:class:`~repro.core.platform.PimAssembler` calls at construction — a
no-op unless a session is active, so the default simulator keeps its
zero-instrumentation cost and job resumes (which rebuild the platform
mid-run) reconnect automatically.

One lock serialises :meth:`on_command`: jobs run on concurrent threads
may share a single session, and the power timeline's conservation
invariant (bit-exact against the ledger) does not survive lost
updates.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from typing import Iterator

from repro.observability.export import (
    subarray_utilization,
    write_chrome_trace,
    write_metrics,
)
from repro.observability.exposition import write_exposition
from repro.observability.flightrec import FlightRecorder
from repro.observability.metrics import MetricsRegistry
from repro.observability.power import DEFAULT_POWER_LANE, PowerTimeline
from repro.observability.spans import Tracer

__all__ = ["ObservabilitySession", "active_session", "connect_ledger"]

#: the currently active session (single-threaded cooperative model)
_ACTIVE: "ObservabilitySession | None" = None


class ObservabilitySession:
    """Tracer + registry + power timeline + flight recorder, as one unit.

    Args:
        power_bin_ns: bin width of the power timeline (simulated ns);
            ``None`` keeps the default.
        flight: pass ``False`` to skip the flight recorder (micro-
            benchmarks measuring the enabled path without ring pushes).
    """

    def __init__(
        self,
        power_bin_ns: "float | None" = None,
        flight: bool = True,
    ) -> None:
        self.registry = MetricsRegistry()
        self._sim_time_ns = 0.0
        self.tracer = Tracer(sim_clock=lambda: self._sim_time_ns)
        self.power = (
            PowerTimeline(bin_ns=power_bin_ns)
            if power_bin_ns is not None
            else PowerTimeline()
        )
        self.flight = FlightRecorder() if flight else None
        if self.flight is not None:
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
        """Advance the simulated clock and fan the event out.

        The lane is the ledger phase (``"job"`` outside any phase), so
        the power timeline and the flight ring agree on who burned the
        energy.
        """
        lane = phase if phase is not None else DEFAULT_POWER_LANE
        with self._lock:
            self._sim_time_ns += time_ns
            self.registry.on_command(command, count, time_ns, energy_nj, phase)
            self.power.on_command(
                command, count, time_ns, energy_nj, phase, lane=lane
            )
            if self.flight is not None:
                self.flight.on_command(
                    command,
                    count,
                    time_ns,
                    energy_nj,
                    phase,
                    sim_ns=self._sim_time_ns,
                    lane=lane,
                )

    @property
    def sim_time_ns(self) -> float:
        """Cumulative simulated nanoseconds observed by this session."""
        return self._sim_time_ns

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
        """Dump the flight rings into ``job_dir`` (no-op without rings)."""
        if self.flight is None:
            return None
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
        telemetry_path: "str | None" = None,
    ) -> list[str]:
        """Write the requested artefacts; returns the written paths."""
        written: list[str] = []
        heatmap = self.snapshot_platform(pim) if pim is not None else []
        self.power.publish_gauges(self.registry)
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
        if telemetry_path:
            written.append(
                str(
                    write_exposition(
                        telemetry_path,
                        self.registry,
                        extra={"power": self.power.summary()},
                    )
                )
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
