"""Structured span tracing for the PIM-Assembler execution path.

A :class:`Tracer` records *spans* — named, attributed, parent/child
nested intervals — on two clocks at once:

* the host's monotonic wall clock (``time.perf_counter_ns``), which
  measures how long the *simulator* took;
* the **simulated device clock**, the cumulative modeled nanoseconds
  the :class:`~repro.core.stats.StatsLedger` has charged, which
  measures how long the *modeled hardware* took.

Both timelines ride every span, so one trace answers both "where does
the simulation spend python time" and "where does the device spend
device time" — the per-stage breakdown of the paper's Fig. 9, but
end-to-end correlated with resilience recoveries, watchdog deadlines
and job-ladder decisions.

Instrumentation call sites use the module-level :func:`span` and
:func:`event` helpers, which are **off by default**: without an active
tracer they cost one global load and return a shared no-op context
manager, so the instrumented hot paths carry no measurable overhead
(the contract benchmarked by ``benchmarks/bench_observability_overhead``).

Activation is a context manager over a *thread-local* slot, mirroring
the watchdog's design: each thread running a job traces (or doesn't)
independently, so one tracer's span stack can never be corrupted by a
concurrent job's nesting::

    tracer = Tracer(sim_clock=lambda: ledger.elapsed_ns())
    with tracer.activate():
        with span("stage.hashmap", lane="hashmap", engine="bulk"):
            ...
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

__all__ = [
    "Span",
    "SpanEvent",
    "Tracer",
    "active_tracer",
    "event",
    "span",
]

#: per-thread slot for the currently active tracer
_TLS = threading.local()

#: lane a root span lands in when none is given
DEFAULT_LANE = "job"


@dataclass
class Span:
    """One named interval on both clocks.

    Attributes:
        name: span name (dotted, e.g. ``"stage.hashmap"``).
        span_id: unique id within the tracer (issue order, from 1).
        parent_id: enclosing span's id (``None`` for roots).
        lane: timeline lane the span renders in (inherited from the
            parent when not given; pipeline stages use their stage
            name so each stage gets its own Perfetto track).
        wall_start_ns / wall_end_ns: host monotonic timestamps.
        sim_start_ns / sim_end_ns: simulated-device timestamps.
        attributes: arbitrary JSON-able key/values.
    """

    name: str
    span_id: int
    parent_id: "int | None"
    lane: str
    wall_start_ns: int
    sim_start_ns: float
    wall_end_ns: "int | None" = None
    sim_end_ns: "float | None" = None
    attributes: dict = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.wall_end_ns is not None

    @property
    def wall_duration_ns(self) -> int:
        if self.wall_end_ns is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.wall_end_ns - self.wall_start_ns

    @property
    def sim_duration_ns(self) -> float:
        if self.sim_end_ns is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.sim_end_ns - self.sim_start_ns

    def set_attribute(self, key: str, value: Any) -> None:
        self.attributes[key] = value


@dataclass(frozen=True)
class SpanEvent:
    """One instant event (a point, not an interval) on a lane."""

    name: str
    lane: str
    wall_ns: int
    sim_ns: float
    attributes: dict = field(default_factory=dict)


class _NoopSpan:
    """Shared do-nothing stand-in returned when tracing is inactive."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set_attribute(self, key: str, value: Any) -> None:
        pass


_NOOP = _NoopSpan()


class Tracer:
    """Collects spans and instant events on the dual clock.

    Args:
        sim_clock: returns the current simulated time in nanoseconds
            (typically the stats ledger's cumulative charged time);
            defaults to a constant 0 so a tracer works standalone.
        wall_clock: monotonic nanosecond source (injectable for tests).
    """

    def __init__(
        self,
        sim_clock: "Callable[[], float] | None" = None,
        wall_clock: Callable[[], int] = time.perf_counter_ns,
    ) -> None:
        self.sim_clock = sim_clock or (lambda: 0.0)
        self.wall_clock = wall_clock
        self._spans: list[Span] = []
        self._events: list[SpanEvent] = []
        self._stack: list[Span] = []
        self._next_id = 1
        #: optional sink notified of span closes and instant events —
        #: the flight recorder's feed (duck-typed: ``on_span_close`` /
        #: ``on_event``); ``None`` keeps recording allocation-free
        self.listener = None

    # ----- recording --------------------------------------------------------

    @contextmanager
    def span(
        self, name: str, lane: "str | None" = None, **attributes
    ) -> Iterator[Span]:
        """Open a nested span; closes (even on error) when the block exits."""
        parent = self._stack[-1] if self._stack else None
        if lane is None:
            lane = parent.lane if parent is not None else DEFAULT_LANE
        record = Span(
            name=name,
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            lane=lane,
            wall_start_ns=self.wall_clock(),
            sim_start_ns=float(self.sim_clock()),
            attributes=dict(attributes),
        )
        self._next_id += 1
        self._spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            self._stack.pop()
            record.wall_end_ns = self.wall_clock()
            record.sim_end_ns = float(self.sim_clock())
            if self.listener is not None:
                self.listener.on_span_close(record)

    def event(self, name: str, lane: "str | None" = None, **attributes) -> SpanEvent:
        """Record one instant event (defaults to the current span's lane)."""
        if lane is None:
            current = self._stack[-1] if self._stack else None
            lane = current.lane if current is not None else DEFAULT_LANE
        record = SpanEvent(
            name=name,
            lane=lane,
            wall_ns=self.wall_clock(),
            sim_ns=float(self.sim_clock()),
            attributes=dict(attributes),
        )
        self._events.append(record)
        if self.listener is not None:
            self.listener.on_event(record)
        return record

    # ----- access -----------------------------------------------------------

    @property
    def current_span(self) -> "Span | None":
        return self._stack[-1] if self._stack else None

    def spans(self, name: "str | None" = None) -> list[Span]:
        """All recorded spans, in start order (optionally by name)."""
        if name is None:
            return list(self._spans)
        return [s for s in self._spans if s.name == name]

    def events(self, name: "str | None" = None) -> list[SpanEvent]:
        if name is None:
            return list(self._events)
        return [e for e in self._events if e.name == name]

    def lanes(self) -> list[str]:
        """Every lane touched by a span or event, spans first."""
        seen: dict[str, None] = {}
        for record in self._spans:
            seen.setdefault(record.lane, None)
        for record in self._events:
            seen.setdefault(record.lane, None)
        return list(seen)

    # ----- activation -------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["Tracer"]:
        """Install this tracer as this thread's :func:`span` target."""
        previous = getattr(_TLS, "tracer", None)
        _TLS.tracer = self
        try:
            yield self
        finally:
            _TLS.tracer = previous


def active_tracer() -> "Tracer | None":
    """This thread's tracer installed by :meth:`Tracer.activate`."""
    return getattr(_TLS, "tracer", None)


def span(name: str, lane: "str | None" = None, **attributes):
    """Open a span on the active tracer — a shared no-op when none is.

    The instrumented call sites across the pipeline, job runtime,
    scheduler and controller all route through here, so disabling
    observability (the default) reduces them to one thread-local check.
    """
    active = getattr(_TLS, "tracer", None)
    if active is None:
        return _NOOP
    return active.span(name, lane=lane, **attributes)


def event(name: str, lane: "str | None" = None, **attributes) -> "SpanEvent | None":
    """Record an instant event on the active tracer (no-op when none)."""
    active = getattr(_TLS, "tracer", None)
    if active is None:
        return None
    return active.event(name, lane=lane, **attributes)
