"""Unified observability: span tracing, metrics, Perfetto export.

One subsystem correlates everything the simulator can tell you about a
run on a single timeline:

* :mod:`repro.observability.spans` — zero-dependency structured span
  tracer (context-manager API, monotonic *and* simulated-ns clocks,
  parent/child nesting, attributes), wired through the pipeline
  stages, job retries, scheduler batches and controller dispatch;
* :mod:`repro.observability.metrics` — counters/gauges/histograms fed
  by instrumentation points through module-level helpers, plus the
  narrow :class:`Recorder` protocol a stats ledger forwards to;
* :mod:`repro.observability.export` — Chrome/Perfetto trace-event
  JSON (one lane per pipeline stage plus resilience/watchdog lanes),
  ``metrics.json`` snapshots, sub-array utilization heatmaps, and the
  schema validator CI runs;
* :mod:`repro.observability.session` — one-call activation wiring all
  of the above around a run (the CLI's ``--trace-out``/
  ``--metrics-out``); the session is the ledger's recorder;
* :mod:`repro.observability.inspect` — post-hoc ``repro inspect`` of
  a finished or crashed job directory;
* :mod:`repro.observability.power` — windowed per-phase/per-mnemonic
  power timeline off the ledger command stream, with a bit-exact
  conservation invariant against the ledger totals: the session's one
  accumulator of ledger records, published into ``metrics.json``;
* :mod:`repro.observability.flightrec` — bounded ring of recent
  commands/spans/events, dumped as ``flight.json`` on failure.

Everything is **off by default**: without an active session the
instrumentation points reduce to one global ``None`` check each, a
contract enforced by ``benchmarks/bench_observability_overhead.py``.
"""

from repro.observability.export import (
    chrome_trace,
    format_subarray_heatmap,
    subarray_utilization,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
    write_metrics,
)
from repro.observability.flightrec import FlightRecorder
from repro.observability.power import PowerTimeline
from repro.observability.inspect import (
    format_stage_table,
    format_top_commands,
    inspect_job,
    render_job_inspection,
)
from repro.observability.metrics import (
    MetricsRegistry,
    Recorder,
    active_registry,
    inc,
    observe,
    set_gauge,
)
from repro.observability.session import (
    ObservabilitySession,
    active_session,
    connect_ledger,
)
from repro.observability.spans import Span, Tracer, active_tracer, event, span

__all__ = [
    "FlightRecorder",
    "MetricsRegistry",
    "ObservabilitySession",
    "PowerTimeline",
    "Recorder",
    "Span",
    "Tracer",
    "active_registry",
    "active_session",
    "active_tracer",
    "chrome_trace",
    "connect_ledger",
    "event",
    "format_stage_table",
    "format_subarray_heatmap",
    "format_top_commands",
    "inc",
    "inspect_job",
    "observe",
    "render_job_inspection",
    "set_gauge",
    "span",
    "subarray_utilization",
    "validate_chrome_trace",
    "validate_trace_file",
    "write_chrome_trace",
    "write_metrics",
]
