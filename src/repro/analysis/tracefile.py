"""The on-disk AAP trace document and its recorder.

A *trace document* is the self-contained artefact ``repro
verify-trace`` consumes: one recorded
:class:`~repro.core.trace.CommandTrace` carrying the command stream,
its window marks, and the batched scheduler's charges and flushes;
the run's per-mnemonic ledger totals; and enough platform context — sub-array geometry, the
hash-table row layout, the timing constants — for the verifier to
re-derive every row-designation and cost rule without the platform
that produced it.

Format (JSON, ``"format": "repro-aap-trace/1"``)::

    {
      "format":  "repro-aap-trace/1",
      "engine":  "scalar" | "bulk",
      "complete": true,          # the command stream covers the full run
      "cold_start": false,       # data rows assumed initialised at t=0
      "geometry": {"rows", "cols", "compute_rows", "data_rows"},
      "layout":  {"kmer_rows", "value_rows", "temp_rows"} | null,
      "timing":  {"t_ras", "t_rp", "t_rcd", "t_bl", "t_dpu_clk"},
      "commands": [{"i", "op", "sub", "rows", "payload"?}, ...],
      "marks":   [[position, label], ...],
      "charges": [{"op", "sub", "count", "time_ns"}, ...],
      "flushes": [{"at", "serial_ns", "makespan_ns", "commands"}, ...],
      "ledger":  {"time_ns", "energy_nj", "commands": {mnemonic: count}},
      "meta":    {...}
    }

``complete`` is True for scalar runs (every command traced one by
one); the bulk engine mutates bit planes directly and charges through
the batched scheduler, so its documents carry a partial command stream
and the verifier leans on the recorded charges instead.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.timing import DEFAULT_TIMING, TimingParameters
from repro.core.trace import CommandTrace, is_finite, is_int
from repro.errors import TraceFormatError

__all__ = [
    "FORMAT",
    "TraceDocument",
    "TraceRecorder",
    "load_document",
    "save_document",
]

FORMAT = "repro-aap-trace/1"

#: timing fields the recorder writes for the verifier's latency tables
_TIMING_FIELDS = ("t_ras", "t_rp", "t_rcd", "t_bl", "t_dpu_clk")
#: timing fields a document may carry
_TIMING_KEYS = frozenset(f.name for f in dataclasses.fields(TimingParameters))
_GEOMETRY_KEYS = ("rows", "cols", "compute_rows", "data_rows")
_LAYOUT_KEYS = ("kmer_rows", "value_rows", "temp_rows")


@dataclass
class TraceDocument:
    """A parsed trace document (see the module docstring for the schema)."""

    engine: str
    trace: CommandTrace
    geometry: dict[str, int]
    layout: dict[str, int] | None = None
    timing: dict[str, float] | None = None
    ledger: dict[str, Any] | None = None
    complete: bool = True
    cold_start: bool = False
    meta: dict[str, Any] = field(default_factory=dict)

    def timing_parameters(self) -> TimingParameters:
        """The document's timing constants; the defaults when it has none."""
        if not self.timing:
            return DEFAULT_TIMING
        return TimingParameters(**{k: float(v) for k, v in self.timing.items()})

    def to_json(self) -> dict:
        return {
            "format": FORMAT,
            "engine": self.engine,
            "complete": self.complete,
            "cold_start": self.cold_start,
            "geometry": dict(self.geometry),
            "layout": dict(self.layout) if self.layout is not None else None,
            "timing": dict(self.timing) if self.timing is not None else None,
            **self.trace.to_json(),
            "ledger": self.ledger,
            "meta": dict(self.meta),
        }

    @classmethod
    def from_json(cls, doc: Any, source: str = "<trace>") -> "TraceDocument":
        """Parse a document; every malformation is a typed input error.

        Raises:
            TraceFormatError: the document is not a trace document
                (wrong/missing format tag, malformed sections).
        """
        if not isinstance(doc, dict):
            raise TraceFormatError(f"{source}: trace document must be an object")
        fmt = doc.get("format")
        if fmt != FORMAT:
            raise TraceFormatError(
                f"{source}: unsupported trace format {fmt!r} "
                f"(expected {FORMAT!r})"
            )
        engine = doc.get("engine")
        if engine not in ("scalar", "bulk"):
            raise TraceFormatError(
                f"{source}: engine must be 'scalar' or 'bulk', got {engine!r}"
            )
        for flag in ("complete", "cold_start"):
            if not isinstance(doc.get(flag, False), bool):
                raise TraceFormatError(f"{source}: {flag} must be true or false")
        geometry = doc.get("geometry")
        if not _ints(geometry, _GEOMETRY_KEYS):
            raise TraceFormatError(
                f"{source}: geometry needs integer {'/'.join(_GEOMETRY_KEYS)}"
            )
        for key, ok, need in (
            ("layout", _layout_ok, "integer " + "/".join(_LAYOUT_KEYS)),
            ("timing", _timing_ok, f"positive numbers for {sorted(_TIMING_KEYS)}"),
            ("ledger", _ledger_ok, "numeric time_ns/energy_nj, integer counts"),
        ):
            if doc.get(key) is not None and not ok(doc[key]):
                raise TraceFormatError(f"{source}: {key} needs {need}")
        try:
            trace = CommandTrace.from_json(doc)
        except ValueError as exc:
            raise TraceFormatError(f"{source}: {exc}") from None
        meta = doc.get("meta")
        return cls(
            engine=engine,
            trace=trace,
            geometry={k: int(geometry[k]) for k in _GEOMETRY_KEYS},
            layout=doc.get("layout"),
            timing=doc.get("timing"),
            ledger=doc.get("ledger"),
            complete=doc.get("complete", engine == "scalar"),
            cold_start=doc.get("cold_start", False),
            meta=meta if isinstance(meta, dict) else {},
        )


def _ints(section: object, keys: tuple[str, ...]) -> bool:
    return isinstance(section, dict) and all(
        isinstance(section.get(k), int) for k in keys
    )


def _layout_ok(layout: object) -> bool:
    return _ints(layout, _LAYOUT_KEYS)


def _timing_ok(timing: object) -> bool:
    if not isinstance(timing, dict) or not set(timing) <= _TIMING_KEYS:
        return False
    if not all(is_finite(value) for value in timing.values()):
        return False
    try:
        TimingParameters(**timing)
    except ValueError:
        return False
    return True


def _ledger_ok(ledger: object) -> bool:
    if not isinstance(ledger, dict):
        return False
    commands = ledger.get("commands") or {}
    return (
        all(is_finite(ledger.get(k, 0.0)) for k in ("time_ns", "energy_nj"))
        and isinstance(commands, dict)
        and all(is_int(count) for count in commands.values())
    )


def save_document(path: "str | Path", doc: TraceDocument) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc.to_json(), indent=1), encoding="utf-8")
    return path


def load_document(path: "str | Path") -> TraceDocument:
    """Load and parse a trace document file.

    Raises:
        TraceFormatError: unreadable file or malformed document.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise TraceFormatError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"{path} is not JSON: {exc}") from None
    return TraceDocument.from_json(raw, source=str(path))


class TraceRecorder:
    """Attach one trace (commands, marks, charges) to a platform for one run.

    Usage::

        recorder = TraceRecorder(pim, engine="scalar")
        with recorder:
            assemble_with_pim(reads, k=k, pim=pim, engine="scalar")
        doc = recorder.document()

    The recorder snapshots the geometry, the scaled hash-table layout
    and the timing constants at attach time and folds the run's ledger
    totals into the document at :meth:`document` time.
    """

    def __init__(self, pim: Any, engine: str) -> None:
        if engine not in ("scalar", "bulk"):
            raise ValueError("engine must be 'scalar' or 'bulk'")
        self.pim = pim
        self.engine = engine
        self.trace = CommandTrace()

    def __enter__(self) -> "TraceRecorder":
        self.pim.controller.attach_trace(self.trace)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.pim.controller.attach_trace(None)

    def document(self, **meta: Any) -> TraceDocument:
        """The recorded run as a trace document.

        Raises:
            ValueError: the recorder is labelled ``scalar`` but the
                trace holds batched-scheduler charges, which only the
                bulk engine issues; a scalar document is read as a
                complete program, so the mislabel would fail
                verification against a correct run.
        """
        from repro.mapping.kmer_layout import scaled_layout

        if self.engine == "scalar" and self.trace.charges:
            raise ValueError(
                "trace recorded with engine='scalar' holds "
                f"{len(self.trace.charges)} batched-scheduler charges "
                "of the 'bulk' engine; record it with engine='bulk'"
            )

        sub_geom = self.pim.geometry.bank.mat.subarray
        layout = scaled_layout(sub_geom)
        timing = self.pim.controller.timing
        totals = self.pim.stats.totals()
        return TraceDocument(
            engine=self.engine,
            trace=self.trace,
            geometry={
                "rows": int(sub_geom.rows),
                "cols": int(sub_geom.cols),
                "compute_rows": int(sub_geom.compute_rows),
                "data_rows": int(sub_geom.data_rows),
            },
            layout={
                "kmer_rows": layout.kmer_rows,
                "value_rows": layout.value_rows,
                "temp_rows": layout.temp_rows,
            },
            timing={f: float(getattr(timing, f)) for f in _TIMING_FIELDS},
            ledger={
                "time_ns": totals.time_ns,
                "energy_nj": totals.energy_nj,
                "commands": {m: int(c) for m, c in totals.commands.items()},
            },
            complete=(self.engine == "scalar"),
            cold_start=False,
            meta=dict(meta),
        )
