"""Chrome/Perfetto trace-event export and metrics snapshots.

Serialises a :class:`~repro.observability.spans.Tracer` into the JSON
Chrome trace-event format (the ``traceEvents`` array Perfetto's UI and
``chrome://tracing`` both load):

* the primary timeline is **simulated device time** — ``ts`` is the
  modeled nanosecond the stats ledger had charged when the span
  opened/closed, so stage durations in the viewer agree with
  ``StatsLedger.totals()`` (host wall-clock rides along in ``args``);
* every lane becomes one named thread track: one lane per pipeline
  stage (``hashmap`` / ``debruijn`` / ``traverse``), plus ``job``,
  ``resilience`` and ``watchdog`` lanes for ladder decisions, recovery
  events and deadline activity;
* spans emit strictly nested ``B``/``E`` duration pairs (validated by
  :func:`validate_chrome_trace`, which CI runs against every smoke
  trace); instant events emit ``i`` phases.

Also here: the ``metrics.json`` snapshot writer and the sub-array
utilization heatmap table derived from a platform's row allocator.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.observability.metrics import MetricsRegistry
from repro.observability.spans import Span, Tracer

__all__ = [
    "chrome_trace",
    "format_subarray_heatmap",
    "subarray_utilization",
    "validate_chrome_trace",
    "validate_trace_file",
    "write_chrome_trace",
    "write_metrics",
]

#: preferred lane ordering (sort index in the viewer); unknown lanes follow
LANE_ORDER = (
    "job",
    "hashmap",
    "debruijn",
    "traverse",
    "resilience",
    "watchdog",
)

_PID = 1


def _lane_tids(tracer: Tracer) -> dict[str, int]:
    """Stable lane → tid assignment, known lanes first."""
    lanes = tracer.lanes()
    ordered = [lane for lane in LANE_ORDER if lane in lanes]
    ordered += [lane for lane in lanes if lane not in LANE_ORDER]
    return {lane: tid for tid, lane in enumerate(ordered, start=1)}


def _span_args(span: Span) -> dict:
    args = {
        "wall_us": span.wall_duration_ns / 1e3,
        "sim_ns": span.sim_duration_ns,
    }
    args.update(span.attributes)
    return args


def chrome_trace(tracer: Tracer, power=None) -> dict:
    """Render a tracer into a Chrome trace-event JSON document.

    Only finished spans are exported (a crashed run can leave open
    ones); ``ts`` is simulated time in microseconds, the unit the
    format specifies.  Per lane, spans are emitted in depth-first
    start order, which yields strictly nested ``B``/``E`` pairs with
    non-decreasing timestamps — the simulated clock never runs
    backwards, and a child span's interval is contained in its
    parent's by construction of the tracer stack.

    When a :class:`~repro.observability.power.PowerTimeline` is given,
    its binned series render as Perfetto **counter tracks** (``"C"``
    phase events on ``tid 0``): one ``power_w`` track for the whole
    device plus one ``power_w.<lane>`` track per attribution lane,
    sitting next to the span lanes on the same simulated clock.
    """
    tids = _lane_tids(tracer)
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": _PID,
            "tid": 0,
            "args": {"name": "pim-assembler (simulated time)"},
        }
    ]
    for lane, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"name": lane},
            }
        )
        events.append(
            {
                "name": "thread_sort_index",
                "ph": "M",
                "pid": _PID,
                "tid": tid,
                "args": {"sort_index": tid},
            }
        )

    finished = [s for s in tracer.spans() if s.finished]
    dropped = len(tracer.spans()) - len(finished)

    # Per-lane forest: a span roots its lane when its parent is absent,
    # unfinished, or renders in a different lane.
    by_id = {s.span_id: s for s in finished}
    children: dict[int, list[Span]] = {}
    roots: dict[str, list[Span]] = {}
    for s in finished:
        parent = by_id.get(s.parent_id) if s.parent_id is not None else None
        if parent is not None and parent.lane == s.lane:
            children.setdefault(parent.span_id, []).append(s)
        else:
            roots.setdefault(s.lane, []).append(s)

    def emit(s: Span, tid: int, out: list[dict]) -> None:
        out.append(
            {
                "name": s.name,
                "ph": "B",
                "ts": s.sim_start_ns / 1e3,
                "pid": _PID,
                "tid": tid,
                "args": _span_args(s),
            }
        )
        for child in children.get(s.span_id, []):
            emit(child, tid, out)
        out.append(
            {
                "name": s.name,
                "ph": "E",
                "ts": s.sim_end_ns / 1e3,
                "pid": _PID,
                "tid": tid,
            }
        )

    # One stream per lane: the depth-first B/E stream is already
    # ts-non-decreasing; instant events are folded in by timestamp
    # (stable sort, so B/E ordering — and therefore nesting — survives).
    streams: dict[str, list[dict]] = {lane: [] for lane in tids}
    for lane, lane_roots in roots.items():
        for root in lane_roots:
            emit(root, tids[lane], streams[lane])
    for evt in sorted(tracer.events(), key=lambda e: e.sim_ns):
        streams[evt.lane].append(
            {
                "name": evt.name,
                "ph": "i",
                "s": "t",
                "ts": evt.sim_ns / 1e3,
                "pid": _PID,
                "tid": tids[evt.lane],
                "args": dict(evt.attributes),
            }
        )
    for lane in tids:
        events.extend(sorted(streams[lane], key=lambda e: e["ts"]))

    counter_events = 0
    if power is not None:
        counters: list[dict] = []
        tracks = [("power_w", None)] + [
            (f"power_w.{lane}", lane) for lane in power.lanes()
        ]
        for track_name, lane in tracks:
            for bin_start_ns, power_w in power.series(lane):
                counters.append(
                    {
                        "name": track_name,
                        "ph": "C",
                        "ts": bin_start_ns / 1e3,
                        "pid": _PID,
                        "tid": 0,
                        "args": {"W": power_w},
                    }
                )
        # all counter tracks share tid 0: one ts-sorted stream keeps
        # the per-(pid, tid) monotonicity contract the validator checks
        counters.sort(key=lambda e: (e["ts"], e["name"]))
        events.extend(counters)
        counter_events = len(counters)

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ns",
        "otherData": {
            "clock": "simulated device time (us)",
            "spans": len(finished),
            "instant_events": len(tracer.events()),
        },
    }
    if counter_events:
        doc["otherData"]["counter_events"] = counter_events
    if dropped:
        doc["otherData"]["unfinished_spans_dropped"] = dropped
    return doc


def write_chrome_trace(path: "str | Path", tracer: Tracer, power=None) -> Path:
    """Serialise the tracer to ``path``; returns the written path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(chrome_trace(tracer, power=power), indent=1),
        encoding="utf-8",
    )
    return path


# ----- schema validation -----------------------------------------------------

#: trace-event phases the exporter may legitimately emit
#: (``C`` = counter samples from the power timeline)
_ALLOWED_PHASES = {"B", "E", "i", "M", "C"}


def validate_chrome_trace(doc: object) -> list[str]:
    """Check a trace document against the Chrome trace-event schema.

    Returns a list of problems (empty = valid).  Beyond well-formed
    ``ph``/``ts``/``pid``/``tid`` fields, enforces the contract the
    exporter promises: per ``(pid, tid)``, ``B``/``E`` pairs strictly
    nest (every ``E`` matches the innermost open ``B`` by name), every
    opened span closes, and timestamps never decrease in file order.
    """
    if not isinstance(doc, dict):
        return ["trace document is not a JSON object"]
    problems: list[str] = []
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    stacks: dict[tuple, list[str]] = {}
    last_ts: dict[tuple, float] = {}
    for i, evt in enumerate(events):
        if not isinstance(evt, dict):
            problems.append(f"event #{i}: not an object")
            continue
        ph = evt.get("ph")
        if ph not in _ALLOWED_PHASES:
            problems.append(f"event #{i}: bad ph {ph!r}")
            continue
        for key in ("pid", "tid"):
            if not isinstance(evt.get(key), int):
                problems.append(f"event #{i}: missing/invalid {key}")
        if ph == "M":
            continue
        if not isinstance(evt.get("name"), str) or not evt.get("name"):
            problems.append(f"event #{i}: missing name")
        ts = evt.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event #{i}: missing/invalid ts")
            continue
        key = (evt.get("pid"), evt.get("tid"))
        if ts < last_ts.get(key, float("-inf")):
            problems.append(
                f"event #{i}: ts {ts} decreases on pid/tid {key}"
            )
        last_ts[key] = ts
        if ph == "C":
            args = evt.get("args")
            if not isinstance(args, dict) or not args:
                problems.append(f"event #{i}: counter without args")
            elif not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"event #{i}: non-numeric counter value")
        elif ph == "B":
            stacks.setdefault(key, []).append(evt.get("name", ""))
        elif ph == "E":
            stack = stacks.get(key, [])
            if not stack:
                problems.append(f"event #{i}: E without open B on {key}")
            else:
                opened = stack.pop()
                name = evt.get("name")
                if name is not None and name != opened:
                    problems.append(
                        f"event #{i}: E {name!r} closes B {opened!r} on {key}"
                    )
    for key, stack in stacks.items():
        if stack:
            problems.append(f"pid/tid {key}: unclosed B spans {stack}")
    return problems


def validate_trace_file(path: "str | Path") -> list[str]:
    """Load and validate a trace JSON file; returns the problem list."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot load {path}: {exc}"]
    return validate_chrome_trace(doc)


def validate_trace_report(path: "str | Path"):
    """Findings-model view of :func:`validate_trace_file`.

    Each schema problem becomes a rule-``X001`` finding in the shared
    :class:`~repro.analysis.findings.FindingReport` model, so the span
    validator, the AAP trace verifier and the lint pass report (and
    exit) through one vocabulary.  The legacy ``list[str]`` API above
    stays for callers that assert on exact problem strings.
    """
    from repro.analysis.findings import FindingReport

    report = FindingReport()
    for problem in validate_trace_file(path):
        report.add("X001", problem, source=str(path))
    return report


# ----- metrics snapshot ------------------------------------------------------


def write_metrics(
    path: "str | Path",
    registry: MetricsRegistry,
    extra: "dict | None" = None,
) -> Path:
    """Write ``metrics.json``: the registry snapshot plus extras.

    ``extra`` merges additional top-level sections (e.g. the sub-array
    heatmap) next to the ``"metrics"`` map.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"metrics": registry.snapshot()}
    if extra:
        doc.update(extra)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


# ----- sub-array utilization heatmap ----------------------------------------


def subarray_utilization(pim) -> list[dict]:
    """Per-sub-array occupancy records from a platform's memory state.

    One record per *instantiated* sub-array holding data: ``rows_used``
    is the number of data rows with at least one set bit (which covers
    the k-mer table's slot rows — the table writes straight into row
    storage, not through the bump allocator), floored by the allocator
    cursor for explicitly allocated rows.  Records carry ``{"bank",
    "mat", "subarray", "rows_used", "data_rows", "utilization"}``,
    sorted busiest first.  Works identically on a live platform and on
    one rehydrated from a journal snapshot.
    """
    data_rows = pim.geometry.bank.mat.subarray.data_rows
    records = []
    for key, sub in pim.device.instantiated():
        # packed occupancy: a row is used iff any stored word is
        # non-zero (tail bits are zero by invariant)
        used = int(sub.store.tensor[sub.slot, :data_rows].any(axis=1).sum())
        used = max(used, int(pim._next_row.get(key, 0)))
        if used <= 0:
            continue
        bank_idx, mat_idx, sub_idx = key
        records.append(
            {
                "bank": bank_idx,
                "mat": mat_idx,
                "subarray": sub_idx,
                "rows_used": used,
                "data_rows": int(data_rows),
                "utilization": used / data_rows,
            }
        )
    records.sort(
        key=lambda r: (-r["utilization"], r["bank"], r["mat"], r["subarray"])
    )
    return records


def format_subarray_heatmap(records: list[dict], limit: int = 16) -> str:
    """Text heatmap of sub-array occupancy, busiest first."""
    if not records:
        return "no sub-array allocations recorded"
    width = 24
    lines = [
        f"{'sub-array':>12} {'rows':>11} {'util':>6}  heat",
    ]
    for record in records[:limit]:
        key = f"{record['bank']},{record['mat']},{record['subarray']}"
        bar = "#" * max(1, round(record["utilization"] * width))
        lines.append(
            f"{key:>12} "
            f"{record['rows_used']:>5}/{record['data_rows']:<5} "
            f"{record['utilization']:>5.0%}  {bar}"
        )
    if len(records) > limit:
        rest = records[limit:]
        mean = sum(r["utilization"] for r in rest) / len(rest)
        lines.append(
            f"{'...':>12} (+{len(rest)} more sub-arrays, mean {mean:.0%})"
        )
    return "\n".join(lines)
