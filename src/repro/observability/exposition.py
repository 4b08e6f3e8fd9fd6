"""Prometheus text-format (v0.0.4) exposition for the metrics registry.

Zero-dependency writer that turns a
:class:`~repro.observability.metrics.MetricsRegistry` into the plain
text format every Prometheus-compatible scraper understands, plus a
JSON snapshot for programmatic consumers:

* counters/gauges become single sample lines with ``# HELP`` /
  ``# TYPE`` headers (the original dotted metric name rides in the
  HELP line, since Prometheus names flatten ``.`` to ``_``);
* histograms expand to the conventional ``_bucket{le="..."}``
  cumulative series (power-of-two upper bounds plus ``+Inf``),
  ``_sum`` and ``_count``, and three extra ``_p50/_p95/_p99`` gauges
  from :meth:`~repro.observability.metrics.Histogram.quantile`;
* files are written **atomically** (temp file in the target directory,
  then ``os.replace``) so a scraper never reads a half-written file.

The CLI exposes this as ``--telemetry-out`` on ``assemble`` (one write
at the end).  The format is validated in CI by
``repro.observability.validate``.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from pathlib import Path

from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)

__all__ = [
    "render_prometheus",
    "sanitize_metric_name",
    "write_exposition",
    "write_json_snapshot",
]

_NAME_OK = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_BAD_CHARS = re.compile(r"[^a-zA-Z0-9_:]")


def sanitize_metric_name(name: str) -> str:
    """Flatten a dotted registry name into a legal Prometheus name."""
    flat = _NAME_BAD_CHARS.sub("_", name)
    if not flat or not _NAME_OK.match(flat):
        flat = "_" + flat
    return flat


def _format_value(value: float) -> str:
    """Prometheus sample value: repr floats, but ints without ``.0``."""
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def render_prometheus(registry: MetricsRegistry) -> str:
    """Render every registered metric as text-format v0.0.4."""
    lines: list[str] = []
    for name in registry.names():
        metric = registry.get(name)
        flat = sanitize_metric_name(name)
        if isinstance(metric, Counter):
            lines.append(f"# HELP {flat} repro counter {name}")
            lines.append(f"# TYPE {flat} counter")
            lines.append(f"{flat} {_format_value(metric.value)}")
        elif isinstance(metric, Gauge):
            if metric.value is None:
                continue
            lines.append(f"# HELP {flat} repro gauge {name}")
            lines.append(f"# TYPE {flat} gauge")
            lines.append(f"{flat} {_format_value(metric.value)}")
        elif isinstance(metric, Histogram):
            lines.append(f"# HELP {flat} repro histogram {name}")
            lines.append(f"# TYPE {flat} histogram")
            cumulative = 0
            for index, count in enumerate(metric.buckets):
                if count == 0:
                    continue
                cumulative += count
                bound = _format_value(2.0**index)
                lines.append(
                    f'{flat}_bucket{{le="{bound}"}} {cumulative}'
                )
            lines.append(f'{flat}_bucket{{le="+Inf"}} {metric.count}')
            lines.append(f"{flat}_sum {_format_value(metric.total)}")
            lines.append(f"{flat}_count {metric.count}")
            for label, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                lines.append(f"# TYPE {flat}_{label} gauge")
                lines.append(
                    f"{flat}_{label} {_format_value(metric.quantile(q))}"
                )
    lines.append("")  # trailing newline per the format spec
    return "\n".join(lines)


def _atomic_write_text(path: Path, text: str) -> None:
    """Write via a sibling temp file + ``os.replace`` (atomic on POSIX)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def write_exposition(
    path: "str | Path",
    registry: MetricsRegistry,
    extra: "dict | None" = None,
) -> Path:
    """Atomically write the text exposition to ``path``.

    When ``extra`` is given, a companion ``<path>.json`` snapshot is
    written next to it carrying the registry snapshot plus the extra
    sections (e.g. the power summary) — the JSON half of the surface.
    """
    path = Path(path)
    _atomic_write_text(path, render_prometheus(registry))
    if extra is not None:
        write_json_snapshot(path.with_suffix(path.suffix + ".json"),
                            registry, extra=extra)
    return path


def write_json_snapshot(
    path: "str | Path",
    registry: MetricsRegistry,
    extra: "dict | None" = None,
) -> Path:
    """Atomically write the JSON snapshot companion."""
    path = Path(path)
    doc: dict = {"metrics": registry.snapshot()}
    if extra:
        doc.update(extra)
    _atomic_write_text(path, json.dumps(doc, indent=1))
    return path
