"""Flight recorder: bounded ring of recent activity, dumped on failure.

Post-mortems should not require shipping a full Perfetto trace of a
long run.  The :class:`FlightRecorder` keeps *bounded* deques of the
most recent ledger commands, closed spans and instant events; when a
:class:`~repro.errors.ReproError` escapes the job runner the rings are
dumped as ``flight.json`` into the job directory, where
``repro inspect`` renders them.

The recorder is fed passively: the observability session forwards its
command stream, and the span tracer's listener hook reports span
closes and events.  Appends are O(1) ``deque(maxlen=...)`` pushes, so
the enabled-path cost stays a few tens of nanoseconds per record; with
observability off nothing here runs at all.
"""

from __future__ import annotations

import json
from collections import deque
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = ["FLIGHT_FILENAME", "FlightRecorder"]

FLIGHT_FILENAME = "flight.json"

#: default ring depths: commands dominate volume
DEFAULT_COMMAND_CAPACITY = 512
DEFAULT_SPAN_CAPACITY = 128
DEFAULT_EVENT_CAPACITY = 128


class FlightRecorder:
    """Bounded rings of recent commands / spans / events."""

    def __init__(
        self,
        command_capacity: int = DEFAULT_COMMAND_CAPACITY,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
        event_capacity: int = DEFAULT_EVENT_CAPACITY,
    ) -> None:
        self._commands: deque = deque(maxlen=command_capacity)
        self._spans: deque = deque(maxlen=span_capacity)
        self._events: deque = deque(maxlen=event_capacity)
        self.dumps = 0

    # ----- feeding -----------------------------------------------------------

    def on_command(
        self,
        command: str,
        count: int,
        time_ns: float,
        energy_nj: float,
        phase: "str | None",
        sim_ns: float = 0.0,
    ) -> None:
        """One ledger record (compact tuple; GIL-safe deque append)."""
        self._commands.append(
            (sim_ns, command, count, time_ns, energy_nj, phase)
        )

    def on_batch(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        counts: np.ndarray,
        time_ns: np.ndarray,
        energy_nj: np.ndarray,
        phase: "str | None",
        sim_ns: np.ndarray,
    ) -> None:
        """An ordered stream of ledger records, ``sim_ns`` per record.

        Only the tail the ring can hold is appended: the ring ends as
        :meth:`on_command` per record would leave it.
        """
        tail = -self._commands.maxlen if self._commands.maxlen else None
        self._commands.extend(
            zip(
                sim_ns[tail:].tolist(),
                [names[code] for code in codes[tail:].tolist()],
                counts[tail:].tolist(),
                time_ns[tail:].tolist(),
                energy_nj[tail:].tolist(),
                repeat(phase),
            )
        )

    def on_span_close(self, span) -> None:
        """Tracer listener: a span just finished (crashed spans never do,
        which is fine — their enclosing attempt span carries the error)."""
        self._spans.append(span)

    def on_event(self, event) -> None:
        """Tracer listener: one instant event was recorded."""
        self._events.append(event)

    # ----- reading / dumping -------------------------------------------------

    def snapshot(self, reason: str) -> dict:
        """JSON-serializable dump of every ring, oldest first."""
        return {
            "format": "repro-flight-v1",
            "reason": reason,
            "commands": [
                {
                    "sim_ns": sim_ns,
                    "command": command,
                    "count": count,
                    "time_ns": time_ns,
                    "energy_nj": energy_nj,
                    "phase": phase,
                }
                for (
                    sim_ns, command, count, time_ns, energy_nj, phase,
                ) in self._commands
            ],
            "spans": [
                {
                    "name": s.name,
                    "lane": s.lane,
                    "sim_start_ns": s.sim_start_ns,
                    "sim_end_ns": s.sim_end_ns,
                    "wall_us": (
                        s.wall_duration_ns / 1e3 if s.finished else None
                    ),
                    "attributes": dict(s.attributes),
                }
                for s in self._spans
            ],
            "events": [
                {
                    "name": e.name,
                    "lane": e.lane,
                    "sim_ns": e.sim_ns,
                    "attributes": dict(e.attributes),
                }
                for e in self._events
            ],
        }

    def dump(self, job_dir: "str | Path", reason: str) -> Path:
        """Write ``flight.json`` into ``job_dir``; returns the path.

        Dumps never raise into the failure path that triggered them:
        the recorder is a post-mortem aid, not another failure mode —
        an unwritable job dir yields a silent no-op (the counter still
        advances so tests can assert the attempt happened).
        """
        self.dumps += 1
        path = Path(job_dir) / FLIGHT_FILENAME
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(
                json.dumps(self.snapshot(reason), indent=1, default=str),
                encoding="utf-8",
            )
        except OSError:
            return path
        return path

    @staticmethod
    def load(job_dir: "str | Path") -> "dict | None":
        """Read a previously dumped ``flight.json``.

        ``None`` when the file is absent, undecodable, or not a JSON
        object — none of those is a dump
        :func:`~repro.observability.inspect.format_flight_section` could
        render.
        """
        path = Path(job_dir) / FLIGHT_FILENAME
        if not path.exists():
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError):
            return None
        return doc if isinstance(doc, dict) else None
