"""Command-trace recording and analysis.

A :class:`CommandTrace` captures the exact AAP command stream the
controller issues — the same artefact a memory-controller RTL test
bench would consume.  Uses:

* **debugging** — inspect what an algorithm actually issued;
* **verification** — replay a trace against a fresh device and check
  the final state matches (`replay`), proving the trace is a complete
  description of the computation; operand layout and payload kinds
  come from the instruction table :data:`repro.core.isa.ISA`;
* **analysis** — command-mix histograms, per-sub-array load, bank-level
  conflict estimation (`TraceAnalysis`);
* **charge audit** — the bulk engine executes on raw bit planes and
  charges the ledger through the controller's
  :class:`~repro.core.scheduler.BatchedAapScheduler` instead of issuing
  commands one by one, so the same trace also records every scheduler
  ``charge()`` and ``flush()`` boundary: enough for the analysis layer
  to re-derive the makespan math and cross-check it against the cost
  tables.

Recording is opt-in (`Controller.attach_trace`) so the default
simulator carries no overhead.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.core.isa import ISA, RowAddress

if TYPE_CHECKING:
    from repro.core.controller import Controller


@dataclass(slots=True)
class TraceEntry:
    """One recorded command.

    Slotted and built positionally, so recording costs one small
    allocation per command.  Entries are never mutated after recording:
    a rewrite builds a new entry.

    Attributes:
        index: issue order.
        mnemonic: command name (a key of :data:`repro.core.isa.ISA`).
        subarray: (bank, mat, subarray) the command targets.
        rows: row operands in issue order (sources first, then the
            destination, where applicable).
        payload: the mnemonic's payload (``Signature.payload``): the
            row's bits for ``MEM_WR``, the one fill value for
            ``ROW_INIT``, else ``None`` — exactly what replay needs.
    """

    index: int
    mnemonic: str
    subarray: tuple[int, int, int]
    rows: tuple[int, ...]
    payload: tuple[int, ...] | None = None

    def __str__(self) -> str:
        rows = ",".join(str(r) for r in self.rows)
        return f"#{self.index} {self.mnemonic} @{self.subarray} rows[{rows}]"


class CommandTrace:
    """An append-only record of issued commands and scheduler charges."""

    def __init__(self) -> None:
        self._entries: list[TraceEntry] = []
        self._marks: list[tuple[int, str]] = []
        self._charges: list[tuple[str, tuple[int, ...], int, float]] = []
        self._flushes: list[tuple[int, float, float, int]] = []

    def record(
        self,
        mnemonic: str,
        subarray: tuple[int, int, int],
        rows: tuple[int, ...],
        payload: np.ndarray | None = None,
    ) -> None:
        """Append one issued command.

        ``payload`` is a ``uint8`` array, converted once here to a tuple
        of Python ints (what JSON, replay and the analysis layer read).
        """
        entries = self._entries
        entries.append(
            TraceEntry(
                len(entries),
                mnemonic,
                subarray,
                rows,
                None if payload is None else tuple(payload.tolist()),
            )
        )

    def append(self, entry: TraceEntry) -> None:
        """Append an already-recorded entry, renumbered to this trace's
        next index; its converted payload is reused as is."""
        entries = self._entries
        entries.append(
            TraceEntry(
                len(entries), entry.mnemonic, entry.subarray, entry.rows, entry.payload
            )
        )

    def mark(self, label: str) -> None:
        """Drop a named marker at the current stream position.

        Markers delimit pipeline windows (``hashmap:begin`` /
        ``scrub:end`` ...) so the trace verifier can scope its
        layout-region rules to the stage that owns the layout.
        """
        self._marks.append((len(self._entries), label))

    @property
    def marks(self) -> list[tuple[int, str]]:
        """(position, label) markers; position indexes into entries."""
        return list(self._marks)

    def charge(
        self,
        mnemonic: str,
        subarray_key: tuple[int, ...],
        count: int,
        time_ns: float,
    ) -> None:
        """Record one batched-scheduler charge (one sub-array's share)."""
        self._charges.append((mnemonic, tuple(subarray_key), count, time_ns))

    def flush(self, serial_ns: float, makespan_ns: float, commands: int) -> None:
        """Record a scheduler flush boundary after the charges so far."""
        self._flushes.append(
            (len(self._charges), serial_ns, makespan_ns, commands)
        )

    @property
    def charges(self) -> list[tuple[str, tuple[int, ...], int, float]]:
        """(mnemonic, sub-array, count, time_ns) per recorded charge."""
        return list(self._charges)

    @property
    def flushes(self) -> list[tuple[int, float, float, int]]:
        """(charge-position, serial_ns, makespan_ns, commands) per flush."""
        return list(self._flushes)

    def charges_only(self) -> "CommandTrace":
        """A new trace holding this one's charges and flushes, no commands."""
        trace = CommandTrace()
        trace._charges = list(self._charges)
        trace._flushes = list(self._flushes)
        return trace

    # ----- access ----------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[TraceEntry]:
        return iter(self._entries)

    def __getitem__(self, index: int) -> TraceEntry:
        return self._entries[index]

    def entries(self, mnemonic: str | None = None) -> list[TraceEntry]:
        if mnemonic is None:
            return list(self._entries)
        return [e for e in self._entries if e.mnemonic == mnemonic]

    def clear(self) -> None:
        self._entries.clear()
        self._marks.clear()
        self._charges.clear()
        self._flushes.clear()

    # ----- serialisation ------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable trace dump, one command per line."""
        return "\n".join(str(e) for e in self._entries)

    def to_json(self) -> dict:
        """JSON-serialisable form (inverse of :meth:`from_json`)."""
        commands = []
        for e in self._entries:
            cmd: dict = {
                "op": e.mnemonic,
                "sub": list(e.subarray),
                "rows": list(e.rows),
            }
            if e.payload is not None:
                cmd["payload"] = list(e.payload)
            commands.append(cmd)
        return {
            "commands": commands,
            "marks": [[pos, label] for pos, label in self._marks],
            "charges": [
                {"op": m, "sub": list(k), "count": c, "time_ns": t}
                for m, k, c, t in self._charges
            ],
            "flushes": [
                {"at": at, "serial_ns": s, "makespan_ns": mk, "commands": n}
                for at, s, mk, n in self._flushes
            ],
        }

    @classmethod
    def from_json(cls, doc: dict) -> "CommandTrace":
        """Rebuild a trace from :meth:`to_json` output.

        Raises:
            ValueError: on a malformed document (the analysis layer
                wraps this in its typed ``TraceFormatError``).
        """
        trace = cls()
        commands = doc.get("commands")
        if not isinstance(commands, list):
            raise ValueError("trace document: 'commands' missing or not a list")
        for i, cmd in enumerate(commands):
            if not (
                isinstance(cmd, dict)
                and isinstance(cmd.get("op"), str)
                and _is_subarray(cmd.get("sub"))
                and isinstance(cmd.get("rows"), list)
                and all(is_int(r) for r in cmd["rows"])
            ):
                raise ValueError(
                    f"trace command #{i}: needs a string 'op', a 3-int 'sub' "
                    "and a list of int 'rows'"
                )
            payload = cmd.get("payload")
            if payload is not None and not (
                isinstance(payload, list)
                and all(is_int(b) and 0 <= b <= 255 for b in payload)
            ):
                raise ValueError(
                    f"trace command #{i}: 'payload' must be a list of "
                    "integers in [0, 255]"
                )
            trace.record(
                cmd["op"],
                tuple(cmd["sub"]),  # type: ignore[arg-type]
                tuple(cmd["rows"]),
                np.asarray(payload, dtype=np.uint8) if payload is not None else None,
            )
        for j, mark in enumerate(_section(doc, "marks")):
            if not (
                isinstance(mark, list)
                and len(mark) == 2
                and is_int(mark[0])
                and isinstance(mark[1], str)
            ):
                raise ValueError(
                    f"trace mark #{j}: expected [int position, string label]"
                )
            trace._marks.append((mark[0], mark[1]))
        for i, ch in enumerate(_section(doc, "charges")):
            if not (
                isinstance(ch, dict)
                and isinstance(ch.get("op"), str)
                and _is_subarray(ch.get("sub"))
                and is_int(ch.get("count"))
                and is_finite(ch.get("time_ns"))
            ):
                raise ValueError(
                    f"trace charge #{i}: needs a string 'op', a 3-int 'sub', "
                    "an int 'count' and a finite 'time_ns'"
                )
            trace.charge(
                ch["op"], tuple(ch["sub"]), ch["count"], float(ch["time_ns"])
            )
        for i, fl in enumerate(_section(doc, "flushes")):
            if not (
                isinstance(fl, dict)
                and is_int(fl.get("at"))
                and is_finite(fl.get("serial_ns"))
                and is_finite(fl.get("makespan_ns"))
                and is_int(fl.get("commands"))
            ):
                raise ValueError(
                    f"trace flush #{i}: needs int 'at'/'commands' and finite "
                    "'serial_ns'/'makespan_ns'"
                )
            trace._flushes.append(
                (
                    fl["at"],
                    float(fl["serial_ns"]),
                    float(fl["makespan_ns"]),
                    fl["commands"],
                )
            )
        return trace


def _section(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValueError(f"trace document: {key!r} is not a list")
    return value


def is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite(value: object) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _is_subarray(value: object) -> bool:
    return (
        isinstance(value, list)
        and len(value) == 3
        and all(is_int(x) for x in value)
    )


@dataclass(frozen=True)
class TraceAnalysis:
    """Aggregate statistics of one trace."""

    command_mix: Counter
    subarray_load: Counter
    bank_load: Counter

    @property
    def total_commands(self) -> int:
        return sum(self.command_mix.values())

    @property
    def busiest_subarray(self) -> tuple[tuple[int, int, int], int] | None:
        if not self.subarray_load:
            return None
        key, count = self.subarray_load.most_common(1)[0]
        return key, count

    def load_imbalance(self) -> float:
        """max/mean sub-array load (1.0 = perfectly balanced)."""
        if not self.subarray_load:
            return 1.0
        loads = list(self.subarray_load.values())
        return max(loads) / (sum(loads) / len(loads))


def analyse(trace: CommandTrace) -> TraceAnalysis:
    """Compute the command-mix and load statistics of a trace."""
    mix: Counter = Counter()
    sub_load: Counter = Counter()
    bank_load: Counter = Counter()
    for entry in trace:
        mix[entry.mnemonic] += 1
        sub_load[entry.subarray] += 1
        bank_load[entry.subarray[0]] += 1
    return TraceAnalysis(
        command_mix=mix, subarray_load=sub_load, bank_load=bank_load
    )


#: the controller method that re-issues each state-changing mnemonic;
#: it takes the operand rows as addresses (the sub-array key when there
#: are none), then the payload (:func:`replay_entry`)
REPLAY_METHODS: dict[str, str] = {
    "AAP1": "copy",
    "AAP2": "compute2",
    "AAP3": "tra_carry",
    "SUM": "sum_cycle",
    "LATCH_LD": "load_latch",
    "LATCH_CLR": "clear_latch",
    "ROW_INIT": "init_row",
    "MEM_WR": "write_row",
}


def replay_entry(entry: TraceEntry, controller: "Controller") -> bool:
    """Re-issue one recorded command; returns False for an observation
    (``MEM_RD``, ``DPU``), which changes no array state.  ``AAP2``
    replays as the XNOR2 the pipeline issues.

    Raises:
        ValueError: on a mnemonic replay does not understand, or a
            missing payload.
    """
    signature = ISA.get(entry.mnemonic)
    if signature is not None and signature.observation:
        return False
    method = REPLAY_METHODS.get(entry.mnemonic)
    if signature is None or method is None:
        raise ValueError(f"cannot replay mnemonic {entry.mnemonic!r}")
    bank, mat, sub = entry.subarray
    args: list[Any] = [RowAddress(bank, mat, sub, row) for row in entry.rows]
    if signature.payload != "none":
        if entry.payload is None:
            raise ValueError(f"{entry.mnemonic} entry #{entry.index} lacks payload")
        fill = signature.payload == "fill"
        payload = entry.payload
        args.append(int(payload[0]) if fill else np.array(payload, dtype=np.uint8))
    getattr(controller, method)(*(args or [entry.subarray]))
    return True


def replay(trace: CommandTrace, controller: "Controller") -> None:
    """Re-issue a recorded trace against a (fresh) controller.

    Only state-changing commands are replayed; ``MEM_RD`` and ``DPU``
    entries are skipped (they do not mutate array state).  After
    replay, the device state must equal the state after the original
    run — the invariant the trace tests assert.

    Raises:
        ValueError: on a mnemonic replay does not understand.
    """
    for entry in trace:
        replay_entry(entry, controller)
