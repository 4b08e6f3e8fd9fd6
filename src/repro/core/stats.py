"""Cycle / energy accounting ledger.

Every primitive the functional simulator executes reports itself here,
so that benchmarks can read wall-clock time, energy and command mixes
without instrumenting the algorithms.  The ledger supports hierarchical
*phases* (e.g. ``hashmap`` / ``debruijn`` / ``traverse``) matching the
per-stage breakdowns of the paper's Fig. 9.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import PhaseActiveError
from repro.observability.metrics import running_sums

if TYPE_CHECKING:
    from repro.observability.metrics import Recorder


@dataclass(frozen=True)
class PhaseTotals:
    """Aggregate time/energy/commands of one phase (or of the whole run)."""

    time_ns: float = 0.0
    energy_nj: float = 0.0
    commands: Mapping[str, int] = field(default_factory=dict)

    @property
    def time_s(self) -> float:
        return self.time_ns * 1e-9

    @property
    def energy_j(self) -> float:
        return self.energy_nj * 1e-9

    @property
    def total_commands(self) -> int:
        return sum(self.commands.values())

    def average_power_w(self, background_w: float = 0.0) -> float:
        """Dynamic average power over the phase duration, plus background."""
        if self.time_ns <= 0:
            return background_w
        return self.energy_nj / self.time_ns + background_w


class StatsLedger:
    """Accumulates command events, grouped by phase.

    The ledger is intentionally additive-only; algorithms never read it
    back to make decisions, preserving the separation between the
    functional and the timed views of the simulator.
    """

    ROOT_PHASE = "total"

    def __init__(self) -> None:
        self._time_ns: dict[str, float] = defaultdict(float)
        self._energy_nj: dict[str, float] = defaultdict(float)
        self._commands: dict[str, Counter] = defaultdict(Counter)
        self._phase_stack: list[str] = []
        #: optional observability sink (see repro.observability.metrics);
        #: None by default so recording stays a pure accumulation
        self._recorder: "Recorder | None" = None

    def attach_recorder(self, recorder: "Recorder | None") -> None:
        """Forward subsequent events to an observability recorder.

        The recorder only *observes* the event stream (command, count,
        time, energy, phase); the ledger stays the single source of
        truth and algorithms still never read anything back — the
        functional/timed separation is untouched.  ``None`` detaches.
        """
        self._recorder = recorder

    @property
    def current_phase(self) -> str | None:
        return self._phase_stack[-1] if self._phase_stack else None

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Attribute all events inside the block to ``name`` (and total)."""
        if not name or name == self.ROOT_PHASE:
            raise ValueError("phase name must be non-empty and not 'total'")
        self._phase_stack.append(name)
        try:
            yield
        finally:
            self._phase_stack.pop()

    def record(
        self,
        command: str,
        time_ns: float,
        energy_nj: float,
        count: int = 1,
    ) -> None:
        """Record ``count`` occurrences of a command.

        Args:
            command: command mnemonic (e.g. ``"AAP2"``, ``"DPU_AND"``).
            time_ns: wall-clock contribution of *all* ``count`` events
                combined (callers pre-multiply so that parallel sub-array
                execution can be expressed as count=N, time of one).
            energy_nj: total energy of all events combined.
            count: number of command instances issued.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if time_ns < 0 or energy_nj < 0:
            raise ValueError("time and energy must be non-negative")
        targets = [self.ROOT_PHASE]
        targets.extend(self._phase_stack)
        for name in targets:
            self._time_ns[name] += time_ns
            self._energy_nj[name] += energy_nj
            self._commands[name][command] += count
        if self._recorder is not None:
            self._recorder.on_command(
                command, count, time_ns, energy_nj, self.current_phase
            )

    def record_batch(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        counts: np.ndarray,
        time_ns: np.ndarray,
        energy_nj: np.ndarray,
    ) -> None:
        """Record an ordered stream of events, as one :meth:`record` each.

        Event ``j`` is ``counts[j]`` commands of ``names[codes[j]]``
        with combined ``time_ns[j]`` and ``energy_nj[j]``.  Commands
        travel as small integer codes so a stream stays numeric;
        ``names`` lists the stream's commands in order of first
        appearance, each used at least once (that order is the one in
        which a :meth:`record` loop would first key them).  Every phase
        total is the left-to-right running sum a :meth:`record` loop
        builds (:func:`running_sums`), so the ledger and the attached
        recorder end bit-identical to that loop; the recorder receives
        the stream in one
        :meth:`~repro.observability.metrics.Recorder.on_batch` call.
        """
        if not len(codes):
            return
        if counts.min() <= 0:
            raise ValueError("count must be positive")
        if time_ns.min() < 0 or energy_nj.min() < 0:
            raise ValueError("time and energy must be non-negative")
        totals = np.zeros(len(names), dtype=np.int64)
        np.add.at(totals, codes, counts)
        if not totals.all():
            raise ValueError("every command name must occur in the stream")
        targets = [self.ROOT_PHASE]
        targets.extend(self._phase_stack)
        n = len(targets)
        sums = running_sums(
            [self._time_ns[name] for name in targets]
            + [self._energy_nj[name] for name in targets],
            [(i, time_ns) for i in range(n)]
            + [(n + i, energy_nj) for i in range(n)],
        )
        for i, name in enumerate(targets):
            self._time_ns[name] = sums[i]
            self._energy_nj[name] = sums[n + i]
            for command, count in zip(names, totals.tolist()):
                self._commands[name][command] += count
        if self._recorder is not None:
            self._recorder.on_batch(
                names, codes, counts, time_ns, energy_nj, self.current_phase
            )

    def elapsed_ns(self, phase: str | None = None) -> float:
        """Accumulated simulated time of a phase (default: whole run).

        A cheap accessor (no :class:`PhaseTotals` construction) — the
        observability layer's simulated clock reads this per span.
        """
        return self._time_ns.get(phase or self.ROOT_PHASE, 0.0)

    def totals(self, phase: str | None = None) -> PhaseTotals:
        """Aggregates for a phase (default: whole run)."""
        name = phase or self.ROOT_PHASE
        return PhaseTotals(
            time_ns=self._time_ns.get(name, 0.0),
            energy_nj=self._energy_nj.get(name, 0.0),
            commands=dict(self._commands.get(name, Counter())),
        )

    def phases(self) -> list[str]:
        """All phases that recorded at least one event (excl. total)."""
        return sorted(n for n in self._time_ns if n != self.ROOT_PHASE)

    def command_count(self, command: str, phase: str | None = None) -> int:
        name = phase or self.ROOT_PHASE
        return self._commands.get(name, Counter()).get(command, 0)

    def merge(self, other: "StatsLedger") -> None:
        """Fold another ledger's events into this one (phase-wise).

        Raises:
            PhaseActiveError: a phase is open on either ledger — a
                mid-phase merge would silently mix partial phase
                totals into the combined record.
        """
        if self._phase_stack:
            raise PhaseActiveError(
                f"cannot merge into a ledger with open phase "
                f"{self._phase_stack[-1]!r}"
            )
        if other._phase_stack:
            raise PhaseActiveError(
                f"cannot merge from a ledger with open phase "
                f"{other._phase_stack[-1]!r}"
            )
        for name, t in other._time_ns.items():
            self._time_ns[name] += t
        for name, e in other._energy_nj.items():
            self._energy_nj[name] += e
        for name, counter in other._commands.items():
            self._commands[name].update(counter)

    def reset(self) -> None:
        self._time_ns.clear()
        self._energy_nj.clear()
        self._commands.clear()

    # ----- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every phase's accumulators.

        Taken at stage boundaries by the job runtime; no phase may be
        open (an open phase would otherwise resume with its events
        split across two records).
        """
        if self._phase_stack:
            raise PhaseActiveError(
                f"cannot snapshot with open phase {self._phase_stack[-1]!r}"
            )
        return {
            "time_ns": dict(self._time_ns),
            "energy_nj": dict(self._energy_nj),
            "commands": {n: dict(c) for n, c in self._commands.items()},
        }

    def load_state(self, state: Mapping) -> None:
        """Restore a :meth:`state_dict` snapshot (replacing all totals)."""
        self.reset()
        for name, t in state["time_ns"].items():
            self._time_ns[name] = float(t)
        for name, e in state["energy_nj"].items():
            self._energy_nj[name] = float(e)
        for name, commands in state["commands"].items():
            self._commands[name] = Counter(
                {cmd: int(n) for cmd, n in commands.items()}
            )

    def summary(self) -> str:
        """Human-readable multi-line report (used by examples)."""
        lines = []
        order = [self.ROOT_PHASE] + self.phases()
        for name in order:
            totals = self.totals(None if name == self.ROOT_PHASE else name)
            lines.append(
                f"{name:>12}: {totals.time_ns/1e3:12.3f} us "
                f"{totals.energy_nj:12.3f} nJ "
                f"{totals.total_commands:10d} cmds"
            )
        return "\n".join(lines)
