"""Windowed power timeline built from the stats-ledger command stream.

The paper's headline comparisons are power numbers (Fig. 9b, Fig. 10),
but until now the simulator only reported energy as a single end-of-run
scalar.  :class:`PowerTimeline` turns the
:class:`~repro.core.stats.StatsLedger` command stream into a
*timeline*: energy binned over simulated time, attributed per mnemonic
and per **lane** (the ledger phase, i.e. the pipeline stage, with
``"job"`` for records outside a phase), and reported in watts with the
exact formula
``energy_nj / time_ns + p_background_w`` that
:meth:`repro.core.energy.EnergyModel.power_w` uses (1 nJ / 1 ns = 1 W).

Conservation by construction
============================

The headline invariant — *the timeline integrates to the ledger's total
energy, exactly* — is kept bit-exact, not approximately:

* :attr:`total_energy_nj` is accumulated with the same ``+=`` sequence
  (same addends, same order) as the ledger's ROOT accumulator, so for a
  single-threaded run ``timeline.total_energy_nj ==
  ledger.totals().energy_nj`` holds under IEEE-754 equality, float
  non-associativity notwithstanding;
* per-phase accumulators mirror the ledger's per-phase ``+=`` order the
  same way, so ``phase_energy_nj[phase] ==
  ledger.totals(phase).energy_nj`` is also exact;
* binning *spreads* each event's energy uniformly over its duration,
  charging the final bin with the residual ``energy - assigned`` rather
  than its proportional share, so every event deposits exactly its
  energy into the bins and the bin sum differs from the total only by
  float reassociation (checked with ``math.fsum`` in tests and by the
  ``--check`` gate of ``benchmarks/bench_power_timeline.py``).

The timeline is the observability session's one accumulator of ledger
records: its cursor is the session's simulated clock, and
:meth:`PowerTimeline.publish` writes its per-mnemonic and per-stage
sums into the metrics registry at export.  All mutation happens under
one lock: jobs run on concurrent threads may share one session.
"""

from __future__ import annotations

import math
import threading
from typing import Sequence

import numpy as np

from repro.observability.metrics import running_sums

__all__ = [
    "DEFAULT_BIN_NS",
    "PowerTimeline",
]

#: default bin width, simulated nanoseconds (100 us — fine enough to
#: resolve stage transitions of the tier-1 workloads, coarse enough
#: that a paper-scale run stays a few thousand bins)
DEFAULT_BIN_NS = 100_000.0

#: lane of the records charged outside any ledger phase (no pipeline
#: stage opens a ledger phase of this name)
DEFAULT_POWER_LANE = "job"


class PowerTimeline:
    """Bins the command stream into per-phase / per-mnemonic energy.

    Args:
        bin_ns: bin width in simulated nanoseconds.
        p_background_w: standby+refresh+controller watts added to every
            reported power figure (the paper's background term).
        thermal_tau_ns: time constant of the thermal-proxy EWMA over
            bin powers; a sustained-power gauge that a single hot bin
            cannot spike the way it spikes :meth:`peak_power_w`.
    """

    def __init__(
        self,
        bin_ns: float = DEFAULT_BIN_NS,
        p_background_w: "float | None" = None,
        thermal_tau_ns: "float | None" = None,
    ) -> None:
        if p_background_w is None or thermal_tau_ns is None:
            # lazy: repro.core imports the observability session at
            # module load, so a top-level energy import would cycle
            from repro.core.energy import DEFAULT_ENERGY

            if p_background_w is None:
                p_background_w = DEFAULT_ENERGY.p_background_w
            if thermal_tau_ns is None:
                thermal_tau_ns = DEFAULT_ENERGY.thermal_tau_ns
        if bin_ns <= 0:
            raise ValueError("bin_ns must be positive")
        if thermal_tau_ns <= 0:
            raise ValueError("thermal_tau_ns must be positive")
        self.bin_ns = float(bin_ns)
        self.p_background_w = float(p_background_w)
        self.thermal_tau_ns = float(thermal_tau_ns)
        self._lock = threading.Lock()
        #: the session's one simulated clock: the sum of every record's
        #: time, advanced in ledger order
        self._cursor_ns = 0.0
        #: exact mirrors of the ledger accumulators (see module docs);
        #: per-phase sums key records outside a phase by ``"job"``
        self.total_energy_nj = 0.0
        self.phase_time_ns: dict[str, float] = {}
        self.phase_energy_nj: dict[str, float] = {}
        self.mnemonic_energy_nj: dict[str, float] = {}
        self.mnemonic_time_ns: dict[str, float] = {}
        self.mnemonic_count: dict[str, int] = {}
        #: bin index -> deposited energy (nJ), globally and per phase
        self._bins: dict[int, float] = {}
        self._phase_bins: dict[str, dict[int, float]] = {}
        self.events = 0

    # ----- feeding (the Recorder-shaped entry point) -------------------------

    def on_command(
        self,
        command: str,
        count: int,
        time_ns: float,
        energy_nj: float,
        phase: "str | None",
    ) -> None:
        """Deposit one ledger record into the timeline."""
        if phase is None:
            phase = DEFAULT_POWER_LANE
        with self._lock:
            self.events += 1
            self.total_energy_nj += energy_nj
            self.phase_time_ns[phase] = (
                self.phase_time_ns.get(phase, 0.0) + time_ns
            )
            self.phase_energy_nj[phase] = (
                self.phase_energy_nj.get(phase, 0.0) + energy_nj
            )
            self.mnemonic_energy_nj[command] = (
                self.mnemonic_energy_nj.get(command, 0.0) + energy_nj
            )
            self.mnemonic_time_ns[command] = (
                self.mnemonic_time_ns.get(command, 0.0) + time_ns
            )
            self.mnemonic_count[command] = (
                self.mnemonic_count.get(command, 0) + count
            )
            start = self._cursor_ns
            self._cursor_ns = start + time_ns
            if energy_nj != 0.0:
                phase_bins = self._phase_bins.setdefault(phase, {})
                for index, share in self._spread(
                    start, self._cursor_ns, time_ns, energy_nj
                ):
                    self._bins[index] = self._bins.get(index, 0.0) + share
                    phase_bins[index] = phase_bins.get(index, 0.0) + share

    def on_batch(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        counts: np.ndarray,
        time_ns: np.ndarray,
        energy_nj: np.ndarray,
        phase: "str | None",
    ) -> np.ndarray:
        """Deposit an ordered stream of ledger records, as
        :meth:`on_command` per record would.

        Every accumulator and every bin is a left-to-right running sum
        (:func:`~repro.observability.metrics.running_sums`) over its
        addends in stream order; a bin's addends are the energies of the
        events inside it and the shares of the rare events that straddle
        into it.  Returns the cursor after each event, the simulated
        clock the flight ring stamps.
        """
        if not len(codes):
            return np.empty(0)
        if phase is None:
            phase = DEFAULT_POWER_LANE
        with self._lock:
            cursor = np.add.accumulate(
                np.concatenate(([self._cursor_ns], time_ns))
            )
            totals = np.zeros(len(names), dtype=np.int64)
            np.add.at(totals, codes, counts)
            bins, run, deposits = self._deposits(cursor, time_ns, energy_nj)
            phase_bins = (
                self._phase_bins.setdefault(phase, {}) if bins else {}
            )
            g, b = len(names), len(bins)
            sums = iter(
                running_sums(
                    [
                        self.total_energy_nj,
                        self.phase_time_ns.get(phase, 0.0),
                        self.phase_energy_nj.get(phase, 0.0),
                    ]
                    + [self.mnemonic_energy_nj.get(c, 0.0) for c in names]
                    + [self.mnemonic_time_ns.get(c, 0.0) for c in names]
                    + [self._bins.get(index, 0.0) for index in bins]
                    + [phase_bins.get(index, 0.0) for index in bins],
                    [
                        (0, energy_nj),
                        (1, time_ns),
                        (2, energy_nj),
                        (3 + codes, energy_nj),
                        (3 + g + codes, time_ns),
                        (3 + 2 * g + run, deposits),
                        (3 + 2 * g + b + run, deposits),
                    ],
                )
            )
            self.events += len(codes)
            self.total_energy_nj = next(sums)
            self.phase_time_ns[phase] = next(sums)
            self.phase_energy_nj[phase] = next(sums)
            for target in (self.mnemonic_energy_nj, self.mnemonic_time_ns):
                for command in names:
                    target[command] = next(sums)
            for command, count in zip(names, totals.tolist()):
                self.mnemonic_count[command] = (
                    self.mnemonic_count.get(command, 0) + count
                )
            for target in (self._bins, phase_bins):
                for index in bins:
                    target[index] = next(sums)
            self._cursor_ns = float(cursor[-1])
            return cursor[1:]

    def _deposits(
        self, cursor: np.ndarray, time_ns: np.ndarray, energy_nj: np.ndarray
    ) -> "tuple[list[int], int | np.ndarray, np.ndarray]":
        """A stream's bin deposits, in deposit order.

        ``cursor[j]`` and ``cursor[j + 1]`` bound event ``j``.  An
        event inside one bin deposits its energy there; an event that
        straddles bins deposits its :meth:`_spread` shares, in bin
        order; an event without energy deposits nothing.  Returns the
        bins touched, ascending, and per deposit its position in that
        list and its energy.
        """
        first = int(cursor[0] // self.bin_ns)
        if first == int(cursor[-1] // self.bin_ns):
            # the whole stream lies in one bin, where an event without
            # energy adds zero
            if energy_nj.any():
                return [first], 0, energy_nj
            return [], 0, energy_nj[:0]
        live = np.flatnonzero(energy_nj != 0.0)
        start, end = cursor[live], cursor[live + 1]
        index = np.floor_divide(start, self.bin_ns).astype(np.int64)
        value = energy_nj[live]
        straddle = np.flatnonzero(
            (time_ns[live] > 0.0)
            & (index != np.floor_divide(end, self.bin_ns))
        ).tolist()
        if straddle:
            # splice each straddler's shares in at its place
            pieces, lo = [], 0
            for j in straddle:
                shares = self._spread(
                    float(start[j]),
                    float(end[j]),
                    float(time_ns[live[j]]),
                    float(value[j]),
                )
                pieces.append((index[lo:j], value[lo:j]))
                pieces.append(tuple(map(np.array, zip(*shares))))
                lo = j + 1
            pieces.append((index[lo:], value[lo:]))
            index = np.concatenate([i for i, _ in pieces])
            value = np.concatenate([v for _, v in pieces])
        # the cursor only advances, so deposits run in bin order
        change = np.ones(index.size, dtype=bool)
        change[1:] = index[1:] != index[:-1]
        return index[change].tolist(), np.cumsum(change) - 1, value

    def _spread(
        self, start: float, end: float, time_ns: float, energy_nj: float
    ) -> "list[tuple[int, float]]":
        """``(bin, share)`` of one event's energy over [start, end)."""
        first = int(start // self.bin_ns)
        last = int(end // self.bin_ns)
        if time_ns <= 0.0 or first == last:
            # instantaneous (or bin-contained) event: all in one bin
            return [(first, energy_nj)]
        shares = []
        assigned = 0.0
        for index in range(first, last + 1):
            lo = max(start, index * self.bin_ns)
            hi = min(end, (index + 1) * self.bin_ns)
            if index == last:
                # residual, not proportional share: the event deposits
                # exactly energy_nj across its bins
                share = energy_nj - assigned
            else:
                share = energy_nj * ((hi - lo) / time_ns)
                assigned += share
            shares.append((index, share))
        return shares

    # ----- reading -----------------------------------------------------------

    @property
    def cursor_ns(self) -> float:
        """Simulated time the timeline has advanced to."""
        return self._cursor_ns

    def lanes(self) -> list[str]:
        """Every phase that saw a record, ``"job"`` included."""
        return sorted(self.phase_energy_nj)

    def _bins_of(self, phase: "str | None") -> dict[int, float]:
        return self._bins if phase is None else self._phase_bins.get(phase, {})

    def integral_nj(self, phase: "str | None" = None) -> float:
        """Energy deposited into the bins (``math.fsum``, reassociated)."""
        return math.fsum(self._bins_of(phase).values())

    def series(self, phase: "str | None" = None) -> list[tuple[float, float]]:
        """``(bin_start_ns, power_w)`` points, gaps filled with background.

        Power of a bin is its deposited energy over the bin width plus
        the background term; bins between the first and last touched
        bin that saw no energy still report background power, so the
        series is a gap-free step function a counter track can render.
        """
        bins = self._bins_of(phase)
        if not bins:
            return []
        first, last = min(bins), max(bins)
        return [
            (
                index * self.bin_ns,
                bins.get(index, 0.0) / self.bin_ns + self.p_background_w,
            )
            for index in range(first, last + 1)
        ]

    def peak_power_w(self, phase: "str | None" = None) -> float:
        """Hottest single bin, in watts (background when empty)."""
        bins = self._bins_of(phase)
        if not bins:
            return self.p_background_w
        return max(bins.values()) / self.bin_ns + self.p_background_w

    def thermal_proxy_w(self, phase: "str | None" = None) -> float:
        """Peak of an EWMA over bin powers — sustained-power proxy.

        The EWMA's smoothing factor comes from the thermal time
        constant (``alpha = 1 - exp(-bin_ns / tau_ns)``): one hot bin
        barely moves it, a sustained burn converges to the bin power.
        Deterministic — computed from the bins, no wall clock anywhere.
        """
        series = self.series(phase)
        if not series:
            return self.p_background_w
        alpha = 1.0 - math.exp(-self.bin_ns / self.thermal_tau_ns)
        ewma = self.p_background_w
        hottest = ewma
        for _, power_w in series:
            ewma += alpha * (power_w - ewma)
            if ewma > hottest:
                hottest = ewma
        return hottest

    def average_power_w(self) -> float:
        """Whole-run average: total energy over elapsed time + background."""
        if self._cursor_ns <= 0:
            return self.p_background_w
        return self.total_energy_nj / self._cursor_ns + self.p_background_w

    def top_mnemonics(self, k: int = 5) -> list[tuple[str, float]]:
        """The ``k`` mnemonics with the largest energy share, descending."""
        ranked = sorted(
            self.mnemonic_energy_nj.items(), key=lambda kv: (-kv[1], kv[0])
        )
        return ranked[:k]

    # ----- export ------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-serializable rollup (no raw bins — those go to traces)."""
        return {
            "bin_ns": self.bin_ns,
            "p_background_w": self.p_background_w,
            "events": self.events,
            "total_energy_nj": self.total_energy_nj,
            "total_time_ns": self._cursor_ns,
            "average_power_w": self.average_power_w(),
            "peak_power_w": self.peak_power_w(),
            "thermal_proxy_w": self.thermal_proxy_w(),
            "lanes": {
                lane: {
                    "energy_nj": self.phase_energy_nj[lane],
                    "peak_power_w": self.peak_power_w(lane),
                }
                for lane in self.lanes()
            },
            "stages": _stages(self.phase_energy_nj),
            "mnemonics": {
                name: {
                    "energy_nj": self.mnemonic_energy_nj[name],
                    "time_ns": self.mnemonic_time_ns[name],
                    "count": self.mnemonic_count[name],
                }
                for name in sorted(self.mnemonic_energy_nj)
            },
        }

    def publish(self, registry) -> None:
        """Write the timeline's sums into a metrics registry.

        The ``pim.*`` command/time/energy counters (per mnemonic, their
        ``.total`` aggregates, per-stage time) and the ``power.*``
        gauges.  Values are assigned, not added, so publishing twice
        writes the same registry.
        """

        def counter(name: str, value: float) -> None:
            registry.counter(name).value = float(value)

        for name, count in self.mnemonic_count.items():
            counter(f"pim.commands.{name}", count)
            counter(f"pim.time_ns.{name}", self.mnemonic_time_ns[name])
            counter(f"pim.energy_nj.{name}", self.mnemonic_energy_nj[name])
        if self.events:
            counter("pim.commands.total", sum(self.mnemonic_count.values()))
            counter("pim.time_ns.total", self._cursor_ns)
            counter("pim.energy_nj.total", self.total_energy_nj)
        for phase, time_ns in _stages(self.phase_time_ns).items():
            counter(f"pim.stage_time_ns.{phase}", time_ns)
        registry.gauge("power.peak_w").set(self.peak_power_w())
        registry.gauge("power.thermal_proxy_w").set(self.thermal_proxy_w())
        registry.gauge("power.average_w").set(self.average_power_w())
        for lane in self.lanes():
            registry.gauge(f"power.lane_energy_nj.{lane}").set(
                self.phase_energy_nj[lane]
            )


def _stages(per_phase: dict[str, float]) -> dict[str, float]:
    """The ledger-phase entries of a per-phase sum, sorted by name."""
    return {
        phase: value
        for phase, value in sorted(per_phase.items())
        if phase != DEFAULT_POWER_LANE
    }
