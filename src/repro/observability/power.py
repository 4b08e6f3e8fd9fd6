"""Windowed power timeline built from the stats-ledger command stream.

The paper's headline comparisons are power numbers (Fig. 9b, Fig. 10),
but until now the simulator only reported energy as a single end-of-run
scalar.  :class:`PowerTimeline` turns the same
:class:`~repro.core.stats.StatsLedger` command stream the metrics
registry already observes into a *timeline*: energy binned over
simulated time, attributed per mnemonic and per **lane** (a pipeline
stage for single jobs, a service tenant under the multi-tenant
scheduler), and reported in watts with the exact formula
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
  same way, so ``stage_energy_nj[phase] ==
  ledger.totals(phase).energy_nj`` is also exact;
* binning *spreads* each event's energy uniformly over its duration,
  charging the final bin with the residual ``energy - assigned`` rather
  than its proportional share, so every event deposits exactly its
  energy into the bins and the bin sum differs from the total only by
  float reassociation (checked with ``math.fsum`` in tests and by the
  ``--check`` gate of ``benchmarks/bench_power_timeline.py``).

Lane attribution uses a thread-local :func:`lane_scope` (the service
enters ``lane_scope(tenant)`` around each job) falling back to the
ledger phase, so one timeline serves both the single-job and the
multi-tenant views.  All mutation happens under one lock: jobs run on
concurrent threads may share one session.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator

__all__ = [
    "DEFAULT_BIN_NS",
    "PowerTimeline",
    "current_lane",
    "lane_scope",
]

#: default bin width, simulated nanoseconds (100 us — fine enough to
#: resolve stage transitions of the tier-1 workloads, coarse enough
#: that a paper-scale run stays a few thousand bins)
DEFAULT_BIN_NS = 100_000.0

#: lane charged when neither a lane scope nor a ledger phase is active
DEFAULT_POWER_LANE = "job"

#: per-thread slot for the current attribution lane
_TLS = threading.local()


@contextmanager
def lane_scope(name: str) -> Iterator[None]:
    """Attribute this thread's command energy to lane ``name``.

    The service wraps each dispatched job in
    ``lane_scope(tenant)`` so per-tenant energy shares fall out of the
    timeline without the ledger or the pipeline knowing about tenants.
    """
    previous = getattr(_TLS, "lane", None)
    _TLS.lane = name
    try:
        yield
    finally:
        _TLS.lane = previous


def current_lane() -> "str | None":
    """This thread's lane installed by :func:`lane_scope` (or ``None``)."""
    return getattr(_TLS, "lane", None)


class PowerTimeline:
    """Bins the command stream into per-lane / per-mnemonic energy.

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
        self._cursor_ns = 0.0
        #: exact mirrors of the ledger accumulators (see module docs)
        self.total_energy_nj = 0.0
        self.total_time_ns = 0.0
        self.stage_energy_nj: dict[str, float] = {}
        self.lane_energy_nj: dict[str, float] = {}
        self.mnemonic_energy_nj: dict[str, float] = {}
        self.mnemonic_time_ns: dict[str, float] = {}
        self.mnemonic_count: dict[str, int] = {}
        #: bin index -> deposited energy (nJ), globally and per lane
        self._bins: dict[int, float] = {}
        self._lane_bins: dict[str, dict[int, float]] = {}
        self.events = 0

    # ----- feeding (the Recorder-shaped entry point) -------------------------

    def on_command(
        self,
        command: str,
        count: int,
        time_ns: float,
        energy_nj: float,
        phase: "str | None",
        lane: "str | None" = None,
    ) -> None:
        """Deposit one ledger record into the timeline.

        ``lane`` defaults to the thread's :func:`lane_scope`, then the
        ledger phase, then ``"job"`` — so pipeline stages form lanes by
        themselves and the service overrides with the tenant name.
        """
        if lane is None:
            lane = getattr(_TLS, "lane", None)
            if lane is None:
                lane = phase if phase is not None else DEFAULT_POWER_LANE
        with self._lock:
            self.events += 1
            self.total_energy_nj += energy_nj
            self.total_time_ns += time_ns
            if phase is not None:
                self.stage_energy_nj[phase] = (
                    self.stage_energy_nj.get(phase, 0.0) + energy_nj
                )
            self.lane_energy_nj[lane] = (
                self.lane_energy_nj.get(lane, 0.0) + energy_nj
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
            self._deposit(lane, time_ns, energy_nj)

    def _deposit(self, lane: str, time_ns: float, energy_nj: float) -> None:
        """Spread one event's energy over [cursor, cursor + time_ns)."""
        start = self._cursor_ns
        self._cursor_ns = start + time_ns
        lane_bins = self._lane_bins.get(lane)
        if lane_bins is None:
            lane_bins = self._lane_bins[lane] = {}
        if energy_nj == 0.0:
            return
        first = int(start // self.bin_ns)
        last = int(self._cursor_ns // self.bin_ns)
        if time_ns <= 0.0 or first == last:
            # instantaneous (or bin-contained) event: all in one bin
            self._bins[first] = self._bins.get(first, 0.0) + energy_nj
            lane_bins[first] = lane_bins.get(first, 0.0) + energy_nj
            return
        assigned = 0.0
        for index in range(first, last + 1):
            lo = max(start, index * self.bin_ns)
            hi = min(self._cursor_ns, (index + 1) * self.bin_ns)
            if index == last:
                # residual, not proportional share: the event deposits
                # exactly energy_nj across its bins
                share = energy_nj - assigned
            else:
                share = energy_nj * ((hi - lo) / time_ns)
                assigned += share
            self._bins[index] = self._bins.get(index, 0.0) + share
            lane_bins[index] = lane_bins.get(index, 0.0) + share

    # ----- reading -----------------------------------------------------------

    @property
    def cursor_ns(self) -> float:
        """Simulated time the timeline has advanced to."""
        return self._cursor_ns

    def lanes(self) -> list[str]:
        return sorted(self._lane_bins)

    def integral_nj(self, lane: "str | None" = None) -> float:
        """Energy deposited into the bins (``math.fsum``, reassociated)."""
        bins = self._bins if lane is None else self._lane_bins.get(lane, {})
        return math.fsum(bins.values())

    def series(self, lane: "str | None" = None) -> list[tuple[float, float]]:
        """``(bin_start_ns, power_w)`` points, gaps filled with background.

        Power of a bin is its deposited energy over the bin width plus
        the background term; bins between the first and last touched
        bin that saw no energy still report background power, so the
        series is a gap-free step function a counter track can render.
        """
        bins = self._bins if lane is None else self._lane_bins.get(lane, {})
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

    def peak_power_w(self, lane: "str | None" = None) -> float:
        """Hottest single bin, in watts (background when empty)."""
        bins = self._bins if lane is None else self._lane_bins.get(lane, {})
        if not bins:
            return self.p_background_w
        return max(bins.values()) / self.bin_ns + self.p_background_w

    def thermal_proxy_w(self, lane: "str | None" = None) -> float:
        """Peak of an EWMA over bin powers — sustained-power proxy.

        The EWMA's smoothing factor comes from the thermal time
        constant (``alpha = 1 - exp(-bin_ns / tau_ns)``): one hot bin
        barely moves it, a sustained burn converges to the bin power.
        Deterministic — computed from the bins, no wall clock anywhere.
        """
        series = self.series(lane)
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
        if self.total_time_ns <= 0:
            return self.p_background_w
        return self.total_energy_nj / self.total_time_ns + self.p_background_w

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
            "total_time_ns": self.total_time_ns,
            "average_power_w": self.average_power_w(),
            "peak_power_w": self.peak_power_w(),
            "thermal_proxy_w": self.thermal_proxy_w(),
            "lanes": {
                lane: {
                    "energy_nj": self.lane_energy_nj.get(lane, 0.0),
                    "peak_power_w": self.peak_power_w(lane),
                }
                for lane in self.lanes()
            },
            "stages": dict(sorted(self.stage_energy_nj.items())),
            "mnemonics": {
                name: {
                    "energy_nj": self.mnemonic_energy_nj[name],
                    "time_ns": self.mnemonic_time_ns[name],
                    "count": self.mnemonic_count[name],
                }
                for name in sorted(self.mnemonic_energy_nj)
            },
        }

    def publish_gauges(self, registry) -> None:
        """Write the peak/thermal/average gauges into a metrics registry."""
        registry.gauge("power.peak_w").set(self.peak_power_w())
        registry.gauge("power.thermal_proxy_w").set(self.thermal_proxy_w())
        registry.gauge("power.average_w").set(self.average_power_w())
        for lane in self.lanes():
            registry.gauge(f"power.lane_energy_nj.{lane}").set(
                self.lane_energy_nj.get(lane, 0.0)
            )
