"""Batched AAP scheduling: the simulator's one model of sub-array parallelism.

The paper's throughput comes from every (bank, MAT) pair issuing the
same AAP command on its own sub-array at once.  The ledger of the
scalar controller charges each command as if the machine were a single
queue; :class:`BatchedAapScheduler` prices a batch of commands against
a resource model instead — every sub-array serialises its own stream,
every MAT's GRB serialises host reads/writes and every MAT's DPU its
reduce ops — and charges the batch's *makespan*, the busiest
resource's serial time.  The bulk engine charges through it, and
:func:`charge_stream` prices a recorded
:class:`~repro.core.trace.CommandTrace` the same way:

* **parallelism audit** — ``coalescing_speedup = serial / makespan``
  measures how much sub-array-level parallelism a command stream
  exposes (the hash-partitioned hashmap coalesces by more than 1x; a
  single-sub-array reduction by exactly 1x);
* **timing bounds** — the makespan never exceeds the serial sum and
  equals the largest per-resource busy sum; both are asserted by the
  tests.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from repro.core.grouping import group
from repro.core.isa import ISA, RESOURCES, resource_key
from repro.core.resilience import verify_cells
from repro.core.timing import DEFAULT_TIMING, command_cost_table
from repro.core.trace import CommandTrace
from repro.observability.metrics import active_registry, inc, observe


@dataclass(frozen=True)
class BatchReport:
    """Outcome of flushing one command batch to the ledger."""

    serial_ns: float
    makespan_ns: float
    commands: int

    @property
    def coalescing_speedup(self) -> float:
        """serial / makespan — parallelism exposed by gang coalescing."""
        if self.makespan_ns <= 0:
            return 1.0
        return self.serial_ns / self.makespan_ns


@dataclass(frozen=True)
class PricedSegments:
    """Segments priced by :meth:`BatchedAapScheduler.price_segments`,
    not yet recorded: ``(segments x columns)`` ledger cells, one column
    per command name, and one report per segment."""

    names: list
    counts: np.ndarray
    time_ns: np.ndarray
    energy_nj: np.ndarray
    reports: list
    #: what :meth:`BatchedAapScheduler._trace_segments` needs
    schedule: tuple = ()

    def with_column(
        self,
        name: str,
        counts: np.ndarray,
        time_ns: np.ndarray,
        energy_nj: np.ndarray,
    ) -> "PricedSegments":
        """Append a per-segment cell outside the schedule: the ledger
        records it after the segment's other cells, and no resource,
        trace or report sees it."""
        return replace(
            self,
            names=self.names + [name],
            counts=np.column_stack((self.counts, counts)),
            time_ns=np.column_stack((self.time_ns, time_ns)),
            energy_nj=np.column_stack((self.energy_nj, energy_nj)),
        )

    def head(self, n: int) -> "PricedSegments":
        """The first ``n`` segments, priced as they would be alone."""
        keys, key_index, starts, names, t, entries = self.schedule
        stop = int(starts[n]) if n < len(starts) else len(key_index)
        return replace(
            self,
            counts=self.counts[:n],
            time_ns=self.time_ns[:n],
            energy_nj=self.energy_nj[:n],
            reports=self.reports[:n],
            schedule=(
                keys, key_index[:stop], starts[:n], names, t, entries[:, :stop]
            ),
        )

    def elapsed(self, start_ns: float) -> np.ndarray:
        """``(segments x columns)`` simulated time after each cell, for a
        ledger at ``start_ns``: the ledger's own left-to-right sum,
        since a zero-count cell adds exactly 0.0."""
        flat = np.concatenate(([start_ns], self.time_ns.ravel()))
        return np.add.accumulate(flat)[1:].reshape(self.time_ns.shape)


class BatchedAapScheduler:
    """Coalesces independent per-sub-array op streams into gang issues.

    The scalar controller charges every command as if the machine were
    one queue.  The bulk engine instead queues *counts* of commands per
    (mnemonic, resource) pair and flushes them in one pass: commands
    against different sub-arrays share command slots (gang issue, the
    SIMD execution of Section III), so wall-clock time is the busiest
    resource's serial time, computed in O(resources) instead of
    O(commands).

    Resources:

    * each sub-array serialises its own AAP/SUM/LATCH stream;
    * each MAT's GRB serialises host reads/writes (which also occupy
      the source/target sub-array);
    * each MAT's DPU runs reduce ops — a *separate* resource, so the
      DPU reduce of a scanned row overlaps the next row's activation.

    Which of them a mnemonic busies is its ``resources`` entry in the
    instruction table :data:`repro.core.isa.ISA`.

    Pricing: :meth:`price_segments` is the one makespan computation.
    It prices many independent gang schedules in one host pass — the
    bulk hashmap prices one per read of a batch — and gives each
    mnemonic its full energy and command count but its serial time
    scaled by ``makespan / serial``, so the phase totals add up to the
    gang-scheduled wall-clock (documented in ``docs/CALIBRATION.md``).
    :meth:`record` sends priced segments to the ledger;
    :meth:`flush_segments` is the two in one call.  Per-command costs
    come from the cached :func:`repro.core.timing.command_cost_table`.

    :meth:`charge` and :meth:`flush` are a queue in front of it: one
    :meth:`charge` call is one mnemonic fanned out over a vector of
    sub-arrays, the way one AAP command runs on every sub-array at
    once, and :meth:`flush` prices the queued batch as one segment.

    ``trace`` is the controller's attached
    :class:`~repro.core.trace.CommandTrace` (``None`` when detached):
    every charged (mnemonic, sub-array) share and every flush boundary
    is recorded into it for audit.
    """

    def __init__(self, ledger, timing=None, energy=None) -> None:
        from repro.core.energy import DEFAULT_ENERGY  # energy imports timing

        self.ledger = ledger
        self.timing = timing or DEFAULT_TIMING
        self.energy = energy or DEFAULT_ENERGY
        self.costs = command_cost_table(self.timing, self.energy)
        #: the ledger cells of one parity check, and as name list and
        #: count, ns and nJ rows
        self.verify = verify_cells(self.timing, self.energy)
        names, *rows = zip(*self.verify)
        self._verify_columns = [list(names)] + [np.array(row) for row in rows]
        self.trace: CommandTrace | None = None
        #: resource -> id: sub-array keys, plus ``("grb", bank, mat)``
        #: and ``("dpu", bank, mat)``
        self._resource_ids: dict[tuple, int] = {}
        #: sub-array key -> (sub-array, MAT GRB, MAT DPU) resource ids
        self._key_ids: dict[tuple, tuple[int, int, int]] = {}
        #: the last resolved key vector and its ``(n, 3)`` id array: the
        #: charges of one kernel all share one key vector
        self._last_keys: list = []
        self._last_ids = np.zeros((0, 3), dtype=np.intp)
        #: the :meth:`charge` queue: ``(mnemonic, keys, counts)`` per call
        self._queue: list[tuple[str, list, np.ndarray]] = []

    def _cost(self, mnemonic: str) -> tuple[float, float]:
        try:
            return self.costs[mnemonic]
        except KeyError:
            raise ValueError(
                f"no cost model for mnemonic {mnemonic!r}"
            ) from None

    def _ids(self, keys: list) -> np.ndarray:
        """``(len(keys), 3)`` sub-array, MAT GRB and MAT DPU ids."""
        # one list object is reused call after call: spare the
        # element-wise compare, which grows with the key list
        if keys is not self._last_keys and keys != self._last_keys:
            key_ids = self._key_ids
            resources = self._resource_ids
            for key in set(keys).difference(key_ids):
                key_ids[key] = tuple(
                    resources.setdefault(resource_key(name, key), len(resources))
                    for name in RESOURCES
                )
            self._last_keys = keys
            self._last_ids = np.array(
                [key_ids[key] for key in keys], dtype=np.intp
            ).reshape(-1, 3)
        return self._last_ids

    # ----- the charge queue --------------------------------------------------

    def charge(
        self,
        mnemonic: str,
        subarray_keys: Iterable[tuple[int, int, int]],
        counts: Iterable[int],
    ) -> None:
        """Queue ``counts[i]`` commands of one kind on ``subarray_keys[i]``.

        Nothing is priced until :meth:`flush`.  Keys and counts must
        have equal lengths and counts must be non-negative; each
        mnemonic is charged at most once per batch.
        """
        self._cost(mnemonic)  # reject an unknown mnemonic at once
        if any(queued == mnemonic for queued, _, _ in self._queue):
            raise ValueError(f"{mnemonic!r} already charged in this batch")
        keys = list(subarray_keys)
        if not isinstance(counts, np.ndarray):
            counts = list(counts)
        counts = np.asarray(counts).astype(np.int64)
        if counts.size != len(keys):
            raise ValueError(
                f"{len(keys)} sub-array keys but {counts.size} counts"
            )
        if (counts < 0).any():
            raise ValueError("command counts must be non-negative")
        self._queue.append((mnemonic, keys, counts))

    def flush(self) -> BatchReport:
        """Charge the queued batch to the ledger as one gang schedule.

        The queue goes through :meth:`flush_segments` as one segment
        whose entries are every charge's keys in charge order.
        """
        queue, self._queue = self._queue, []
        keys = [key for _, charged, _ in queue for key in charged]
        if not keys:
            return BatchReport(serial_ns=0.0, makespan_ns=0.0, commands=0)
        charges, lo = [], 0
        for mnemonic, charged, counts in queue:
            column = np.zeros(len(keys), dtype=np.int64)
            column[lo : lo + counts.size] = counts
            charges.append((mnemonic, column))
            lo += counts.size
        (report,) = self.flush_segments(
            keys, np.arange(len(keys)), np.zeros(len(keys)), charges
        )
        return report

    def flush_segments(
        self,
        keys: list,
        key_index: np.ndarray,
        segments: np.ndarray,
        charges: "list[tuple[str, np.ndarray]]",
        verify: "np.ndarray | None" = None,
    ) -> list[BatchReport]:
        """Price and record one gang schedule per segment, in one pass.

        :meth:`price_segments` then :meth:`record`; see there.  Returns
        one :class:`BatchReport` per segment.
        """
        return self.record(
            self.price_segments(keys, key_index, segments, charges, verify)
        )

    def price_segments(
        self,
        keys: list,
        key_index: np.ndarray,
        segments: np.ndarray,
        charges: "list[tuple[str, np.ndarray]]",
        verify: "np.ndarray | None" = None,
    ) -> "PricedSegments":
        """Price one gang schedule per segment, recording nothing.

        Entry ``j`` puts ``counts[j]`` commands of each ``(mnemonic,
        counts)`` in ``charges`` on ``keys[key_index[j]]``; consecutive
        entries with equal ``segments`` labels form one schedule.
        ``verify[i]``, when given, is the number of parity checks
        segment ``i`` charges (:func:`~repro.core.resilience.verify_cells`).

        Per segment, the cells are its ``VRF_AAP`` and ``VRF_DPU``
        cells, then each mnemonic's total in charge order with its
        serial time scaled by ``makespan / serial``.  Verify cycles stay
        outside the schedule: no resource, trace charge or
        ``pim.batch.*`` metric sees them.  A resource's busy time sums
        its entries in entry order.  Mnemonics must be distinct.
        """
        names = [mnemonic for mnemonic, _ in charges]
        if len(set(names)) != len(names):
            raise ValueError(f"mnemonics charged more than once: {names}")
        segments = np.asarray(segments)
        if not segments.size:
            empty = np.zeros((0, 0))
            return PricedSegments([], empty, empty, empty, [])
        change = np.concatenate(([False], segments[1:] != segments[:-1]))
        starts = np.concatenate(([0], np.flatnonzero(change)))
        t, e = np.array([self._cost(mnemonic) for mnemonic in names]).T
        entries = np.array([counts for _, counts in charges], dtype=np.int64)
        # per entry: busy ns on its sub-array, MAT GRB and MAT DPU
        busy = np.zeros((3, segments.size))
        for mnemonic, time_ns, counts in zip(names, t, entries):
            for column in ISA[mnemonic].columns:
                busy[column] += counts * time_ns
        ids = self._ids(keys)[key_index]  # may grow the resource table
        # busy ns per (segment, resource), then each segment's maximum
        n_res = len(self._resource_ids)
        bins = group((np.cumsum(change) * n_res + ids.T).ravel())
        per_resource = np.bincount(bins.inverse, weights=busy.ravel())
        first = np.flatnonzero(
            np.concatenate(([True], np.diff(bins.values // n_res) != 0))
        )
        makespans = np.maximum.reduceat(per_resource, first)

        # (segments x mnemonics) totals; serial ns adds left to right
        totals = np.add.reduceat(entries, starts, axis=1).T
        time_ns = totals * t
        serial = np.add.accumulate(time_ns, axis=1)[:, -1]
        scale = np.divide(
            makespans, serial, out=np.zeros_like(serial), where=serial > 0
        )
        reports = [
            BatchReport(serial_ns=s, makespan_ns=m, commands=n)
            for s, m, n in zip(
                serial.tolist(), makespans.tolist(), totals.sum(axis=1).tolist()
            )
        ]
        schedule = (keys, key_index, starts, names, t, entries)
        time_ns = time_ns * scale[:, None]
        energy_nj = totals * e
        if verify is not None:
            checks = np.asarray(verify, dtype=np.int64)[:, None]
            cells, n, vt, ve = self._verify_columns
            names = cells + names
            totals = np.concatenate((checks * n, totals), axis=1)
            time_ns = np.concatenate((checks * vt, time_ns), axis=1)
            energy_nj = np.concatenate((checks * ve, energy_nj), axis=1)
        return PricedSegments(
            names, totals, time_ns, energy_nj, reports, schedule
        )

    def record(self, priced: "PricedSegments") -> list[BatchReport]:
        """Record priced segments: the ledger, the trace, the metrics.

        The whole call reaches the ledger as one ordered stream
        (:meth:`~repro.core.stats.StatsLedger.record_batch`): each
        segment's cells in column order, segment by segment, zero-count
        cells dropped.  Each mnemonic's nonzero per-entry shares and
        each segment's flush go to the trace.
        """
        self._record_cells(
            priced.names, priced.counts, priced.time_ns, priced.energy_nj
        )
        if self.trace is not None and priced.reports:
            self._trace_segments(*priced.schedule, priced.reports)
        if active_registry() is not None:
            for report in priced.reports:
                if report.commands:
                    inc("pim.batch.flushes")
                    observe("pim.batch.commands", report.commands)
                    observe("pim.batch.makespan_ns", report.makespan_ns)
                    observe("pim.batch.speedup", report.coalescing_speedup)
        return priced.reports

    def _record_cells(
        self,
        names: list,
        counts: np.ndarray,
        time_ns: np.ndarray,
        energy_nj: np.ndarray,
    ) -> None:
        """Send (segments x columns) cells to the ledger as one stream,
        row-major with zero-count cells dropped."""
        nonzero = counts > 0
        # number the commands in order of first appearance
        used = np.flatnonzero(nonzero.any(axis=0))
        used = used[np.argsort(nonzero[:, used].argmax(axis=0), kind="stable")]
        if not used.size:
            return
        code = np.empty(len(names), dtype=np.intp)
        code[used] = np.arange(used.size)
        live = np.flatnonzero(nonzero)
        self.ledger.record_batch(
            [names[c] for c in used.tolist()],
            code[live % len(names)],
            counts.ravel()[live],
            time_ns.ravel()[live],
            energy_nj.ravel()[live],
        )

    def _trace_segments(
        self, keys, key_index, starts, names, t, entries, reports
    ) -> None:
        """Record each segment's nonzero per-entry shares, then its flush."""
        trace = self.trace
        bounds = np.append(starts, len(key_index)).tolist()
        entry_keys = [keys[i] for i in np.asarray(key_index).tolist()]
        shares = [
            (mnemonic, time_ns, counts.tolist())
            for mnemonic, time_ns, counts in zip(names, t.tolist(), entries)
        ]
        for lo, hi, report in zip(bounds, bounds[1:], reports):
            for mnemonic, time_ns, counts in shares:
                for key, count in zip(entry_keys[lo:hi], counts[lo:hi]):
                    if count > 0:
                        trace.charge(mnemonic, key, count, count * time_ns)
            if report.commands:
                trace.flush(
                    report.serial_ns, report.makespan_ns, report.commands
                )


class _NullLedger:
    """Absorbs charges when only the schedule report is wanted."""

    def record_batch(self, *args: object) -> None:
        pass


def charge_stream(trace, timing=None, energy=None) -> BatchReport:
    """Price a recorded stream through the batched gang scheduler.

    The stream's commands are counted per (mnemonic, sub-array), queued
    as one vector charge per mnemonic, and the batch is flushed once —
    the returned :class:`BatchReport`
    carries the serial time and the gang-coalesced makespan the bulk
    engine's resource model assigns the stream.  Nothing is charged to
    a real ledger; this is the reporting path ``optimize-trace`` and
    the benchmarks use to quote coalesced wall-clock.
    """
    per_mnemonic: dict[str, Counter] = defaultdict(Counter)
    for entry in trace:
        per_mnemonic[entry.mnemonic][entry.subarray] += 1
    scheduler = BatchedAapScheduler(_NullLedger(), timing=timing, energy=energy)
    for mnemonic, per_sub in per_mnemonic.items():
        scheduler.charge(mnemonic, per_sub.keys(), per_sub.values())
    return scheduler.flush()
