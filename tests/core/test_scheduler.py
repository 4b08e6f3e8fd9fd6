"""The batched scheduler: makespan bounds, parallelism audit, vector charges."""

from collections import Counter

import numpy as np
import pytest

from repro.core import CommandTrace, PimAssembler
from repro.core.energy import DEFAULT_ENERGY
from repro.core.resilience import verify_cells
from repro.core.scheduler import BatchReport, BatchedAapScheduler, charge_stream
from repro.core.timing import DEFAULT_TIMING, command_cost_table
from repro.core.trace import CommandTrace as Trace
from repro.observability.metrics import MetricsRegistry


def traced_pim(**kwargs):
    pim = PimAssembler.small(**kwargs)
    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    return pim, trace


def resource_busy(trace):
    """Busy ns per resource, recomputed from the cost table.

    Every command busies its sub-array, except ``DPU`` work, which runs
    on the MAT's DPU; host reads and writes also cross the MAT's GRB.
    """
    costs = command_cost_table(DEFAULT_TIMING, DEFAULT_ENERGY)
    busy = Counter()
    for entry in trace:
        time_ns = costs[entry.mnemonic][0]
        mat = entry.subarray[:2]
        if entry.mnemonic == "DPU":
            busy[("dpu", *mat)] += time_ns
        else:
            busy[entry.subarray] += time_ns
        if entry.mnemonic in ("MEM_RD", "MEM_WR"):
            busy[("grb", *mat)] += time_ns
    return busy


class TestBounds:
    def test_serial_trace_makespan_equals_serial_time(self, rng):
        """Commands on one sub-array cannot overlap."""
        pim, trace = traced_pim()
        a = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        b = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        pim.pim_xnor(a, b)
        report = charge_stream(trace)
        assert report.makespan_ns == pytest.approx(report.serial_ns)
        assert report.coalescing_speedup == pytest.approx(1.0)

    def test_parallel_mats_overlap(self, rng):
        """The same work spread over 4 MATs (own GRBs) overlaps."""
        pim, trace = traced_pim(subarrays=1, mats=4)
        for m in range(4):
            a = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, m, 0)
            )
            b = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, m, 0)
            )
            pim.pim_xnor(a, b)
        report = charge_stream(trace)
        assert report.coalescing_speedup > 3.0
        assert report.makespan_ns < report.serial_ns

    def test_shared_grb_limits_single_mat_parallelism(self, rng):
        """Sub-arrays of ONE MAT share a GRB: with eight of them, their
        host writes outlast any one sub-array's work."""
        pim, trace = traced_pim(subarrays=8, mats=1)
        for s in range(8):
            a = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, 0, s)
            )
            b = pim.store_row(
                rng.integers(0, 2, 32).astype(np.uint8), (0, 0, s)
            )
            pim.pim_xnor(a, b)
        report = charge_stream(trace)
        assert report.makespan_ns == resource_busy(trace)[("grb", 0, 0)]
        assert 1.0 < report.coalescing_speedup < 8.0

    def test_makespan_never_below_critical_resource(self, rng):
        pim, trace = traced_pim()
        for s in range(3):
            for _ in range(2):
                pim.store_row(
                    rng.integers(0, 2, 32).astype(np.uint8), (0, 0, s)
                )
        report = charge_stream(trace)
        assert report.makespan_ns == max(resource_busy(trace).values())
        assert report.makespan_ns <= report.serial_ns + 1e-9

    def test_grb_serialises_host_io_within_a_mat(self, rng):
        """MEM ops to different sub-arrays of one MAT share the GRB."""
        pim, trace = traced_pim()
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8), (0, 0, 0))
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8), (0, 0, 1))
        report = charge_stream(trace)
        # two MEM_WRs through one GRB: no overlap despite distinct
        # sub-arrays
        assert report.makespan_ns == pytest.approx(report.serial_ns)

    def test_empty_trace(self):
        report = charge_stream(Trace())
        assert report == BatchReport(0.0, 0.0, 0)
        assert report.coalescing_speedup == 1.0

    def test_unknown_mnemonic_rejected(self):
        trace = Trace()
        trace.record("WARP", (0, 0, 0), (0,))
        with pytest.raises(ValueError):
            charge_stream(trace)


class TestPropertyBounds:
    from hypothesis import given, settings, strategies as st

    commands = st.lists(
        st.tuples(
            st.sampled_from(["AAP1", "AAP2", "AAP3", "MEM_WR", "MEM_RD", "DPU"]),
            st.integers(0, 3),  # subarray index
            st.integers(0, 1),  # mat index
        ),
        min_size=1,
        max_size=60,
    )

    @given(commands=commands)
    @settings(max_examples=40, deadline=None)
    def test_makespan_bounds_hold_for_any_trace(self, commands):
        trace = Trace()
        for mnemonic, sub, mat in commands:
            trace.record(mnemonic, (0, mat, sub), (0,))
        report = charge_stream(trace)
        assert report.commands == len(commands)
        assert report.makespan_ns <= report.serial_ns + 1e-6
        assert report.makespan_ns == max(resource_busy(trace).values())

    @given(commands=commands)
    @settings(max_examples=20, deadline=None)
    def test_speedup_bounded_by_resource_count(self, commands):
        """Each command busies one sub-array or one DPU, so those
        resources' busy times sum to the serial time."""
        trace = Trace()
        for mnemonic, sub, mat in commands:
            trace.record(mnemonic, (0, mat, sub), (0,))
        report = charge_stream(trace)
        resources = [r for r in resource_busy(trace) if r[0] != "grb"]
        assert report.coalescing_speedup <= len(resources) + 1e-6


class TestAlgorithmAudit:
    def test_hashmap_exposes_partition_parallelism(self):
        """The hash-partitioned counter must coalesce its command
        stream across partitions."""
        from repro.assembly import PimKmerCounter
        from repro.genome import synthetic_chromosome

        pim, trace = traced_pim(subarrays=2, rows=256, cols=64, mats=4)
        counter = PimKmerCounter(pim, 9)
        counter.add_sequence(synthetic_chromosome(500, seed=888))
        report = charge_stream(trace)
        assert report.coalescing_speedup > 2.0

    def test_wallace_reduction_is_serial(self, rng):
        """A single-sub-array reduction exposes no parallelism."""
        from repro.mapping import wallace_column_sum

        pim, trace = traced_pim(subarrays=1, rows=256, cols=32)
        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(9)]
        wallace_column_sum(pim, rows)
        report = charge_stream(trace)
        assert report.coalescing_speedup == 1.0


# ----- batched scheduler: vector charge vs a per-key reference loop -----


class _RecordingLedger:
    def __init__(self):
        self.calls = []

    def record(self, mnemonic, time_ns, energy_nj, count):
        self.calls.append((mnemonic, time_ns, energy_nj, count))

    def record_batch(self, names, codes, counts, time_ns, energy_nj):
        for code, count, t, e in zip(
            codes.tolist(), counts.tolist(), time_ns.tolist(), energy_nj.tolist()
        ):
            self.record(names[code], t, e, count)


class _PerKeyScheduler(BatchedAapScheduler):
    """Reference: each charge priced key by key into dicts at charge
    time, reading nothing of the base class but its cost table."""

    def __init__(self, ledger):
        super().__init__(ledger)
        self._ref_busy = {}
        self._ref_totals = {}  # mnemonic -> [time_ns, energy_nj, count]

    def charge(self, mnemonic, subarray_keys, counts):
        time_ns, energy_nj = self.costs[mnemonic]
        record = getattr(self.trace, "charge", None)
        total = 0
        for key, count in zip(subarray_keys, counts):
            count = int(count)
            if count <= 0:
                continue
            total += count
            key_ns = count * time_ns
            if record is not None:
                record(mnemonic, key, count, key_ns)
            if mnemonic == "DPU":
                resources = [("dpu", *key[:2])]
            elif mnemonic in ("MEM_RD", "MEM_WR"):
                resources = [key, ("grb", *key[:2])]
            else:
                resources = [key]
            for resource in resources:
                self._ref_busy[resource] = (
                    self._ref_busy.get(resource, 0.0) + key_ns
                )
        if total:
            self._ref_totals[mnemonic] = [
                total * time_ns, total * energy_nj, total
            ]

    def flush(self):
        totals = self._ref_totals
        serial = float(sum(t for t, _, _ in totals.values()))
        makespan = max(self._ref_busy.values(), default=0.0)
        commands = sum(n for _, _, n in totals.values())
        if commands:
            self.trace.flush(serial, makespan, commands)
        scale = (makespan / serial) if serial > 0 else 0.0
        for mnemonic, (time_ns, energy_nj, count) in totals.items():
            self.ledger.record(
                mnemonic,
                time_ns=time_ns * scale,
                energy_nj=energy_nj,
                count=count,
            )
        self._ref_busy = {}
        self._ref_totals = {}
        return BatchReport(
            serial_ns=serial, makespan_ns=makespan, commands=commands
        )


def _charge_script(sched):
    """Batches with duplicate keys, zero counts, generators, dict_values."""
    a, b, c, d = (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 3)
    reports = []  # BatchReport is a frozen dataclass: compares by value
    sched.charge("MEM_WR", [a, b, a, c, a], [3, 0, 7, 2, 5])
    sched.charge("AAP1", (key for key in (b, b, d)), (n for n in (4, 9, 1)))
    per_key = {a: 2, c: 0, d: 6}
    sched.charge("DPU", per_key.keys(), per_key.values())
    sched.charge("MEM_RD", [c, d, c], np.array([1, 11, 0]))
    sched.charge("AAP2", [a, b], [0, 0])
    reports.append(sched.flush())
    sched.charge("AAP2", [d, d, d, a], np.array([5, 0, 5, 13]))
    sched.charge("MEM_WR", iter([d, a]), {0: 2, 1: 8}.values())
    sched.charge("AAP1", [], [])
    shared = [a, b]  # one key list, mutated between two charges
    sched.charge("AAP3", shared, [1, 2])
    shared[1] = d
    sched.charge("SUM", shared, [3, 4])
    sched.charge("MEM_RD", [a, b, c], [2, 1, 0])
    reports.append(sched.flush())
    reports.append(sched.flush())  # an empty batch
    return reports


class TestVectorCharge:
    def run(self, cls):
        ledger = _RecordingLedger()
        sched = cls(ledger)
        sched.trace = Trace()
        reports = _charge_script(sched)
        return reports, ledger.calls, sched.trace.charges, sched.trace.flushes

    def test_bit_identical_to_per_key_loop(self):
        reports, calls, charges, flushes = self.run(BatchedAapScheduler)
        ref = self.run(_PerKeyScheduler)
        # exact equality, not approx: same float sums in the same order
        assert reports == ref[0]
        assert calls == ref[1]
        assert charges == ref[2]
        assert flushes == ref[3]
        assert reports[-1] == BatchReport(0.0, 0.0, 0)
        assert all(count > 0 for _, _, count, _ in charges)
        # duplicate keys keep one record per share, in key order
        assert [c[1] for c in charges[:3]] == [(0, 0, 0), (0, 0, 0), (0, 1, 0)]

    def test_state_resets_between_batches(self):
        ledger = _RecordingLedger()
        sched = BatchedAapScheduler(ledger)
        sched.charge("AAP1", [(0, 0, 0)], [100])
        big = sched.flush()
        sched.charge("AAP1", [(0, 0, 1)], [1])
        small = sched.flush()
        assert small.makespan_ns == pytest.approx(big.makespan_ns / 100)
        assert sched.flush() == BatchReport(0.0, 0.0, 0)


class TestInputDefects:
    """Malformed charges raise instead of dropping commands."""

    def test_repeated_mnemonic_in_flush_segments(self):
        sched = BatchedAapScheduler(_RecordingLedger())
        with pytest.raises(ValueError, match="more than once"):
            sched.flush_segments(
                [(0, 0, 0)],
                np.zeros(1, dtype=np.intp),
                np.zeros(1),
                [("AAP1", np.array([1])), ("AAP1", np.array([2]))],
            )
        assert sched.ledger.calls == []

    def test_repeated_mnemonic_in_one_batch(self):
        sched = BatchedAapScheduler(_RecordingLedger())
        sched.charge("AAP1", [(0, 0, 0)], [1])
        with pytest.raises(ValueError, match="already charged"):
            sched.charge("AAP1", [(0, 0, 1)], [2])
        report = sched.flush()  # the first charge is still queued
        assert report.commands == 1
        sched.charge("AAP1", [(0, 0, 1)], [2])  # a new batch may
        assert sched.flush().commands == 2

    @pytest.mark.parametrize(
        "keys,counts", [([(0, 0, 0), (0, 0, 1)], [1]), ([(0, 0, 0)], [1, 2])]
    )
    def test_length_mismatch(self, keys, counts):
        sched = BatchedAapScheduler(_RecordingLedger())
        with pytest.raises(ValueError, match="counts"):
            sched.charge("AAP1", keys, counts)

    def test_negative_count(self):
        sched = BatchedAapScheduler(_RecordingLedger())
        with pytest.raises(ValueError, match="non-negative"):
            sched.charge("AAP1", [(0, 0, 0), (0, 0, 1)], [3, -1])

    def test_unknown_mnemonic_is_value_error_on_both_paths(self):
        sched = BatchedAapScheduler(_RecordingLedger())
        with pytest.raises(ValueError, match="WARP"):
            sched.charge("WARP", [(0, 0, 0)], [1])
        with pytest.raises(ValueError, match="WARP"):
            sched.flush_segments(
                [(0, 0, 0)],
                np.zeros(1, dtype=np.intp),
                np.zeros(1),
                [("WARP", np.array([1]))],
            )

    def test_no_per_batch_accumulators(self):
        sched = BatchedAapScheduler(_RecordingLedger())
        for name in ("_busy", "_time_ns", "_energy_nj", "_counts"):
            assert not hasattr(sched, name)
        assert not hasattr(BatchedAapScheduler, "pending_commands")


class TestFlushSegments:
    """One segmented call equals charge() + flush() per segment."""

    MNEMONICS = ("MEM_WR", "MEM_RD", "AAP1", "AAP2", "DPU")

    def run(self, n_keys, segmented):
        rng = np.random.default_rng(n_keys)
        # three MATs: GRB and DPU are shared by several keys
        keys = [(0, i % 3, i) for i in range(n_keys)]
        segments, index = [], []
        for segment in range(6):
            touched = np.sort(rng.choice(n_keys, size=3, replace=False))
            segments += [segment] * 3
            index += touched.tolist()
        index = np.array(index)
        counts = {m: rng.integers(0, 4, index.size) for m in self.MNEMONICS}
        # parity checks per segment, zero for some
        checks = rng.integers(0, 3, 6)
        ledger = _RecordingLedger()
        sched = BatchedAapScheduler(ledger)
        sched.trace = Trace()
        registry = MetricsRegistry()
        with registry.activate():
            if segmented:
                sched.flush_segments(
                    keys,
                    index,
                    np.array(segments),
                    [(m, counts[m]) for m in self.MNEMONICS],
                    checks,
                )
            else:
                for segment in range(6):
                    sel = np.flatnonzero(np.array(segments) == segment)
                    touched = [keys[j] for j in index[sel]]
                    for m in self.MNEMONICS:
                        sched.charge(m, touched, counts[m][sel])
                    n = int(checks[segment])
                    for name, per_check, t, e in verify_cells(
                        DEFAULT_TIMING, DEFAULT_ENERGY
                    ):
                        if n:
                            ledger.record(name, n * t, n * e, n * per_check)
                    sched.flush()
        return (
            ledger.calls,
            sched.trace.charges,
            sched.trace.flushes,
            registry.snapshot(),
        )

    def test_bit_identical_to_charge_and_flush(self):
        segmented = self.run(4, segmented=True)
        assert segmented == self.run(4, segmented=False)
        assert len(segmented[2]) == 6
        # the verify cells lead their segments' records; zero checks
        # record nothing
        names = [call[0] for call in segmented[0]]
        assert 0 < names.count("VRF_AAP") == names.count("VRF_DPU") < 6
