"""Bulk execution: the batched scheduler and its one-charge-path callers."""

import pytest

from repro.core import PimAssembler
from repro.core.scheduler import BatchedAapScheduler
from repro.core.stats import StatsLedger
from repro.core.timing import DEFAULT_TIMING, command_latency_table
from repro.core.trace import CommandTrace


K0 = (0, 0, 0)


class TestBatchedScheduler:
    def make(self):
        ledger = StatsLedger()
        return ledger, BatchedAapScheduler(ledger)

    def test_counts_and_energy_are_exact(self):
        ledger, sched = self.make()
        sched.charge("AAP1", [K0], [5])
        sched.charge("DPU", [K0], [3])
        sched.flush()
        totals = ledger.totals()
        assert totals.commands == {"AAP1": 5, "DPU": 3}

    def test_single_subarray_batch_keeps_serial_time(self):
        """No overlap inside one sub-array: makespan == serial sum."""
        ledger, sched = self.make()
        sched.charge("AAP1", [K0], [4])
        sched.charge("AAP2", [K0], [4])
        report = sched.flush()
        assert report.makespan_ns == pytest.approx(report.serial_ns)
        latency = command_latency_table(DEFAULT_TIMING)
        expected = 4 * latency["AAP1"] + 4 * latency["AAP2"]
        assert ledger.totals().time_ns == pytest.approx(expected)

    def test_disjoint_subarrays_coalesce(self):
        """The same work across N sub-arrays gangs into ~1/N the time."""
        ledger, sched = self.make()
        sched.charge("AAP1", [(0, 0, s) for s in range(8)], [10] * 8)
        report = sched.flush()
        assert report.coalescing_speedup == pytest.approx(8.0)
        latency = command_latency_table(DEFAULT_TIMING)
        assert ledger.totals().time_ns == pytest.approx(10 * latency["AAP1"])
        # energy stays per-command: no free lunch on power
        assert ledger.totals().commands == {"AAP1": 80}

    def test_dpu_overlaps_subarray_aaps(self):
        """The DPU reduce of row i runs while row i+1 activates."""
        ledger, sched = self.make()
        sched.charge("AAP1", [K0], [6])
        sched.charge("DPU", [K0], [6])
        report = sched.flush()
        latency = command_latency_table(DEFAULT_TIMING)
        assert report.makespan_ns == pytest.approx(
            6 * max(latency["AAP1"], latency["DPU"])
        )
        assert report.serial_ns == pytest.approx(
            6 * (latency["AAP1"] + latency["DPU"])
        )

    def test_grb_serialises_mat_transfers(self):
        """Host reads of two sub-arrays of one MAT share the GRB."""
        ledger, sched = self.make()
        sched.charge("MEM_RD", [(0, 0, 0), (0, 0, 1)], [5, 5])
        report = sched.flush()
        assert report.makespan_ns == pytest.approx(report.serial_ns)

    def test_unknown_mnemonic_rejected(self):
        _, sched = self.make()
        with pytest.raises(ValueError):
            sched.charge("WARP", [K0], [1])

    def test_flush_resets_state(self):
        ledger, sched = self.make()
        sched.charge("AAP1", [K0], [2])
        sched.flush()
        report = sched.flush()
        assert report.commands == 0
        assert report.serial_ns == 0.0

    def test_zero_counts_are_skipped(self):
        ledger, sched = self.make()
        trace = CommandTrace()
        sched.trace = trace
        sched.charge("AAP1", [(0, 0, 0), (0, 0, 1), (0, 0, 2)], [0, 3, 0])
        sched.charge("AAP2", [(0, 0, 0)], [0])
        assert sched.flush().commands == 3
        assert [c[:3] for c in trace.charges] == [("AAP1", (0, 0, 1), 3)]
        assert ledger.totals().commands == {"AAP1": 3}


class TestControllerScheduler:
    """Every bulk kernel charges through the controller's one scheduler."""

    @pytest.fixture()
    def spy(self, monkeypatch):
        """Record (scheduler, mnemonic) for every mnemonic charged through
        ``charge`` or ``flush_segments``."""
        calls = []
        charge = BatchedAapScheduler.charge
        flush_segments = BatchedAapScheduler.flush_segments

        def spying(self, mnemonic, subarray_keys, counts):
            calls.append((self, mnemonic))
            return charge(self, mnemonic, subarray_keys, counts)

        def spying_segments(self, keys, key_index, segments, charges, *rest):
            calls.extend((self, mnemonic) for mnemonic, _ in charges)
            return flush_segments(self, keys, key_index, segments, charges, *rest)

        monkeypatch.setattr(BatchedAapScheduler, "charge", spying)
        monkeypatch.setattr(BatchedAapScheduler, "flush_segments", spying_segments)
        return calls

    def assert_drained(self, pim, calls):
        sched = pim.controller.scheduler
        assert calls and all(owner is sched for owner, _ in calls)
        assert sched.flush().commands == 0

    def test_hashmap_round_charges_once_per_mnemonic(self, spy):
        from repro.assembly.hashmap import PimKmerCounter
        from repro.genome.reference import synthetic_chromosome

        pim = PimAssembler.small(subarrays=8, rows=128, cols=32)
        counter = PimKmerCounter(pim, 7, engine="bulk")
        genome = synthetic_chromosome(300, seed=2)
        counter.add_sequences([genome, genome])  # second copy: all hits
        assert sum(1 for n in counter.occupancy if n) > 1
        mnemonics = [m for _, m in spy]
        assert sorted(mnemonics) == ["AAP1", "AAP2", "DPU", "MEM_RD", "MEM_WR"]
        self.assert_drained(pim, spy)

    def test_wallace_reduction_drains(self, spy):
        from repro.mapping.adjacency import _charge_wallace

        pim = PimAssembler.small(subarrays=2, rows=64, cols=32)
        _charge_wallace(pim, (0, 0, 0), [9])
        assert len(spy) == 6
        self.assert_drained(pim, spy)
