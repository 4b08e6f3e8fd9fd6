"""Bulk execution: the batched scheduler and its one-charge-path callers."""

import numpy as np
import pytest

from repro.core import PimAssembler
from repro.core.scheduler import BatchedAapScheduler
from repro.core.stats import StatsLedger
from repro.core.timing import DEFAULT_TIMING, command_latency_table
from repro.core.trace import CommandTrace


def random_block(rng, n, w):
    return rng.integers(0, 2, (n, w)).astype(np.uint8)


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
        for s in range(8):
            sched.charge("AAP1", [(0, 0, s)], [10])
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
        sched.charge("MEM_RD", [(0, 0, 0)], [5])
        sched.charge("MEM_RD", [(0, 0, 1)], [5])
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
        assert sched.pending_commands == 0
        report = sched.flush()
        assert report.commands == 0
        assert report.serial_ns == 0.0

    def test_zero_counts_are_skipped(self):
        ledger, sched = self.make()
        trace = CommandTrace()
        sched.trace = trace
        sched.charge("AAP1", [(0, 0, 0), (0, 0, 1), (0, 0, 2)], [0, 3, 0])
        sched.charge("AAP2", [(0, 0, 0)], [0])
        assert sched.pending_commands == 3
        assert [c[:3] for c in trace.charges] == [("AAP1", (0, 0, 1), 3)]
        sched.flush()
        assert ledger.totals().commands == {"AAP1": 3}

    def test_vector_charge_equals_single_key_charges(self):
        """One charge over N keys == N one-key charges, in every output."""
        keys = [(b, m, s) for b in range(2) for m in range(2) for s in range(3)]
        counts = [3, 0, 7, 1, 4, 4, 0, 9, 2, 5, 1, 6]

        def run(vector):
            ledger, sched = self.make()
            trace = CommandTrace()
            sched.trace = trace
            for mnemonic in ("MEM_WR", "MEM_RD", "AAP1", "AAP2", "DPU"):
                if vector:
                    sched.charge(mnemonic, keys, counts)
                else:
                    for key, count in zip(keys, counts):
                        sched.charge(mnemonic, [key], [count])
            return sched.flush(), ledger.totals(), trace

        report_v, totals_v, trace_v = run(vector=True)
        report_s, totals_s, trace_s = run(vector=False)
        assert report_v.commands == report_s.commands
        assert report_v.makespan_ns == report_s.makespan_ns
        assert report_v.serial_ns == pytest.approx(report_s.serial_ns, rel=1e-12)
        assert totals_v.commands == totals_s.commands
        assert totals_v.time_ns == pytest.approx(totals_s.time_ns, rel=1e-12)
        assert totals_v.energy_nj == pytest.approx(totals_s.energy_nj, rel=1e-12)
        assert trace_v.charges == trace_s.charges
        assert trace_v.flushes == trace_s.flushes
        assert len(trace_v.charges) == 5 * sum(1 for c in counts if c)


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
        assert sched.pending_commands == 0

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

    def test_wallace_reduction_drains(self, spy, rng):
        from repro.mapping.adjacency import wallace_column_sum

        pim = PimAssembler.small(subarrays=2, rows=64, cols=32)
        rows = [random_block(rng, 1, 32)[0] for _ in range(9)]
        wallace_column_sum(pim, rows, (0, 0, 0), engine="bulk")
        assert len(spy) == 6
        self.assert_drained(pim, spy)
