"""Bulk bit-plane engine: kernels, batched scheduler, scan/add paths."""

import numpy as np
import pytest

from repro.core import PimAssembler
from repro.core.bitplane import BulkEngine, planes_to_words, words_to_planes
from repro.core.faults import FaultModel
from repro.core.isa import RowAddress
from repro.core.scheduler import BatchedAapScheduler
from repro.core.stats import StatsLedger
from repro.core.timing import DEFAULT_TIMING, command_latency_table


def random_block(rng, n, w):
    return rng.integers(0, 2, (n, w)).astype(np.uint8)


class TestKernels:
    def test_plane_word_roundtrip(self, rng):
        words = rng.integers(0, 255, 16).astype(np.int64)
        planes = words_to_planes(words, 8)
        assert np.array_equal(planes_to_words(planes), words)


class TestBatchedScheduler:
    def make(self):
        ledger = StatsLedger()
        return ledger, BatchedAapScheduler(ledger)

    def test_counts_and_energy_are_exact(self):
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 5)
        sched.charge("DPU", (0, 0, 0), 3)
        sched.flush()
        totals = ledger.totals()
        assert totals.commands == {"AAP1": 5, "DPU": 3}

    def test_single_subarray_batch_keeps_serial_time(self):
        """No overlap inside one sub-array: makespan == serial sum."""
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 4)
        sched.charge("AAP2", (0, 0, 0), 4)
        report = sched.flush()
        assert report.makespan_ns == pytest.approx(report.serial_ns)
        latency = command_latency_table(DEFAULT_TIMING)
        expected = 4 * latency["AAP1"] + 4 * latency["AAP2"]
        assert ledger.totals().time_ns == pytest.approx(expected)

    def test_disjoint_subarrays_coalesce(self):
        """The same work across N sub-arrays gangs into ~1/N the time."""
        ledger, sched = self.make()
        for s in range(8):
            sched.charge("AAP1", (0, 0, s), 10)
        report = sched.flush()
        assert report.coalescing_speedup == pytest.approx(8.0)
        latency = command_latency_table(DEFAULT_TIMING)
        assert ledger.totals().time_ns == pytest.approx(10 * latency["AAP1"])
        # energy stays per-command: no free lunch on power
        assert ledger.totals().commands == {"AAP1": 80}

    def test_dpu_overlaps_subarray_aaps(self):
        """The DPU reduce of row i runs while row i+1 activates."""
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 6)
        sched.charge("DPU", (0, 0, 0), 6)
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
        sched.charge("MEM_RD", (0, 0, 0), 5)
        sched.charge("MEM_RD", (0, 0, 1), 5)
        report = sched.flush()
        assert report.makespan_ns == pytest.approx(report.serial_ns)

    def test_unknown_mnemonic_rejected(self):
        _, sched = self.make()
        with pytest.raises(ValueError):
            sched.charge("WARP", (0, 0, 0), 1)

    def test_flush_resets_state(self):
        ledger, sched = self.make()
        sched.charge("AAP1", (0, 0, 0), 2)
        sched.flush()
        assert sched.pending_commands == 0
        report = sched.flush()
        assert report.commands == 0
        assert report.serial_ns == 0.0


def scan_setup(rng, n_rows=10, width=32, seed_rows=None):
    pim = PimAssembler.small(subarrays=4, rows=64, cols=width)
    sub = pim.device.subarray_at((0, 0, 0))
    start = 4
    block = seed_rows if seed_rows is not None else random_block(rng, n_rows, width)
    for i, row in enumerate(block):
        sub.write_row(start + i, row)
    temp = RowAddress(bank=0, mat=0, subarray=0, row=0)
    return pim, temp, start, block


class TestCompareScanBatch:
    def test_matches_sequential_scans(self, rng):
        pim, temp, start, block = scan_setup(rng)
        queries = np.vstack([block[4], 1 - block[0], block[9], block[0]])
        ref_pim, ref_temp, ref_start, _ = scan_setup(rng, seed_rows=block)
        ctrl = ref_pim.controller
        expected = []
        for q in queries:
            ctrl.write_row(ref_temp, q)
            hit = ctrl.compare_scan(ref_temp, ref_start, 10, None)
            expected.append(-1 if hit is None else hit)

        hits = BulkEngine(pim).compare_scan_batch(temp, queries, start, 10)
        assert hits.tolist() == expected
        assert (
            pim.controller.ledger.totals().commands
            == ref_pim.controller.ledger.totals().commands
        )
        ref_sub = ref_pim.device.subarray_at((0, 0, 0))
        sub = pim.device.subarray_at((0, 0, 0))
        assert np.array_equal(sub.raw_bits, ref_sub.raw_bits)

    def test_empty_region_misses_everything(self, rng):
        pim, temp, start, _ = scan_setup(rng)
        queries = random_block(rng, 3, 32)
        hits = BulkEngine(pim).compare_scan_batch(temp, queries, start, 0)
        assert (hits == -1).all()
        assert pim.controller.ledger.totals().commands == {
            "MEM_WR": 3,
            "AAP1": 3,
        }

    def test_batched_fault_sampling_replays_scalar_stream(self, rng):
        """Same seed, faults on, no engine: flip-for-flip identical."""
        block = random_block(rng, 12, 32)
        queries = np.vstack(
            [block[i % 12] if i % 2 else random_block(rng, 1, 32)[0] for i in range(20)]
        )
        pim_a, temp_a, start_a, _ = scan_setup(rng, n_rows=12, seed_rows=block)
        pim_b, temp_b, start_b, _ = scan_setup(rng, n_rows=12, seed_rows=block)
        pim_a.controller.faults = FaultModel(compute2_rate=0.05, seed=77)
        pim_b.controller.faults = FaultModel(compute2_rate=0.05, seed=77)
        ctrl = pim_a.controller
        expected = []
        for q in queries:
            ctrl.write_row(temp_a, q)
            hit = ctrl.compare_scan(temp_a, start_a, 12, None)
            expected.append(-1 if hit is None else hit)
        hits = BulkEngine(pim_b).compare_scan_batch(temp_b, queries, start_b, 12)
        assert hits.tolist() == expected
        assert (
            pim_a.controller.ledger.totals().commands
            == pim_b.controller.ledger.totals().commands
        )

    def test_verifying_engine_with_faults_falls_back(self, rng):
        """Detect-retry interleaves RNG draws: per-query path required."""
        from repro.core.resilience import ResiliencePolicy

        block = random_block(rng, 8, 32)
        queries = np.vstack([block[3], 1 - block[0]])

        def run(batched):
            pim, temp, start, _ = scan_setup(rng, n_rows=8, seed_rows=block)
            pim.controller.faults = FaultModel(compute2_rate=0.05, seed=5)
            pim.protect(ResiliencePolicy.named("detect-retry"))
            if batched:
                return (
                    BulkEngine(pim)
                    .compare_scan_batch(temp, queries, start, 8)
                    .tolist(),
                    pim,
                )
            ctrl = pim.controller
            out = []
            for q in queries:
                ctrl.write_row(temp, q)
                hit = ctrl.compare_scan(temp, start, 8, None)
                out.append(-1 if hit is None else hit)
            return out, pim

        scalar_hits, pim_s = run(batched=False)
        bulk_hits, pim_b = run(batched=True)
        assert bulk_hits == scalar_hits
        assert (
            pim_s.controller.ledger.totals().commands
            == pim_b.controller.ledger.totals().commands
        )
        rep_s = pim_s.resilience.report()
        rep_b = pim_b.resilience.report()
        assert rep_s.totals == rep_b.totals


class TestRippleAddBlock:
    def stage_planes(self, pim, values, bits, base_row):
        sub = pim.device.subarray_at((0, 0, 0))
        planes = words_to_planes(np.asarray(values, dtype=np.int64), bits)
        addrs = []
        for i in range(bits):
            row = base_row + i
            sub.write_row(row, np.pad(planes[i], (0, 32 - planes.shape[1])))
            addrs.append(RowAddress(bank=0, mat=0, subarray=0, row=row))
        return addrs

    def test_matches_controller_ripple_add(self, rng):
        a_vals = rng.integers(0, 15, 32)
        b_vals = rng.integers(0, 15, 32)

        def run(bulk):
            pim = PimAssembler.small(subarrays=2, rows=64, cols=32)
            a = self.stage_planes(pim, a_vals, 4, 4)
            b = self.stage_planes(pim, b_vals, 4, 8)
            s = [
                RowAddress(bank=0, mat=0, subarray=0, row=12 + i)
                for i in range(4)
            ]
            carry = RowAddress(bank=0, mat=0, subarray=0, row=16)
            if bulk:
                BulkEngine(pim).ripple_add_block(a, b, s, carry)
            else:
                pim.controller.ripple_add(a, b, s, carry)
            sub = pim.device.subarray_at((0, 0, 0))
            out = planes_to_words(
                np.vstack([sub.read_row(r.row) for r in (*s, carry)])
            )
            return out, pim

        scalar_out, pim_s = run(bulk=False)
        bulk_out, pim_b = run(bulk=True)
        assert np.array_equal(scalar_out, bulk_out)
        assert np.array_equal(bulk_out[:32], a_vals + b_vals)
        assert (
            pim_s.controller.ledger.totals().commands
            == pim_b.controller.ledger.totals().commands
        )

    def test_live_fault_rates_fall_back_to_scalar(self, rng):
        a_vals = rng.integers(0, 7, 32)
        b_vals = rng.integers(0, 7, 32)

        def run(bulk):
            pim = PimAssembler.small(subarrays=2, rows=64, cols=32)
            pim.controller.faults = FaultModel(sum_rate=0.02, seed=9)
            a = self.stage_planes(pim, a_vals, 3, 4)
            b = self.stage_planes(pim, b_vals, 3, 8)
            s = [
                RowAddress(bank=0, mat=0, subarray=0, row=11 + i)
                for i in range(3)
            ]
            carry = RowAddress(bank=0, mat=0, subarray=0, row=14)
            if bulk:
                BulkEngine(pim).ripple_add_block(a, b, s, carry)
            else:
                pim.controller.ripple_add(a, b, s, carry)
            sub = pim.device.subarray_at((0, 0, 0))
            return sub.read_rows(11, 15), pim

        rows_s, pim_s = run(bulk=False)
        rows_b, pim_b = run(bulk=True)
        assert np.array_equal(rows_s, rows_b)
        assert (
            pim_s.controller.ledger.totals().commands
            == pim_b.controller.ledger.totals().commands
        )

    def test_rejects_cross_subarray_operands(self):
        pim = PimAssembler.small(subarrays=2, rows=64, cols=32)
        a = [RowAddress(bank=0, mat=0, subarray=0, row=4)]
        b = [RowAddress(bank=0, mat=0, subarray=1, row=4)]
        s = [RowAddress(bank=0, mat=0, subarray=0, row=5)]
        carry = RowAddress(bank=0, mat=0, subarray=0, row=6)
        with pytest.raises(ValueError):
            BulkEngine(pim).ripple_add_block(a, b, s, carry)
