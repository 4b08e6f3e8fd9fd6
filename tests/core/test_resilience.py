"""Resilience subsystem: detect → retry → remap, and its accounting."""

import numpy as np
import pytest

from repro.core import PimAssembler
from repro.core.faults import FaultModel
from repro.core.isa import RowAddress, SAOp
from repro.core.resilience import (
    VERIFY_AAP_CYCLES,
    VERIFY_DPU_OPS,
    PolicyLevel,
    ResilienceEngine,
    ResilienceLedger,
    ResiliencePolicy,
    recommended_policy,
    spare_rows_needed,
)
from repro.core.stats import StatsLedger
from repro.core.storage import pack_rows
from repro.errors import (
    AllocationError,
    FaultConfigError,
    ReproError,
    SubarrayQuarantinedError,
    UncorrectableFaultError,
)


def store(pim, bits, key=(0, 0, 0)):
    addr = pim.allocate_row(key)
    pim.controller.write_row(addr, bits)
    return addr


class TestPolicy:
    def test_named_levels(self):
        for name in ("off", "detect", "detect-retry", "detect-retry-remap"):
            policy = ResiliencePolicy.named(name)
            assert policy.level.value == name

    def test_named_accepts_level_and_policy(self):
        policy = ResiliencePolicy.named(PolicyLevel.DETECT)
        assert ResiliencePolicy.named(policy) is policy
        stronger = ResiliencePolicy.named(policy, max_retries=9)
        assert stronger.max_retries == 9 and stronger.level is PolicyLevel.DETECT

    def test_unknown_name_raises_typed_error(self):
        with pytest.raises(FaultConfigError):
            ResiliencePolicy.named("self-healing")
        with pytest.raises(ValueError):  # typed error is still a ValueError
            ResiliencePolicy.named("self-healing")

    def test_ladder_properties(self):
        off = ResiliencePolicy.named("off")
        assert not off.detect and not off.retry and not off.remap
        detect = ResiliencePolicy.named("detect")
        assert detect.detect and not detect.retry
        retry = ResiliencePolicy.named("detect-retry")
        assert retry.detect and retry.retry and not retry.remap
        remap = ResiliencePolicy.named("detect-retry-remap")
        assert remap.detect and remap.retry and remap.remap

    def test_validation(self):
        with pytest.raises(FaultConfigError):
            ResiliencePolicy(max_retries=-1)
        with pytest.raises(FaultConfigError):
            ResiliencePolicy(restage_derate=0.0)
        with pytest.raises(FaultConfigError):
            ResiliencePolicy(quarantine_threshold=0)

    def test_recommended_policy_scales_with_variation(self):
        mild = recommended_policy(5.0)
        harsh = recommended_policy(20.0, residual_target=1e-9)
        assert harsh.level is PolicyLevel.DETECT_RETRY_REMAP
        assert harsh.max_retries >= mild.max_retries

    def test_spare_rows_budget(self):
        none_needed = spare_rows_needed(256, 128, residency_s=0.0)
        assert none_needed == 0
        some = spare_rows_needed(256, 4096, residency_s=3600.0)
        assert some >= 0

    def test_spare_rows_rejects_bad_geometry(self):
        with pytest.raises(FaultConfigError):
            spare_rows_needed(0, 128, residency_s=1.0)


class TestLedger:
    def test_phase_attribution_mirrors_stats(self):
        stats = StatsLedger()
        ledger = ResilienceLedger(stats)
        ledger.bump("detected")
        with stats.phase("hashmap"):
            ledger.bump("detected", 2)
            ledger.bump_float("verify_time_ns", 5.0)
        assert ledger.counts().detected == 3
        assert ledger.counts("hashmap").detected == 2
        assert ledger.counts("hashmap").verify_time_ns == 5.0
        assert ledger.phases() == ["hashmap"]

    def test_counts_subtraction(self):
        ledger = ResilienceLedger()
        ledger.bump("corrected", 5)
        before = ledger.counts()
        ledger.bump("corrected", 2)
        delta = ledger.counts() - before
        assert delta.corrected == 2


class TestEngineEscalation:
    def test_quarantine_threshold(self):
        engine = ResilienceEngine(
            ResiliencePolicy.named("detect-retry-remap", quarantine_threshold=2)
        )
        key = (0, 0, 1)
        engine.note_uncorrected(key, row=3)
        assert not engine.is_quarantined(key)
        assert engine.is_weak_row(key, 3)
        engine.note_uncorrected(key, row=4)
        assert engine.is_quarantined(key)
        assert engine.failures(key) == 2
        report = engine.report()
        assert report.quarantined_subarrays == (key,)
        assert (key, 3) in report.weak_rows

    def test_no_escalation_below_remap(self):
        engine = ResilienceEngine(ResiliencePolicy.named("detect-retry"))
        key = (0, 0, 0)
        for _ in range(10):
            engine.note_uncorrected(key, row=1)
        assert not engine.is_quarantined(key)
        assert not engine.weak_rows
        assert engine.counts().uncorrected == 10

    def test_report_clean_flag(self):
        engine = ResilienceEngine(ResiliencePolicy.named("detect"))
        engine.note_detected()
        engine.note_corrected()
        assert engine.report().clean
        engine.note_uncorrected((0, 0, 0))
        assert not engine.report().clean


class TestVerifiedExecution:
    def faulty_pim(self, **fault_kwargs):
        pim = PimAssembler.small(subarrays=4, rows=64, cols=32)
        pim.controller.faults = FaultModel(**fault_kwargs)
        return pim

    def test_clean_op_charges_verification(self):
        """Detection costs VRF cycles even when nothing ever faults."""
        pim = PimAssembler.small(subarrays=1, rows=64, cols=32)
        engine = pim.protect("detect")
        a = store(pim, np.ones(32, dtype=np.uint8))
        b = store(pim, np.zeros(32, dtype=np.uint8))
        des = pim.allocate_row()
        pim.controller.compute2(a, b, des, SAOp.XNOR2)
        assert pim.stats.command_count("VRF_AAP") == VERIFY_AAP_CYCLES
        assert pim.stats.command_count("VRF_DPU") == VERIFY_DPU_OPS
        counts = engine.counts()
        assert counts.verified_ops == 1
        assert counts.verify_time_ns > 0
        assert counts.detected == 0

    def test_off_engine_charges_nothing(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=32)
        pim.protect("off")
        a = store(pim, np.ones(32, dtype=np.uint8))
        b = store(pim, np.zeros(32, dtype=np.uint8))
        pim.controller.compute2(a, b, pim.allocate_row(), SAOp.XNOR2)
        assert pim.stats.command_count("VRF_AAP") == 0

    def test_retry_corrects_certain_fault(self):
        """rate=1 with derate<1: the first retry runs at rate<1 and can
        eventually pass; with many retries correction is near-certain."""
        pim = self.faulty_pim(compute2_rate=1.0, seed=5)
        engine = pim.protect(
            ResiliencePolicy.named(
                "detect-retry", max_retries=64, restage_derate=0.05
            )
        )
        a = store(pim, np.ones(32, dtype=np.uint8))
        b = store(pim, np.ones(32, dtype=np.uint8))
        des = pim.allocate_row()
        result = pim.controller.compute2(a, b, des, SAOp.XNOR2)
        assert (result == 1).all()  # XNOR of equal rows
        assert (pim.controller.read_row(des) == 1).all()
        counts = engine.counts()
        assert counts.detected >= 1
        assert counts.corrected == 1
        assert counts.retries >= 1
        assert counts.uncorrected == 0

    def test_detect_without_retry_keeps_corruption(self):
        pim = self.faulty_pim(compute2_rate=1.0, seed=5)
        engine = pim.protect("detect")
        a = store(pim, np.ones(32, dtype=np.uint8))
        b = store(pim, np.ones(32, dtype=np.uint8))
        des = pim.allocate_row()
        result = pim.controller.compute2(a, b, des, SAOp.XNOR2)
        assert (result == 0).all()  # rate=1 flips every bit, kept as-is
        assert engine.counts().detected == 1
        assert engine.counts().uncorrected == 1
        assert engine.counts().corrected == 0

    def test_uncorrectable_raises_when_asked(self):
        pim = self.faulty_pim(compute2_rate=1.0, seed=5)
        pim.protect(
            ResiliencePolicy.named(
                "detect-retry",
                max_retries=0,
                raise_on_uncorrected=True,
            )
        )
        a = store(pim, np.ones(32, dtype=np.uint8))
        b = store(pim, np.ones(32, dtype=np.uint8))
        with pytest.raises(UncorrectableFaultError) as excinfo:
            pim.controller.compute2(a, b, pim.allocate_row(), SAOp.XNOR2)
        assert excinfo.value.subarray_key == (0, 0, 0)
        assert excinfo.value.mechanism == "compute2"
        assert isinstance(excinfo.value, ReproError)

    def test_remap_marks_weak_row_and_quarantines(self):
        pim = self.faulty_pim(tra_rate=1.0, seed=5)
        engine = pim.protect(
            ResiliencePolicy.named(
                "detect-retry-remap",
                max_retries=0,
                quarantine_threshold=2,
            )
        )
        rows = [store(pim, np.ones(32, dtype=np.uint8)) for _ in range(3)]
        for _ in range(2):
            des = pim.allocate_row()
            pim.controller.tra_carry(rows[0], rows[1], rows[2], des)
            assert engine.is_weak_row((0, 0, 0), des.row)
        assert engine.is_quarantined((0, 0, 0))

    def test_scrub_rows_detects_drift(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=32)
        pim.protect("detect")
        bits = np.ones(32, dtype=np.uint8)
        addr = store(pim, bits)
        key, rows = [addr.subarray_key], np.array([addr.row])
        words = pack_rows(bits[None, :])
        assert pim.controller.scrub_rows(key, [0], rows, words).all()
        flipped = bits.copy()
        flipped[0] = 0
        pim.device.subarray_at(addr).write_row(addr.row, flipped)
        drifted = []
        intact = pim.controller.scrub_rows(
            key, [0], rows, words, drifted.append
        )
        assert not intact.any() and drifted == [0]
        assert pim.stats.command_count("VRF_AAP") == 2 * VERIFY_AAP_CYCLES

    def test_sum_cycle_verified_too(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=32)
        pim.protect("detect")
        a = store(pim, np.ones(32, dtype=np.uint8))
        b = store(pim, np.zeros(32, dtype=np.uint8))
        pim.controller.clear_latch((0, 0, 0))
        pim.controller.sum_cycle(a, b, pim.allocate_row())
        assert pim.stats.command_count("VRF_AAP") == VERIFY_AAP_CYCLES


class TestDegradedAllocation:
    def test_quarantined_subarray_refuses_allocation(self):
        pim = PimAssembler.small(subarrays=4, rows=64, cols=32)
        engine = pim.protect("detect-retry-remap")
        engine.quarantine((0, 0, 1))
        with pytest.raises(SubarrayQuarantinedError):
            pim.allocate_row((0, 0, 1))
        pim.allocate_row((0, 0, 0))  # others still fine

    def test_usable_keys_exclude_quarantined(self):
        pim = PimAssembler.small(subarrays=4, rows=64, cols=32)
        engine = pim.protect("detect-retry-remap")
        assert len(pim.usable_subarray_keys()) == 4
        engine.quarantine((0, 0, 2))
        usable = pim.usable_subarray_keys()
        assert len(usable) == 3 and (0, 0, 2) not in usable

    def test_allocator_skips_weak_rows(self):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=32)
        engine = pim.protect("detect-retry-remap")
        first = pim.allocate_row()
        engine.note_uncorrected((0, 0, 0), row=first.row + 1)
        skipped = pim.allocate_row()
        assert skipped.row == first.row + 2

    def test_exhaustion_is_typed(self):
        pim = PimAssembler.small(subarrays=1, rows=16, cols=32)
        data_rows = pim.geometry.bank.mat.subarray.data_rows
        for _ in range(data_rows):
            pim.allocate_row()
        with pytest.raises(AllocationError):
            pim.allocate_row()
        with pytest.raises(MemoryError):  # typed error is still a MemoryError
            pim.allocate_row()
