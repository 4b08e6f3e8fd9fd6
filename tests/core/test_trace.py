"""Command traces: recording, analysis, replay equivalence."""

import numpy as np
import pytest

from repro.core import PimAssembler
from repro.core.trace import CommandTrace, analyse, replay


def traced_pim(**kwargs):
    pim = PimAssembler.small(**kwargs)
    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    return pim, trace


class TestRecording:
    def test_records_issue_order(self, rng):
        pim, trace = traced_pim()
        a = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        b = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        pim.pim_xnor(a, b)
        mnemonics = [e.mnemonic for e in trace]
        assert mnemonics == ["MEM_WR", "MEM_WR", "AAP1", "AAP1", "AAP2"]
        assert [e.index for e in trace] == list(range(5))

    def test_mem_wr_carries_payload(self, rng):
        pim, trace = traced_pim()
        data = rng.integers(0, 2, 32).astype(np.uint8)
        pim.store_row(data)
        entry = trace.entries("MEM_WR")[0]
        assert entry.payload == tuple(int(b) for b in data)

    def test_detach_stops_recording(self, rng):
        pim, trace = traced_pim()
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        pim.controller.attach_trace(None)
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        assert len(trace) == 1

    def test_to_text(self, rng):
        pim, trace = traced_pim()
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        assert "MEM_WR" in trace.to_text()



class TestCharges:
    def make(self):
        trace = CommandTrace()
        trace.record("AAP1", (0, 0, 0), (1, 2))
        trace.charge("AAP1", (0, 0, 1), 2, 170.0)
        trace.charge("DPU", (0, 0, 1), 2, 2.0)
        trace.flush(172.0, 170.0, 4)
        trace.charge("MEM_WR", (0, 0, 2), 1, 5.0)
        return trace

    def test_charges_and_flushes_sit_beside_commands(self):
        trace = self.make()
        assert len(trace) == 1
        assert trace.charges == [
            ("AAP1", (0, 0, 1), 2, 170.0),
            ("DPU", (0, 0, 1), 2, 2.0),
            ("MEM_WR", (0, 0, 2), 1, 5.0),
        ]
        assert trace.flushes == [(2, 172.0, 170.0, 4)]

    def test_json_round_trip(self):
        trace = self.make()
        loaded = CommandTrace.from_json(trace.to_json())
        assert loaded.charges == trace.charges
        assert loaded.flushes == trace.flushes
        assert loaded.entries() == trace.entries()

    def test_charges_only_drops_commands(self):
        trace = self.make()
        copy = trace.charges_only()
        assert len(copy) == 0
        assert copy.charges == trace.charges
        assert copy.flushes == trace.flushes

    def test_controller_scheduler_records_into_attached_trace(self):
        pim, trace = traced_pim()
        pim.controller.scheduler.charge("AAP1", [(0, 0, 0)], [3])
        pim.controller.scheduler.flush()
        assert [c[:3] for c in trace.charges] == [("AAP1", (0, 0, 0), 3)]
        assert len(trace.flushes) == 1
        pim.controller.attach_trace(None)
        pim.controller.scheduler.charge("AAP1", [(0, 0, 0)], [3])
        pim.controller.scheduler.flush()
        assert len(trace.charges) == 1

    @pytest.mark.parametrize(
        "charge",
        [
            {"op": "AAP1", "sub": [0], "count": 1, "time_ns": 85.0},
            {"op": "AAP1", "sub": [0, 0, "x"], "count": 1, "time_ns": 85.0},
            {"op": "AAP1", "sub": [0, 0, 0], "count": 1.5, "time_ns": 85.0},
            {"op": "AAP1", "sub": [0, 0, 0], "count": "1", "time_ns": 85.0},
            {"op": "AAP1", "sub": [0, 0, 0], "count": 1, "time_ns": "85"},
            {"op": "AAP1", "sub": [0, 0, 0], "count": 1, "time_ns": float("nan")},
            {"op": 7, "sub": [0, 0, 0], "count": 1, "time_ns": 85.0},
            {"op": "AAP1", "sub": [0, 0, 0], "count": 1},
            ["AAP1", [0, 0, 0], 1, 85.0],
        ],
    )
    def test_from_json_rejects_malformed_charge(self, charge):
        with pytest.raises(ValueError, match="charge #0"):
            CommandTrace.from_json({"commands": [], "charges": [charge]})

    @pytest.mark.parametrize(
        "flush",
        [
            {"at": 0.5, "serial_ns": 1.0, "makespan_ns": 1.0, "commands": 1},
            {"at": 0, "serial_ns": float("inf"), "makespan_ns": 1.0, "commands": 1},
            {"at": 0, "serial_ns": 1.0, "makespan_ns": None, "commands": 1},
            {"at": 0, "serial_ns": 1.0, "makespan_ns": 1.0, "commands": 1.0},
            {"at": 0, "serial_ns": 1.0, "makespan_ns": 1.0},
        ],
    )
    def test_from_json_rejects_malformed_flush(self, flush):
        with pytest.raises(ValueError, match="flush #0"):
            CommandTrace.from_json({"commands": [], "flushes": [flush]})

    def test_from_json_rejects_non_list_sections(self):
        with pytest.raises(ValueError):
            CommandTrace.from_json({"commands": [], "charges": 3})


class TestAnalysis:
    def test_command_mix(self, rng):
        pim, trace = traced_pim()
        a = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        b = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        pim.pim_xnor(a, b)
        stats = analyse(trace)
        assert stats.command_mix["AAP2"] == 1
        assert stats.command_mix["AAP1"] == 2
        assert stats.total_commands == 5

    def test_subarray_load(self, rng):
        pim, trace = traced_pim()
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8), (0, 0, 0))
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8), (0, 0, 1))
        pim.store_row(rng.integers(0, 2, 32).astype(np.uint8), (0, 0, 1))
        stats = analyse(trace)
        assert stats.subarray_load[(0, 0, 1)] == 2
        assert stats.busiest_subarray == ((0, 0, 1), 2)
        assert stats.load_imbalance() == pytest.approx(2 / 1.5)

    def test_empty_trace(self):
        stats = analyse(CommandTrace())
        assert stats.total_commands == 0
        assert stats.busiest_subarray is None
        assert stats.load_imbalance() == 1.0


class TestReplay:
    def test_replay_reproduces_state(self, rng):
        """Recording a computation and replaying it on a fresh device
        must produce identical sub-array contents."""
        pim, trace = traced_pim()
        a = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        b = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        pim.pim_xnor(a, b)
        wa = pim.store_word_columns(rng.integers(0, 16, 8), bits=4, subarray_key=(0, 0, 1))
        wb = pim.store_word_columns(rng.integers(0, 16, 8), bits=4, subarray_key=(0, 0, 1))
        pim.pim_add(wa, wb, (0, 0, 1))

        fresh = PimAssembler.small()
        replay(trace, fresh.controller)

        for key in ((0, 0, 0), (0, 0, 1)):
            original = pim.device.subarray_at(key).snapshot()
            replayed = fresh.device.subarray_at(key).snapshot()
            assert (original == replayed).all(), key

    def test_ganged_bulk_xnor_replays_to_identical_state(self, rng):
        """``gang_compute2`` records one AAP2 per member, so a traced
        bulk XNOR replays exactly and matches the ledger's count."""
        geometry = dict(subarrays=2, rows=64, cols=32, mats=2)
        pim, trace = traced_pim(**geometry)
        a = rng.integers(0, 2, 200).astype(np.uint8)
        b = rng.integers(0, 2, 200).astype(np.uint8)
        np.testing.assert_array_equal(pim.bulk_xnor(a, b), 1 - (a ^ b))
        aap2 = trace.entries("AAP2")
        assert len(aap2) == pim.stats.command_count("AAP2") == 7

        fresh = PimAssembler.small(**geometry)
        replay(trace, fresh.controller)
        for key in pim.device.subarray_keys():
            original = pim.device.subarray_at(key).snapshot()
            replayed = fresh.device.subarray_at(key).snapshot()
            assert (original == replayed).all(), key

    def test_replay_skips_reads(self, rng):
        pim, trace = traced_pim()
        a = pim.store_row(rng.integers(0, 2, 32).astype(np.uint8))
        pim.read_row(a)
        fresh = PimAssembler.small()
        replay(trace, fresh.controller)  # must not raise

    def test_replay_rejects_unknown_mnemonic(self):
        trace = CommandTrace()
        trace.record("WARP", (0, 0, 0), (1,))
        fresh = PimAssembler.small()
        with pytest.raises(ValueError):
            replay(trace, fresh.controller)


class TestExtendedOps:
    def test_init_row(self):
        pim = PimAssembler.small()
        addr = pim.allocate_row()
        pim.controller.init_row(addr, 1)
        assert pim.controller.read_row(addr).all()
        pim.controller.init_row(addr, 0)
        assert not pim.controller.read_row(addr).any()

    def test_init_rejects_bad_value(self):
        pim = PimAssembler.small()
        with pytest.raises(ValueError):
            pim.controller.init_row(pim.allocate_row(), 2)

    def test_xor3(self, rng):
        pim = PimAssembler.small()
        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(3)]
        addrs = [pim.store_row(r) for r in rows]
        des = pim.allocate_row()
        before = pim.stats.totals().total_commands
        # three-input XOR in 2 cycles: latch r3, then the sum cycle
        pim.controller.load_latch(addrs[2])
        out = pim.controller.sum_cycle(addrs[0], addrs[1], des)
        assert (out == (rows[0] ^ rows[1] ^ rows[2])).all()
        assert pim.stats.totals().total_commands == before + 2
