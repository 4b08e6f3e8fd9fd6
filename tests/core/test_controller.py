"""Controller: command execution, accounting, compound sequences."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import PimAssembler
from repro.core.isa import RowAddress, SAOp
from repro.core.timing import command_cost_table
from repro.core.trace import CommandTrace


def addr(pim, row, subarray=0):
    return RowAddress(bank=0, mat=0, subarray=subarray, row=row)


def store(pim, bits, subarray=(0, 0, 0)):
    return pim.store_row(np.asarray(bits, dtype=np.uint8), subarray)


class TestBasicCommands:
    def test_copy_moves_data_and_charges(self, small_pim, rng):
        pim = small_pim
        data = rng.integers(0, 2, 32).astype(np.uint8)
        src = store(pim, data)
        des = pim.allocate_row()
        before = pim.stats.command_count("AAP1")
        pim.controller.copy(src, des)
        assert (pim.controller.read_row(des) == data).all()
        assert pim.stats.command_count("AAP1") == before + 1

    def test_copy_rejects_cross_subarray(self, small_pim):
        pim = small_pim
        src = pim.allocate_row((0, 0, 0))
        des = pim.allocate_row((0, 0, 1))
        with pytest.raises(ValueError):
            pim.controller.copy(src, des)

    def test_compute2_all_ops(self, small_pim, rng):
        pim = small_pim
        a = rng.integers(0, 2, 32).astype(np.uint8)
        b = rng.integers(0, 2, 32).astype(np.uint8)
        ra, rb = store(pim, a), store(pim, b)
        des = pim.allocate_row()
        expectations = {
            SAOp.XNOR2: 1 - (a ^ b),
            SAOp.XOR2: a ^ b,
            SAOp.AND2: a & b,
            SAOp.OR2: a | b,
            SAOp.NOR2: 1 - (a | b),
            SAOp.NAND2: 1 - (a & b),
        }
        for op, expected in expectations.items():
            out = pim.controller.compute2(ra, rb, des, op)
            assert (out == expected).all(), op

    def test_tra_carry(self, small_pim, rng):
        pim = small_pim
        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(3)]
        addrs = [store(pim, r) for r in rows]
        des = pim.allocate_row()
        out = pim.controller.tra_carry(*addrs, des)
        expected = (np.sum(rows, axis=0) >= 2).astype(np.uint8)
        assert (out == expected).all()

    def test_validate_address_bounds(self, small_pim):
        pim = small_pim
        bad = RowAddress(bank=0, mat=0, subarray=0, row=9999)
        with pytest.raises(IndexError):
            pim.controller.read_row(bad)

    def test_write_read_row_roundtrip(self, small_pim, rng):
        pim = small_pim
        data = rng.integers(0, 2, 32).astype(np.uint8)
        a = pim.allocate_row()
        pim.controller.write_row(a, data)
        assert (pim.controller.read_row(a) == data).all()
        assert pim.stats.command_count("MEM_WR") == 1
        assert pim.stats.command_count("MEM_RD") == 1

    def test_read_fields_accounts_as_read_rows(self):
        """A vector field read is one ``read_row`` per entry, in order."""
        reads = [  # (sub-array key, row, bit): two MATs, repeated rows
            ((0, 0, 0), 5, 0),
            ((0, 1, 0), 6, 8),
            ((0, 0, 1), 7, 28),
            ((0, 0, 0), 5, 16),
            ((0, 1, 1), 9, 4),
        ]
        runs = []
        for vector in (True, False):
            pim = PimAssembler.small(subarrays=2, rows=64, cols=32, mats=2)
            data = np.random.default_rng(7).integers(
                0, 2, (4, 16, 32), dtype=np.uint8
            )
            for i, key in enumerate(pim.device.subarray_keys()):
                for row in range(16):
                    pim.device.subarray_at(key).write_row(row, data[i, row])
            trace = CommandTrace()
            pim.controller.attach_trace(trace)
            if vector:
                keys, rows, bits = zip(*reads)
                table = list(dict.fromkeys(keys))
                values = pim.controller.read_fields(
                    table,
                    np.array([table.index(key) for key in keys]),
                    np.array(rows),
                    np.array(bits),
                    6,
                ).tolist()
            else:
                values = []
                for key, row, bit in reads:
                    got = pim.controller.read_row(RowAddress(*key, row=row))
                    field = got[bit : bit + 6]
                    values.append(int(field @ (1 << np.arange(field.size))))
            totals = pim.stats.totals()
            runs.append(
                (
                    values,
                    [(e.mnemonic, e.subarray, e.rows) for e in trace],
                    float(totals.time_ns).hex(),
                    float(totals.energy_nj).hex(),
                    pim.state_dict(),
                )
            )
        assert runs[0] == runs[1]
        assert len(runs[0][1]) == len(reads)


class TestDpuPath:
    def test_dpu_match(self, small_pim, rng):
        pim = small_pim
        data = rng.integers(0, 2, 32).astype(np.uint8)
        a, b = store(pim, data), store(pim, data)
        des = pim.allocate_row()
        pim.controller.xnor_rows(a, b, des)
        assert pim.controller.dpu_match(des)

    def test_dpu_match_with_mask(self, small_pim):
        pim = small_pim
        a = store(pim, [1] * 16 + [0] * 16)
        b = store(pim, [1] * 16 + [1] * 16)
        des = pim.allocate_row()
        pim.controller.xnor_rows(a, b, des)
        mask = np.zeros(32, dtype=np.uint8)
        mask[:16] = 1
        assert pim.controller.dpu_match(des, mask)  # first 16 agree
        assert not pim.controller.dpu_match(des)  # full row differs

    def test_dpu_scalar_add_wraps(self, small_pim):
        result = small_pim.controller.dpu_scalar_add((0, 0, 0), 255, 1, bits=8)
        assert result == 0


class TestCompareScan:
    def test_finds_first_match(self, small_pim, rng):
        pim = small_pim
        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(5)]
        for r in rows:
            store(pim, r)
        temp = store(pim, rows[3])
        hit = pim.controller.compare_scan(temp, start_row=0, n_rows=5)
        assert hit == 3

    def test_no_match_returns_none(self, small_pim, rng):
        pim = small_pim
        for _ in range(4):
            store(pim, rng.integers(0, 2, 32).astype(np.uint8))
        temp = store(pim, np.ones(32, dtype=np.uint8))
        # all-ones row is unlikely; force distinctness
        assert pim.controller.compare_scan(temp, 0, 4) is None

    def test_charges_per_scanned_row(self, small_pim, rng):
        pim = small_pim
        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(4)]
        for r in rows:
            store(pim, r)
        temp = store(pim, rows[1])
        before = pim.stats.command_count("AAP2")
        pim.controller.compare_scan(temp, 0, 4)
        # scan stops at row 1 -> scanned 2 rows -> 2 compute AAPs
        assert pim.stats.command_count("AAP2") == before + 2

    def test_valid_bits_masks_comparison(self, small_pim):
        pim = small_pim
        stored = store(pim, [1] * 8 + [0] * 24)
        temp = store(pim, [1] * 8 + [1] * 24)
        assert pim.controller.compare_scan(temp, stored.row, 1, valid_bits=8) == 0
        assert pim.controller.compare_scan(temp, stored.row, 1) is None

    def test_empty_scan(self, small_pim, rng):
        pim = small_pim
        temp = store(pim, rng.integers(0, 2, 32).astype(np.uint8))
        assert pim.controller.compare_scan(temp, 0, 0) is None


class TestRippleAdd:
    @given(
        st.lists(st.integers(0, 255), min_size=1, max_size=16),
        st.lists(st.integers(0, 255), min_size=1, max_size=16),
    )
    @settings(max_examples=25, deadline=None)
    def test_matches_integer_addition(self, xs, ys):
        pim = PimAssembler.small(subarrays=1, rows=64, cols=16)
        n = min(len(xs), len(ys), 16)
        va = np.array(xs[:n])
        vb = np.array(ys[:n])
        wa = pim.store_word_columns(va, bits=8)
        wb = pim.store_word_columns(vb, bits=8)
        ws = pim.pim_add(wa, wb)
        assert (pim.read_word_columns(ws)[:n] == va + vb).all()

    def test_cycle_count_is_2m(self, small_pim):
        """An m-plane ripple add issues exactly m SUM + m AAP3."""
        pim = small_pim
        wa = pim.store_word_columns([5, 9], bits=4)
        wb = pim.store_word_columns([3, 7], bits=4)
        pim.pim_add(wa, wb)
        assert pim.stats.command_count("SUM") == 4
        assert pim.stats.command_count("AAP3") == 4

    def test_mixed_widths_zero_extend(self, small_pim):
        pim = small_pim
        wa = pim.store_word_columns([15], bits=4)
        wb = pim.store_word_columns([1], bits=1)
        ws = pim.pim_add(wa, wb)
        assert pim.read_word_columns(ws)[0] == 16


def _scan_setup(pim, rng):
    rows = [store(pim, rng.integers(0, 2, 32)) for _ in range(4)]
    return rows[2], rows[0].row  # the query is the third candidate


#: every scalar op of the controller, run on a fresh small device
SCALAR_OPS = {
    "copy": lambda pim, rng: pim.controller.copy(
        store(pim, rng.integers(0, 2, 32)), pim.allocate_row()
    ),
    "compute2": lambda pim, rng: pim.controller.compute2(
        *(store(pim, rng.integers(0, 2, 32)) for _ in range(2)),
        pim.allocate_row(),
        SAOp.XOR2,
    ),
    "tra_carry": lambda pim, rng: pim.controller.tra_carry(
        *(store(pim, rng.integers(0, 2, 32)) for _ in range(3)),
        pim.allocate_row(),
    ),
    "sum_cycle": lambda pim, rng: pim.controller.sum_cycle(
        *(store(pim, rng.integers(0, 2, 32)) for _ in range(2)),
        pim.allocate_row(),
    ),
    "load_latch": lambda pim, rng: pim.controller.load_latch(
        store(pim, rng.integers(0, 2, 32))
    ),
    "write_row": lambda pim, rng: pim.controller.write_row(
        pim.allocate_row(), rng.integers(0, 2, 32)
    ),
    "read_row": lambda pim, rng: pim.controller.read_row(pim.allocate_row()),
    "read_fields": lambda pim, rng: pim.controller.read_fields(
        [(0, 0, 0), (0, 0, 1)],
        np.array([0, 1, 0]),
        np.array([1, 2, 3]),
        np.zeros(3),
        4,
    ),
    "dpu_match": lambda pim, rng: pim.controller.dpu_match(
        store(pim, rng.integers(0, 2, 32))
    ),
    "dpu_scalar_add": lambda pim, rng: pim.controller.dpu_scalar_add(
        (0, 0, 0), 3, 4
    ),
    "xnor_rows": lambda pim, rng: pim.controller.xnor_rows(
        *(store(pim, rng.integers(0, 2, 32)) for _ in range(2)),
        pim.allocate_row(),
    ),
    "compare_scan": lambda pim, rng: pim.controller.compare_scan(
        *_scan_setup(pim, rng), 4
    ),
    "ripple_add": lambda pim, rng: pim.controller.ripple_add(
        [store(pim, rng.integers(0, 2, 32)) for _ in range(3)],
        [store(pim, rng.integers(0, 2, 32)) for _ in range(3)],
        [pim.allocate_row() for _ in range(3)],
        pim.allocate_row(),
    ),
    "compress_3to2": lambda pim, rng: pim.controller.compress_3to2(
        *(store(pim, rng.integers(0, 2, 32)) for _ in range(3)),
        pim.allocate_row(),
        pim.allocate_row(),
    ),
    "init_row": lambda pim, rng: pim.controller.init_row(pim.allocate_row(), 1),
}


class _Records:
    """Recorder summing each mnemonic's ledger records."""

    def __init__(self):
        self.per_mnemonic = {}

    def on_command(self, command, count, time_ns, energy_nj, phase):
        n, t, e = self.per_mnemonic.get(command, (0, 0.0, 0.0))
        self.per_mnemonic[command] = (n + count, t + time_ns, e + energy_nj)

    def on_batch(self, names, codes, counts, time_ns, energy_nj, phase):
        for code, count, t, e in zip(
            codes.tolist(), counts.tolist(), time_ns.tolist(), energy_nj.tolist()
        ):
            self.on_command(names[code], count, t, e, phase)


class TestPricingParity:
    """Scalar ops price every command from the cost table."""

    @pytest.mark.parametrize("op", sorted(SCALAR_OPS))
    def test_time_and_energy_are_count_times_table(self, op, rng):
        pim = PimAssembler.small(subarrays=4, rows=64, cols=32)
        records = _Records()
        pim.stats.attach_recorder(records)
        SCALAR_OPS[op](pim, rng)
        costs = command_cost_table(pim.controller.timing, pim.controller.energy)
        assert records.per_mnemonic
        for mnemonic, (count, time_ns, energy_nj) in records.per_mnemonic.items():
            assert mnemonic in costs, mnemonic
            latency, energy = costs[mnemonic]
            assert time_ns == pytest.approx(count * latency, rel=1e-12)
            assert energy_nj == pytest.approx(count * energy, rel=1e-12)

    def test_gang_charges_time_once_energy_per_member(self, rng):
        pim = PimAssembler.small(subarrays=4, rows=64, cols=32)
        ops = [
            tuple(store(pim, rng.integers(0, 2, 32), (0, 0, s)) for _ in range(3))
            for s in range(3)
        ]
        records = _Records()
        pim.stats.attach_recorder(records)
        pim.controller.gang_compute2(ops)
        latency, energy = command_cost_table(
            pim.controller.timing, pim.controller.energy
        )["AAP2"]
        assert records.per_mnemonic == {"AAP2": (3, latency, 3 * energy)}


class TestGangExecution:
    def test_gang_compute2_charges_one_slot(self, small_pim, rng):
        pim = small_pim
        ops = []
        expected = []
        for s in range(3):
            a = rng.integers(0, 2, 32).astype(np.uint8)
            b = rng.integers(0, 2, 32).astype(np.uint8)
            ra = store(pim, a, (0, 0, s))
            rb = store(pim, b, (0, 0, s))
            des = pim.allocate_row((0, 0, s))
            ops.append((ra, rb, des))
            expected.append(1 - (a ^ b))
        t_before = pim.stats.totals().time_ns
        results = pim.controller.gang_compute2(ops, SAOp.XNOR2)
        elapsed = pim.stats.totals().time_ns - t_before
        assert elapsed == pytest.approx(pim.controller.timing.t_aap)
        for got, exp in zip(results, expected):
            assert (got == exp).all()

    def test_gang_rejects_same_subarray(self, small_pim, rng):
        pim = small_pim
        a = store(pim, rng.integers(0, 2, 32).astype(np.uint8))
        b = store(pim, rng.integers(0, 2, 32).astype(np.uint8))
        d1, d2 = pim.allocate_row(), pim.allocate_row()
        with pytest.raises(ValueError):
            pim.controller.gang_compute2([(a, b, d1), (a, b, d2)])

    def test_gang_rejects_empty(self, small_pim):
        with pytest.raises(ValueError):
            small_pim.controller.gang_compute2([])

    def test_gang_compute2_routes_through_fault_injection(self, rng):
        """Ganged compute2 must corrupt exactly like the single op."""
        from repro.core.faults import FaultModel

        pim = PimAssembler.small(subarrays=4, rows=64, cols=32)
        pim.controller.faults = FaultModel(compute2_rate=1.0, seed=17)
        ops = []
        clean = []
        for s in range(3):
            a = rng.integers(0, 2, 32).astype(np.uint8)
            b = rng.integers(0, 2, 32).astype(np.uint8)
            ra = store(pim, a, (0, 0, s))
            rb = store(pim, b, (0, 0, s))
            ops.append((ra, rb, pim.allocate_row((0, 0, s))))
            clean.append(1 - (a ^ b))
        results = pim.controller.gang_compute2(ops, SAOp.XNOR2)
        for got, exp in zip(results, clean):
            # rate=1 flips every bit of every member's output
            assert (got == 1 - exp).all()
        # the corrupted result must also be what memory holds
        for (_, _, des), exp in zip(ops, clean):
            stored = pim.device.subarray_at(des).read_row(des.row)
            assert (stored == 1 - exp).all()
        assert pim.controller.faults.injected_faults == 3 * 32

class TestCompress3to2:
    def test_matches_full_adder(self, small_pim, rng):
        pim = small_pim
        rows = [rng.integers(0, 2, 32).astype(np.uint8) for _ in range(3)]
        addrs = [store(pim, r) for r in rows]
        s_des, c_des = pim.allocate_row(), pim.allocate_row()
        pim.controller.compress_3to2(*addrs, s_des, c_des)
        total = np.sum(rows, axis=0)
        assert (pim.controller.read_row(s_des) == total % 2).all()
        assert (pim.controller.read_row(c_des) == (total >= 2)).all()
