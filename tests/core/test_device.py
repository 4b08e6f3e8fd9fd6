"""Device directory: navigation, validation and the DPU."""

import numpy as np
import pytest

from repro.core.device import Device
from repro.core.dpu import Dpu
from repro.core.isa import RowAddress
from repro.dram.geometry import (
    BankGeometry,
    DeviceGeometry,
    MatGeometry,
    SubArrayGeometry,
)


def tiny_device():
    return Device(
        DeviceGeometry(
            bank=BankGeometry(
                mat=MatGeometry(
                    subarray=SubArrayGeometry(rows=32, cols=16, compute_rows=8),
                    subarrays_x=2,
                    subarrays_y=1,
                ),
                mats_x=2,
                mats_y=1,
            ),
            num_banks=2,
        )
    )


class TestNavigation:
    def test_subarray_at_address(self):
        device = tiny_device()
        addr = RowAddress(bank=1, mat=1, subarray=1, row=0)
        sub = device.subarray_at(addr)
        assert sub.geometry.rows == 32

    def test_subarray_at_key(self):
        device = tiny_device()
        assert device.subarray_at((0, 0, 0)) is device.subarray_at((0, 0, 0))

    def test_distinct_subarrays_are_distinct_state(self):
        device = tiny_device()
        a = device.subarray_at((0, 0, 0))
        b = device.subarray_at((0, 0, 1))
        a.write_row(0, np.ones(16, dtype=np.uint8))
        assert b.read_row(0).sum() == 0

    def test_bank_bounds(self):
        with pytest.raises(IndexError):
            tiny_device().subarray_at((2, 0, 0))

    def test_validate_address(self):
        device = tiny_device()
        with pytest.raises(IndexError):
            device.validate_address(RowAddress(bank=0, mat=0, subarray=0, row=32))
        with pytest.raises(IndexError):
            device.validate_address(RowAddress(bank=0, mat=2, subarray=0, row=0))

    def test_subarray_keys_enumeration(self):
        device = tiny_device()
        keys = list(device.subarray_keys())
        assert len(keys) == device.num_subarrays == 8
        assert keys[0] == (0, 0, 0)
        assert len(list(device.subarray_keys(limit=3))) == 3


class TestDpu:
    def test_and_reduce(self):
        dpu = Dpu(width=8)
        assert dpu.and_reduce(np.ones(8, dtype=np.uint8)) == 1
        assert dpu.and_reduce(np.array([1, 1, 0, 1], dtype=np.uint8)) == 0

    def test_masked_and_reduce(self):
        dpu = Dpu(width=8)
        bits = np.array([1, 1, 0, 0], dtype=np.uint8)
        mask = np.array([1, 1, 0, 0], dtype=np.uint8)
        assert dpu.masked_and_reduce(bits, mask) == 1
        assert dpu.masked_and_reduce(bits, np.ones(4, dtype=np.uint8)) == 0

    def test_masked_empty_mask_is_vacuous_true(self):
        dpu = Dpu(width=4)
        assert dpu.masked_and_reduce(
            np.zeros(4, dtype=np.uint8), np.zeros(4, dtype=np.uint8)
        ) == 1

    def test_scalar_add_masks_to_width(self):
        assert Dpu().scalar_add(200, 100, bits=8) == 44

    def test_rejects_wide_input(self):
        with pytest.raises(ValueError):
            Dpu(width=4).and_reduce(np.zeros(8, dtype=np.uint8))

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            Dpu(width=4).and_reduce(np.zeros((2, 2), dtype=np.uint8))
