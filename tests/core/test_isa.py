"""The AAP instruction set: addressing and locality validation."""

import pytest

from repro.core.isa import (
    AapCompute2,
    AapCompute3,
    AapCopy,
    RowAddress,
    SAOp,
)


def addr(row, subarray=0):
    return RowAddress(bank=0, mat=0, subarray=subarray, row=row)


class TestRowAddress:
    def test_with_row(self):
        assert addr(3).with_row(9) == addr(9)

    def test_subarray_key(self):
        a = RowAddress(bank=1, mat=2, subarray=3, row=4)
        assert a.subarray_key == (1, 2, 3)

    def test_same_subarray(self):
        assert addr(1).same_subarray(addr(2))
        assert not addr(1).same_subarray(addr(1, subarray=1))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            RowAddress(bank=-1, mat=0, subarray=0, row=0)

    def test_ordering(self):
        assert addr(1) < addr(2)


class TestAapCopy:
    def test_valid_within_subarray(self):
        AapCopy(src=addr(0), des=addr(5))

    def test_rejects_cross_subarray(self):
        with pytest.raises(ValueError):
            AapCopy(src=addr(0), des=addr(0, subarray=1))

    def test_mnemonic(self):
        assert AapCopy(src=addr(0), des=addr(1)).mnemonic == "AAP1"


class TestAapCompute2:
    def test_valid(self):
        instr = AapCompute2(src1=addr(0), src2=addr(1), des=addr(2))
        assert instr.op is SAOp.XNOR2

    def test_rejects_same_source_row(self):
        with pytest.raises(ValueError):
            AapCompute2(src1=addr(0), src2=addr(0), des=addr(2))

    def test_rejects_cross_subarray(self):
        with pytest.raises(ValueError):
            AapCompute2(src1=addr(0), src2=addr(1, subarray=1), des=addr(2))


class TestAapCompute3:
    def test_valid(self):
        AapCompute3(src1=addr(0), src2=addr(1), src3=addr(2), des=addr(3))

    def test_rejects_duplicate_sources(self):
        with pytest.raises(ValueError):
            AapCompute3(src1=addr(0), src2=addr(0), src3=addr(2), des=addr(3))

    def test_rejects_cross_subarray_destination(self):
        with pytest.raises(ValueError):
            AapCompute3(
                src1=addr(0), src2=addr(1), src3=addr(2),
                des=addr(3, subarray=1),
            )

