"""The AAP instruction set of PIM-Assembler.

The paper's "Software Support" section defines three instruction types,
differing only in the number of activated source rows:

* ``AAP(src, des, size)`` — type 1: RowClone-style copy.
* ``AAP(src1, src2, des, size)`` — type 2: two-row activation; the
  reconfigurable SA produces XNOR2 (or NOR/NAND/XOR/AND/OR, depending on
  the MUX selectors) and writes it to the destination row.
* ``AAP(src1, src2, src3, des, size)`` — type 3: Ambit-style TRA; the
  majority of the three sources (the addition carry) lands on the
  destination.

Sizes must be a multiple of the DRAM row size; otherwise the application
pads with dummy data (the mapping layer in :mod:`repro.mapping` is
responsible for that padding).

This module defines the address space, the three AAP dataclasses
:mod:`repro.core.controller` validates its operands through, and the
registry of every trace mnemonic the platform emits.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass


class SAOp(enum.Enum):
    """Operations selectable through the reconfigurable SA's output MUX."""

    XNOR2 = "xnor2"
    XOR2 = "xor2"
    NOR2 = "nor2"
    NAND2 = "nand2"
    AND2 = "and2"
    OR2 = "or2"


@dataclass(frozen=True, order=True)
class RowAddress:
    """Physical address of one sub-array row.

    The hierarchy mirrors :class:`repro.dram.geometry.DeviceGeometry`:
    ``bank -> mat -> subarray -> row``.
    """

    bank: int
    mat: int
    subarray: int
    row: int

    def __post_init__(self) -> None:
        for name in ("bank", "mat", "subarray", "row"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    def with_row(self, row: int) -> "RowAddress":
        return RowAddress(self.bank, self.mat, self.subarray, row)

    @property
    def subarray_key(self) -> tuple[int, int, int]:
        """Identity of the containing sub-array (for locality checks)."""
        return (self.bank, self.mat, self.subarray)

    def same_subarray(self, other: "RowAddress") -> bool:
        return self.subarray_key == other.subarray_key


@dataclass(frozen=True)
class AapCopy:
    """Type-1 AAP: copy ``src`` row to ``des`` row (RowClone FPM)."""

    src: RowAddress
    des: RowAddress

    def __post_init__(self) -> None:
        if not self.src.same_subarray(self.des):
            raise ValueError(
                "type-1 AAP copies within one sub-array; move data "
                "across sub-arrays through the global row buffer"
            )

    mnemonic = "AAP1"


@dataclass(frozen=True)
class AapCompute2:
    """Type-2 AAP: two-row activation compute into ``des``."""

    src1: RowAddress
    src2: RowAddress
    des: RowAddress
    op: SAOp = SAOp.XNOR2

    def __post_init__(self) -> None:
        if not (
            self.src1.same_subarray(self.src2)
            and self.src1.same_subarray(self.des)
        ):
            raise ValueError("type-2 AAP operands must share a sub-array")
        if self.src1.row == self.src2.row:
            raise ValueError("type-2 AAP requires two distinct source rows")

    mnemonic = "AAP2"


@dataclass(frozen=True)
class AapCompute3:
    """Type-3 AAP: triple-row activation; majority(src1..3) -> des."""

    src1: RowAddress
    src2: RowAddress
    src3: RowAddress
    des: RowAddress

    def __post_init__(self) -> None:
        sources = (self.src1, self.src2, self.src3)
        if not all(s.same_subarray(self.des) for s in sources):
            raise ValueError("type-3 AAP operands must share a sub-array")
        rows = {s.row for s in sources}
        if len(rows) != 3:
            raise ValueError("type-3 AAP requires three distinct source rows")

    mnemonic = "AAP3"


#: Every trace mnemonic the platform can emit, in canonical order.
#: ``repro.core.timing.command_cost_table`` must price each of these
#: (tested by ``tests/core/test_isa_costs.py``); the analysis layer
#: rejects trace documents containing anything else.
ALL_MNEMONICS: tuple[str, ...] = (
    "AAP1",
    "AAP2",
    "AAP3",
    "SUM",
    "LATCH_LD",
    "LATCH_CLR",
    "ROW_INIT",
    "MEM_WR",
    "MEM_RD",
    "DPU",
    # refresh / data-at-rest integrity stream (repro.core.integrity);
    # charged straight through the ledger, never part of AAP programs
    "REF",
    "ECC_CHK",
    "ECC_ENC",
    "ECC_FIX",
)
