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
:mod:`repro.core.controller` validates its operands through, and
:data:`ISA`, the one table of every trace mnemonic the platform emits:
its operand layout, effects, payload, ledger name and resources.  The
trace verifier, the optimiser's effect model, trace replay and the
batched scheduler all read it.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence


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


# --------------------------------------------------------------------------
# the instruction table
# --------------------------------------------------------------------------

#: what a command can keep busy, in the batched scheduler's column order:
#: its own sub-array, its MAT's global row buffer and its MAT's DPU
RESOURCES: tuple[str, ...] = ("subarray", "grb", "dpu")


@dataclass(frozen=True)
class Signature:
    """Everything the analysis layer and the scheduler know about one mnemonic.

    A recorded command lists its row operands sources first, destination
    last (:class:`repro.core.trace.TraceEntry`); ``sources`` and ``dest``
    name those positions, and ``rows[reads]`` / ``rows[writes]`` slice
    them out.

    Attributes:
        arity: the legal numbers of row operands (``DPU`` takes 0 or 1).
        sources: positions of the rows the command reads.
        dest: position of the row it writes, or ``None``.
        reads_latch: consumes the carry latch (``SUM``).
        writes_latch: sets the carry latch.
        observation: hands a row to the host or the DPU and changes no
            array state.
        distinct_sources: the activated source rows must differ.
        in_place: the destination may be an activated source — Ambit's
            TRA majority lands on all three rows (``AAP3``).
        payload: ``"none"``, ``"fill"`` (one 0/1 value) or ``"row"``
            (one 0/1 bit per column).
        ledger: the mnemonic the ledger charges it under; ``None`` when
            it is free.
        resources: which of :data:`RESOURCES` it keeps busy.
        program: part of an AAP program; ``False`` for the refresh/ECC
            stream, which the ledger charges without tracing commands.
    """

    arity: tuple[int, ...]
    sources: tuple[int, ...] = ()
    dest: int | None = None
    reads_latch: bool = False
    writes_latch: bool = False
    observation: bool = False
    distinct_sources: bool = False
    in_place: bool = False
    payload: str = "none"
    ledger: str | None = None
    resources: tuple[str, ...] = ("subarray",)
    program: bool = True
    reads: slice = field(init=False, repr=False, compare=False)
    writes: slice = field(init=False, repr=False, compare=False)
    #: :attr:`resources` as column indices into :data:`RESOURCES`
    columns: tuple[int, ...] = field(init=False, repr=False, compare=False)
    #: the destination receives its one source's value (type-1 AAP)
    copies: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = len(self.sources)
        if self.sources != tuple(range(n)) or self.dest not in (None, n):
            raise ValueError("operands are laid out sources first, then dest")
        object.__setattr__(self, "reads", slice(0, n))
        object.__setattr__(self, "writes", slice(n, n + (self.dest is not None)))
        columns = tuple(RESOURCES.index(name) for name in self.resources)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "copies", self.dest is not None and n == 1)

    def operands_valid(self, rows: Sequence[int]) -> bool:
        """Distinct sources, and no destination among them unless in place."""
        sources = rows[self.reads]
        if self.distinct_sources and len(set(sources)) != len(sources):
            return False
        return self.in_place or self.dest is None or rows[self.dest] not in sources


def resource_key(name: str, subarray: tuple[int, ...]) -> tuple[object, ...]:
    """The resource ``name`` serving ``subarray``: the sub-array itself,
    or its MAT's GRB or DPU as ``(name, bank, mat)``."""
    if name == "subarray":
        return tuple(subarray)
    return (name, subarray[0], subarray[1])


_GRB = ("subarray", "grb")

#: The instruction table: every trace mnemonic the platform can emit, in
#: canonical order; each entry reads ``(arity, sources, dest, ...)``.
#: ``repro.core.timing.command_cost_table`` prices each of them
#: (``tests/core/test_isa_costs.py``); the analysis layer rejects trace
#: documents holding anything else.
ISA: dict[str, Signature] = {
    "AAP1": Signature((2,), (0,), 1, ledger="AAP1"),
    "AAP2": Signature((3,), (0, 1), 2, distinct_sources=True, ledger="AAP2"),
    # TRA: the majority lands on des and in the carry latch
    "AAP3": Signature((4,), (0, 1, 2), 3, writes_latch=True, distinct_sources=True,
                      in_place=True, ledger="AAP3"),
    # latch-assisted sum: des = src1 ^ src2 ^ latch
    "SUM": Signature((3,), (0, 1), 2, reads_latch=True, distinct_sources=True,
                     ledger="SUM"),
    "LATCH_LD": Signature((1,), (0,), writes_latch=True, ledger="LATCH_LD"),
    # rides on the precharge of the surrounding AAP: never charged
    "LATCH_CLR": Signature((0,), writes_latch=True),
    # a RowClone off a reserved constant row: charged as one AAP1
    "ROW_INIT": Signature((1,), (), 0, payload="fill", ledger="AAP1"),
    "MEM_WR": Signature((1,), (), 0, payload="row", ledger="MEM_WR", resources=_GRB),
    "MEM_RD": Signature((1,), (0,), observation=True, ledger="MEM_RD", resources=_GRB),
    "DPU": Signature((0, 1), (0,), observation=True, ledger="DPU", resources=("dpu",)),
    # refresh / data-at-rest integrity stream (repro.core.integrity)
    "REF": Signature((0,), ledger="REF", program=False),
    "ECC_CHK": Signature((0,), ledger="ECC_CHK", program=False),
    "ECC_ENC": Signature((0,), ledger="ECC_ENC", program=False),
    "ECC_FIX": Signature((0,), ledger="ECC_FIX", program=False),
}

ALL_MNEMONICS: tuple[str, ...] = tuple(ISA)


def ledger_counts(traced: Mapping[str, int]) -> Counter[str]:
    """Fold per-mnemonic command counts into the counts the ledger charges.

    Each count moves to its mnemonic's :attr:`Signature.ledger` name;
    free mnemonics and names outside :data:`ISA` drop out.
    """
    folded: Counter[str] = Counter()
    for mnemonic, count in traced.items():
        signature = ISA.get(mnemonic)
        if signature is not None and signature.ledger is not None:
            folded[signature.ledger] += count
    return folded
