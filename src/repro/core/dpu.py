"""MAT-level Digital Processing Unit (DPU).

The paper places a "low-overhead Digital Processing Unit ... in
MAT-level to perform simple non-bulk bit-wise operations".  Two uses
appear in the algorithm mapping:

* after a ``PIM_XNOR`` row comparison, "a built-in AND unit in DPU
  readily takes all the results to determine the next memory operation"
  — i.e. an AND-reduction across the 256 XNOR outputs decides whether
  the k-mer in the temp row equals the stored k-mer row;
* small scalar bookkeeping (frequency increments that don't warrant a
  bulk in-memory add, loop counters) during graph traversal.

The DPU is combinational + a small adder; its latency is charged in DPU
clock ticks by the controller.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _as_bits(bits: np.ndarray) -> np.ndarray:
    arr = np.asarray(bits, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("DPU operates on one SA stripe (1-D bit vector)")
    if not np.isin(arr, (0, 1)).all():
        raise ValueError("DPU inputs must be 0/1 bits")
    return arr


@dataclass(frozen=True)
class Dpu:
    """Combinational reduce/compare logic of the MAT-level DPU.

    It holds no state, so one instance (the controller's) serves every
    MAT; the scheduler times each MAT's DPU as its own resource.
    """

    width: int = 256

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError("width must be positive")

    def _check(self, bits: np.ndarray) -> np.ndarray:
        arr = _as_bits(bits)
        if arr.size > self.width:
            raise ValueError(
                f"input wider ({arr.size}) than the DPU stripe ({self.width})"
            )
        return arr

    def and_reduce(self, bits: np.ndarray) -> int:
        """1 iff every bit is 1 — the k-mer match test after PIM_XNOR."""
        arr = self._check(bits)
        return int(arr.all())

    def masked_and_reduce(self, bits: np.ndarray, mask: np.ndarray) -> int:
        """AND-reduce restricted to the positions where ``mask`` is 1.

        Needed because a k-mer occupies only ``2k`` of the 256 columns;
        the comparison must ignore the padding columns.
        """
        arr = self._check(bits)
        m = self._check(mask)
        if m.size != arr.size:
            raise ValueError("mask must match input width")
        relevant = arr[m == 1]
        return int(relevant.all()) if relevant.size else 1

    def scalar_add(self, a: int, b: int, bits: int = 32) -> int:
        """Small two's-complement adder for bookkeeping values."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        mask = (1 << bits) - 1
        return (a + b) & mask
