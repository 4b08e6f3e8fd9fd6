"""The full PIM-Assembler device: banks of MATs of sub-arrays."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.core.bank import Bank
from repro.core.mat import Mat
from repro.core.storage import BitPlaneStore
from repro.core.subarray import SubArray
from repro.core.isa import RowAddress
from repro.dram.geometry import DeviceGeometry, default_geometry


@dataclass
class Device:
    """Top-level memory device with hierarchical, lazy storage.

    All sub-array bits live in one device-wide
    :class:`~repro.core.storage.BitPlaneStore` (packed uint64 words);
    banks/MATs/sub-arrays are navigation handles into it.  The store
    grows slot-by-slot as sub-arrays are first touched, so laziness is
    preserved (a default device would otherwise be ~1 GB packed).
    """

    geometry: DeviceGeometry = field(default_factory=default_geometry)

    def __post_init__(self) -> None:
        self._banks: dict[int, Bank] = {}
        sub = self.geometry.bank.mat.subarray
        self.store = BitPlaneStore(sub.rows, sub.cols)

    # ----- navigation ------------------------------------------------------

    def bank(self, index: int) -> Bank:
        if not 0 <= index < self.geometry.num_banks:
            raise IndexError(
                f"bank index {index} out of range 0..{self.geometry.num_banks - 1}"
            )
        if index not in self._banks:
            self._banks[index] = Bank(
                self.geometry.bank, store=self.store, label=f"bank{index}"
            )
        return self._banks[index]

    def mat_at(self, bank: int, mat: int) -> Mat:
        return self.bank(bank).mat(mat)

    def subarray_at(self, address: RowAddress | tuple[int, int, int]) -> SubArray:
        """Resolve a :class:`RowAddress` (or a subarray key) to state."""
        if isinstance(address, RowAddress):
            bank, mat, sub = address.bank, address.mat, address.subarray
        else:
            bank, mat, sub = address
        return self.bank(bank).mat(mat).subarray(sub)

    def validate_address(self, address: RowAddress) -> RowAddress:
        g = self.geometry
        if address.bank >= g.num_banks:
            raise IndexError(f"bank {address.bank} >= {g.num_banks}")
        if address.mat >= g.bank.num_mats:
            raise IndexError(f"mat {address.mat} >= {g.bank.num_mats}")
        if address.subarray >= g.bank.mat.num_subarrays:
            raise IndexError(
                f"subarray {address.subarray} >= {g.bank.mat.num_subarrays}"
            )
        if address.row >= g.bank.mat.subarray.rows:
            raise IndexError(
                f"row {address.row} >= {g.bank.mat.subarray.rows}"
            )
        return address

    # ----- enumeration -------------------------------------------------------

    def subarray_keys(self, limit: int | None = None) -> Iterator[tuple[int, int, int]]:
        """Yield subarray identities in address order, optionally limited."""
        g = self.geometry
        count = 0
        for b in range(g.num_banks):
            for m in range(g.bank.num_mats):
                for s in range(g.bank.mat.num_subarrays):
                    if limit is not None and count >= limit:
                        return
                    yield (b, m, s)
                    count += 1

    def slot_keys(self) -> dict[int, tuple[int, int, int]]:
        """Store slot -> sub-array key over the instantiated hierarchy."""
        return {
            sub.slot: (bank_idx, mat_idx, sub_idx)
            for bank_idx, bank in self._banks.items()
            for mat_idx, mat in bank._mats.items()
            for sub_idx, sub in mat._subarrays.items()
        }

    @property
    def num_subarrays(self) -> int:
        return self.geometry.num_subarrays

    @property
    def row_bits(self) -> int:
        return self.geometry.row_bits
