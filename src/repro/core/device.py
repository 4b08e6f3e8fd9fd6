"""The full PIM-Assembler device: a lazy directory of sub-arrays.

A full default device holds 32 768 sub-arrays (~1 GB packed), but any
realistic functional run touches only a handful.  Untouched sub-arrays
hold all-zero bits by definition, so the device instantiates a
sub-array on its first touch and laziness is observationally
equivalent.  Banks and MATs hold no functional state: the MAT's global
row buffer and DPU are shared timing resources, modelled by the
scheduler (:mod:`repro.core.isa` names them per command).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.core.storage import BitPlaneStore
from repro.core.subarray import SubArray
from repro.core.isa import RowAddress
from repro.dram.geometry import DeviceGeometry, default_geometry


@dataclass
class Device:
    """Top-level memory device with one lazy sub-array directory.

    All sub-array bits live in one device-wide
    :class:`~repro.core.storage.BitPlaneStore` (packed uint64 words).
    The directory lists the instantiated sub-arrays in store-slot order
    (the order of first touch) plus a key -> slot map; the store grows
    slot-by-slot as sub-arrays are claimed.  Every walk over
    instantiated sub-arrays (snapshots, scrubs, utilisation) uses that
    one order, so a restored device keeps its slot numbering.
    """

    geometry: DeviceGeometry = field(default_factory=default_geometry)

    def __post_init__(self) -> None:
        sub = self.geometry.bank.mat.subarray
        self.store = BitPlaneStore(sub.rows, sub.cols)
        #: instantiated sub-arrays, indexed by store slot
        self._subarrays: list[SubArray] = []
        #: sub-array key -> store slot, in slot (insertion) order
        self._slot_of: dict[tuple[int, int, int], int] = {}

    # ----- navigation ------------------------------------------------------

    def subarray_at(self, address: RowAddress | tuple[int, int, int]) -> SubArray:
        """Resolve a :class:`RowAddress` (or a sub-array key) to state,
        claiming the next store slot on a key's first touch."""
        key = (
            address.subarray_key
            if isinstance(address, RowAddress)
            else tuple(address)
        )
        slot = self._slot_of.get(key)
        if slot is None:
            self._claim([key])
            return self._subarrays[-1]
        return self._subarrays[slot]

    def _claim(self, keys: list) -> None:
        """Instantiate unseen sub-arrays ``keys`` in the order given,
        with one store growth."""
        g = self.geometry
        keys = [tuple(int(part) for part in key) for key in keys]
        for bank, mat, sub in keys:
            for name, index, bound in (
                ("bank", bank, g.num_banks),
                ("MAT", mat, g.bank.num_mats),
                ("sub-array", sub, g.bank.mat.num_subarrays),
            ):
                if not 0 <= index < bound:
                    raise IndexError(
                        f"{name} index {index} out of range 0..{bound - 1}"
                    )
        labels = [f"bank{bank}" for bank, _, _ in keys]
        slot = self.store.new_slots(labels)
        geometry = g.bank.mat.subarray
        for key, label in zip(keys, labels):
            self._slot_of[key] = slot
            self._subarrays.append(
                SubArray(geometry, store=self.store, label=label, claimed=slot)
            )
            slot += 1

    def slots(self, keys: Iterable) -> np.ndarray:
        """Store slot of each sub-array key, claiming unseen sub-arrays
        in the order given (pass keys in first-use order)."""
        keys = [tuple(key) for key in keys]
        slot_of = self._slot_of
        unseen = [key for key in dict.fromkeys(keys) if key not in slot_of]
        if unseen:
            self._claim(unseen)
        return np.array([slot_of[key] for key in keys], dtype=np.intp)

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

    def slot_keys(self) -> list[tuple[int, int, int]]:
        """Key of every instantiated sub-array, indexed by store slot."""
        return list(self._slot_of)

    def instantiated(self) -> Iterator[tuple[tuple[int, int, int], SubArray]]:
        """``(key, sub-array)`` of every instantiated sub-array, in
        store-slot order."""
        return zip(self._slot_of, self._subarrays)

    @property
    def num_subarrays(self) -> int:
        return self.geometry.num_subarrays

    @property
    def row_bits(self) -> int:
        return self.geometry.row_bits
