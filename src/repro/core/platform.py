"""High-level PIM-Assembler platform facade.

:class:`PimAssembler` is the public API of the accelerator: it owns a
device, a controller and a stats ledger, and exposes the three in-memory
functions the paper's algorithm reconstruction is written in —
``PIM_XNOR`` (bulk comparison), ``PIM_Add`` (bulk addition) and
``MEM_insert`` (memory write) — plus helpers for laying data out in
rows, columns and bit planes.

Typical use::

    pim = PimAssembler.small()          # a test-sized device
    a = pim.store_row(bits_a)
    b = pim.store_row(bits_b)
    xnor = pim.pim_xnor(a, b)           # full 256-bit row in 3 cycles
    print(pim.stats.totals().time_ns)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.core.controller import Controller
from repro.core.device import Device
from repro.core.energy import EnergyParameters, DEFAULT_ENERGY
from repro.core.integrity import IntegrityConfig, IntegrityEngine
from repro.core.isa import RowAddress, SAOp
from repro.core.resilience import ResilienceEngine, ResiliencePolicy
from repro.core.stats import StatsLedger
from repro.core.timing import TimingParameters, DEFAULT_TIMING
from repro.observability.session import connect_ledger
from repro.errors import AllocationError, SubarrayQuarantinedError
from repro.dram.geometry import (
    BankGeometry,
    DeviceGeometry,
    MatGeometry,
    SubArrayGeometry,
    default_geometry,
)


@dataclass(frozen=True)
class WordColumns:
    """A set of per-column integer words stored as bit planes.

    ``planes[i]`` is the row holding bit ``i`` (LSB first) of up to
    ``cols`` independent words — the layout the traversal stage uses for
    in/out-degree vectors (paper Fig. 8).
    """

    planes: tuple[RowAddress, ...]
    count: int

    @property
    def bits(self) -> int:
        return len(self.planes)


class PimAssembler:
    """The PIM-Assembler accelerator: device + controller + ledger."""

    def __init__(
        self,
        geometry: DeviceGeometry | None = None,
        timing: TimingParameters = DEFAULT_TIMING,
        energy: EnergyParameters = DEFAULT_ENERGY,
    ) -> None:
        self.geometry = geometry or default_geometry()
        self.device = Device(self.geometry)
        self.stats = StatsLedger()
        # no-op unless an ObservabilitySession is active; lets resumes
        # (which rebuild the platform mid-run) reconnect automatically
        connect_ledger(self.stats)
        self.controller = Controller(
            device=self.device,
            ledger=self.stats,
            timing=timing,
            energy=energy,
        )
        #: bump allocator: next free data row per sub-array
        self._next_row: dict[tuple[int, int, int], int] = {}
        #: data-at-rest integrity engine (attach_integrity)
        self._integrity: IntegrityEngine | None = None

    # ----- construction helpers ---------------------------------------------

    @classmethod
    def small(
        cls,
        subarrays: int = 4,
        rows: int = 64,
        cols: int = 32,
        mats: int = 1,
    ) -> "PimAssembler":
        """A deliberately tiny device for tests and examples.

        ``mats`` spreads the sub-arrays over that many MATs (each with
        its own GRB/DPU) — needed when host-I/O parallelism matters.
        """
        geometry = DeviceGeometry(
            bank=BankGeometry(
                mat=MatGeometry(
                    subarray=SubArrayGeometry(rows=rows, cols=cols, compute_rows=8),
                    subarrays_x=subarrays,
                    subarrays_y=1,
                ),
                mats_x=mats,
                mats_y=1,
            ),
            num_banks=1,
        )
        return cls(geometry=geometry)

    @property
    def row_bits(self) -> int:
        return self.geometry.row_bits

    # ----- resilience -----------------------------------------------------------

    @property
    def resilience(self) -> ResilienceEngine | None:
        return self.controller.resilience

    def protect(
        self, policy: "ResiliencePolicy | str"
    ) -> ResilienceEngine:
        """Attach a resilience engine implementing ``policy``.

        Returns the engine (also reachable as ``pim.resilience``); pass
        ``"off"`` to keep an engine attached but verification disabled.
        """
        engine = ResilienceEngine(policy, self.controller)
        self.controller.resilience = engine
        return engine

    # ----- data-at-rest integrity -----------------------------------------------

    @property
    def integrity(self) -> IntegrityEngine | None:
        return self._integrity

    def attach_integrity(self, config: IntegrityConfig) -> IntegrityEngine:
        """Attach the retention-rot / ECC / refresh-scrub subsystem.

        Enables the SECDED sidecar on the device store (when the config
        asks for it) and returns the engine (also ``pim.integrity``).
        The pipeline drives it through :meth:`integrity_sync`.
        """
        controller = self.controller
        engine = IntegrityEngine(
            config,
            store=self.device.store,
            stats=self.stats,
            timing=controller.timing,
            energy=controller.energy,
            # resolvers that hold the device and the controller, not
            # the platform: a finished job frees itself by refcount
            slot_keys=self.device.slot_keys,
            resilience=lambda: controller.resilience,
        )
        self._integrity = engine
        return engine

    def integrity_sync(self) -> None:
        """Rot checkpoint: inject elapsed windows, refresh and scrub.

        A no-op without an attached engine, so the pipeline can call it
        unconditionally at read/stage granularity.
        """
        if self._integrity is not None:
            self._integrity.sync()

    # ----- allocation ----------------------------------------------------------

    def subarray_keys(self) -> Iterator[tuple[int, int, int]]:
        return self.device.subarray_keys()

    def usable_subarray_keys(self) -> list[tuple[int, int, int]]:
        """Every sub-array key, minus those the resilience engine retired."""
        engine = self.resilience
        keys = list(self.device.subarray_keys())
        if engine is None:
            return keys
        return [key for key in keys if not engine.is_quarantined(key)]

    def allocate_row(
        self, subarray_key: tuple[int, int, int] = (0, 0, 0)
    ) -> RowAddress:
        """Reserve the next free data row of a sub-array.

        Pure bookkeeping: does not instantiate the (lazy) sub-array.
        Rows the resilience engine marked *weak* are skipped (spare-row
        remapping), and a quarantined sub-array refuses allocations
        outright.
        """
        geometry = self.geometry.bank.mat.subarray
        self.device.validate_address(
            RowAddress(*subarray_key, row=0)
        )
        engine = self.resilience
        if engine is not None and engine.is_quarantined(subarray_key):
            raise SubarrayQuarantinedError(subarray_key)
        next_row = self._next_row.get(subarray_key, 0)
        while (
            engine is not None
            and next_row < geometry.data_rows
            and engine.is_weak_row(subarray_key, next_row)
        ):
            next_row += 1
        if next_row >= geometry.data_rows:
            raise AllocationError(
                f"sub-array {subarray_key} has no free data rows "
                f"({geometry.data_rows} in use)"
            )
        self._next_row[subarray_key] = next_row + 1
        bank, mat, subarray = subarray_key
        return RowAddress(bank=bank, mat=mat, subarray=subarray, row=next_row)

    def rows_in_use(self, subarray_key: tuple[int, int, int]) -> int:
        return self._next_row.get(subarray_key, 0)

    def _pad(self, bits: np.ndarray) -> np.ndarray:
        arr = np.asarray(bits, dtype=np.uint8).ravel()
        if arr.size > self.row_bits:
            raise ValueError(
                f"vector of {arr.size} bits exceeds the row size "
                f"{self.row_bits}; use store_vector for multi-row data"
            )
        if arr.size < self.row_bits:
            arr = np.pad(arr, (0, self.row_bits - arr.size))
        return arr

    # ----- MEM functions ---------------------------------------------------------

    def store_row(
        self,
        bits: np.ndarray,
        subarray_key: tuple[int, int, int] = (0, 0, 0),
    ) -> RowAddress:
        """MEM_insert of one row (padded to the row width with zeros)."""
        address = self.allocate_row(subarray_key)
        self.controller.write_row(address, self._pad(bits))
        return address

    def mem_insert(self, address: RowAddress, bits: np.ndarray) -> None:
        """MEM_insert to an explicit address (hash-table updates)."""
        self.controller.write_row(address, self._pad(bits))

    def read_row(self, address: RowAddress, bits: int | None = None) -> np.ndarray:
        """Read a row back; optionally truncated to the first ``bits``."""
        row = self.controller.read_row(address)
        return row if bits is None else row[:bits]

    # ----- PIM_XNOR --------------------------------------------------------------

    def pim_xnor(
        self,
        a: RowAddress,
        b: RowAddress,
        des: RowAddress | None = None,
        staged: bool = False,
    ) -> np.ndarray:
        """Bulk bit-wise XNOR of two rows (1 where the bits agree)."""
        if des is None:
            sub = self.device.subarray_at(a)
            des = a.with_row(sub.compute_row(3))
        return self.controller.xnor_rows(a, b, des, staged=staged)

    def pim_compare(
        self,
        a: RowAddress,
        b: RowAddress,
        valid_bits: int | None = None,
    ) -> bool:
        """PIM_XNOR + DPU AND-reduce: True iff the rows match.

        Args:
            valid_bits: compare only the first ``valid_bits`` columns
                (a k-mer occupies 2k of the row's bits).
        """
        sub = self.device.subarray_at(a)
        des = a.with_row(sub.compute_row(3))
        xnor = self.controller.xnor_rows(a, b, des)
        mask = None
        if valid_bits is not None:
            if not 0 < valid_bits <= self.row_bits:
                raise ValueError("valid_bits out of range")
            mask = np.zeros(self.row_bits, dtype=np.uint8)
            mask[:valid_bits] = 1
        return self.controller.dpu_match(des, mask, bits=xnor)

    # ----- PIM_Add ----------------------------------------------------------------

    def store_word_columns(
        self,
        values: Sequence[int],
        bits: int,
        subarray_key: tuple[int, int, int] = (0, 0, 0),
    ) -> WordColumns:
        """Store up to ``cols`` integers as LSB-first bit planes."""
        if bits <= 0:
            raise ValueError("bits must be positive")
        vals = np.asarray(values, dtype=np.int64)
        if vals.size > self.row_bits:
            raise ValueError("more words than columns")
        if (vals < 0).any() or (vals >= (1 << bits)).any():
            raise ValueError(f"values must fit in {bits} unsigned bits")
        planes = []
        for i in range(bits):
            plane_bits = ((vals >> i) & 1).astype(np.uint8)
            planes.append(self.store_row(plane_bits, subarray_key))
        return WordColumns(planes=tuple(planes), count=vals.size)

    def read_word_columns(self, words: WordColumns) -> np.ndarray:
        """Read bit planes back into integers."""
        values = np.zeros(self.row_bits, dtype=np.int64)
        for i, plane in enumerate(words.planes):
            values += self.controller.read_row(plane).astype(np.int64) << i
        return values[: words.count]

    def pim_add(
        self,
        a: WordColumns,
        b: WordColumns,
        subarray_key: tuple[int, int, int] = (0, 0, 0),
    ) -> WordColumns:
        """Bulk per-column addition: 2 cycles per bit position.

        The result has ``max(bits) + 1`` planes (the final carry becomes
        the MSB), covering ``max(a.count, b.count)`` words.
        """
        bits = max(a.bits, b.bits)
        a_planes = self._extend_planes(a, bits, subarray_key)
        b_planes = self._extend_planes(b, bits, subarray_key)
        sum_planes = [self.allocate_row(subarray_key) for _ in range(bits)]
        carry_row = self.allocate_row(subarray_key)
        self.controller.ripple_add(a_planes, b_planes, sum_planes, carry_row)
        planes = tuple(sum_planes) + (carry_row,)
        return WordColumns(planes=planes, count=max(a.count, b.count))

    def _extend_planes(
        self,
        words: WordColumns,
        bits: int,
        subarray_key: tuple[int, int, int],
    ) -> list[RowAddress]:
        """Zero-extend a word set to ``bits`` planes."""
        planes = list(words.planes)
        while len(planes) < bits:
            zero = self.allocate_row(subarray_key)
            self.controller.write_row(zero, np.zeros(self.row_bits, dtype=np.uint8))
            planes.append(zero)
        return planes

    # ----- bulk multi-row operations ------------------------------------------------

    def bulk_xnor(self, a_bits: np.ndarray, b_bits: np.ndarray) -> np.ndarray:
        """XNOR of two arbitrary-length bit vectors.

        The vectors are chopped into row-sized stripes, distributed
        round-robin over the device's sub-arrays, and computed with
        ganged AAP commands (one time slot per stripe wave) — the
        micro-benchmark kernel of Fig. 3b.
        """
        a = np.asarray(a_bits, dtype=np.uint8).ravel()
        b = np.asarray(b_bits, dtype=np.uint8).ravel()
        if a.size != b.size:
            raise ValueError("operand lengths differ")
        if a.size == 0:
            raise ValueError("operands must be non-empty")
        width = self.row_bits
        n_rows = -(-a.size // width)  # ceil
        keys = list(self.device.subarray_keys(limit=min(n_rows, 64)))
        out = np.empty(n_rows * width, dtype=np.uint8)

        pending: list[tuple[RowAddress, RowAddress, RowAddress, int]] = []
        for stripe in range(n_rows):
            lo, hi = stripe * width, min((stripe + 1) * width, a.size)
            key = keys[stripe % len(keys)]
            ra = self.store_row(a[lo:hi], key)
            rb = self.store_row(b[lo:hi], key)
            sub = self.device.subarray_at(key)
            x1 = ra.with_row(sub.compute_row(1))
            x2 = ra.with_row(sub.compute_row(2))
            des = ra.with_row(sub.compute_row(3))
            self.controller.copy(ra, x1)
            self.controller.copy(rb, x2)
            pending.append((x1, x2, des, stripe))
            if len(pending) == len(keys) or stripe == n_rows - 1:
                results = self.controller.gang_compute2(
                    [(p[0], p[1], p[2]) for p in pending], SAOp.XNOR2
                )
                for (x1_, x2_, des_, s), res in zip(pending, results):
                    out[s * width : (s + 1) * width] = res
                pending.clear()
        return out[: a.size]

    # ----- checkpointing ---------------------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of the whole platform.

        Captures everything a bit-identical resume needs: geometry and
        timing/energy parameters, every *instantiated* sub-array's bits
        and sense-amplifier latch in store-slot order (untouched
        sub-arrays are all-zero by construction, so laziness survives
        the round trip, and restoring claims the slots in the same
        order, so slot-keyed state — rot positions, the integrity
        engine's ``row_upsets`` — resumes in place), the bump-allocator
        cursors, the stats ledger, and — when attached — the fault
        model's exact RNG stream and the resilience engine's
        event/degradation state.

        Format 2 (columnar storage): sub-array bits travel as their
        stored packed uint64 words (little-endian bytes, key
        ``"words"``), a straight copy out of the device
        :class:`~repro.core.storage.BitPlaneStore` — restoring is the
        inverse copy, so ``from_state(s).state_dict() == s`` exactly.
        Each entry also carries a ``"sha256"`` digest of those word
        bytes: a journal whose resident data rotted (or was tampered
        with) between write and resume, or whose entry lacks the
        digest, fails restore with a typed
        :class:`~repro.errors.JournalError` instead of resuming into a
        wrong answer.
        """
        import base64
        import dataclasses
        import hashlib

        subarrays = []
        for key, sub in self.device.instantiated():
            word_bytes = np.ascontiguousarray(
                sub.store.tensor[sub.slot], dtype="<u8"
            ).tobytes()
            subarrays.append(
                {
                    "key": list(key),
                    "words": base64.b64encode(word_bytes).decode("ascii"),
                    "sha256": hashlib.sha256(word_bytes).hexdigest(),
                    "latch": base64.b64encode(
                        np.packbits(sub.sa._latch)
                    ).decode("ascii"),
                }
            )
        state = {
            "format": 2,
            "geometry": {
                "rows": self.geometry.bank.mat.subarray.rows,
                "cols": self.geometry.bank.mat.subarray.cols,
                "compute_rows": self.geometry.bank.mat.subarray.compute_rows,
                "subarrays_x": self.geometry.bank.mat.subarrays_x,
                "subarrays_y": self.geometry.bank.mat.subarrays_y,
                "mats_x": self.geometry.bank.mats_x,
                "mats_y": self.geometry.bank.mats_y,
                "num_banks": self.geometry.num_banks,
            },
            "timing": dataclasses.asdict(self.controller.timing),
            "energy": dataclasses.asdict(self.controller.energy),
            "next_row": {
                ",".join(map(str, key)): row
                for key, row in self._next_row.items()
            },
            "subarrays": subarrays,
            "stats": self.stats.state_dict(),
            "faults": (
                None
                if self.controller.faults is None
                else self.controller.faults.state_dict()
            ),
            "resilience": (
                None
                if self.controller.resilience is None
                else self.controller.resilience.state_dict()
            ),
            "integrity": (
                None
                if self._integrity is None
                else self._integrity.state_dict()
            ),
        }
        return state

    @classmethod
    def from_state(cls, state: dict) -> "PimAssembler":
        """Rebuild a platform mid-run from :meth:`state_dict`."""
        import hashlib

        from repro.core.faults import FaultModel
        from repro.core.resilience import ResilienceEngine
        from repro.errors import JournalError
        from repro.runtime.checkpoint import (
            decode_b64,
            decode_words,
            require_keys,
        )

        require_keys(
            state,
            (
                "geometry", "timing", "energy", "subarrays", "next_row",
                "stats", "faults", "resilience",
            ),
            "platform state",
        )
        g = state["geometry"]
        geometry = DeviceGeometry(
            bank=BankGeometry(
                mat=MatGeometry(
                    subarray=SubArrayGeometry(
                        rows=g["rows"],
                        cols=g["cols"],
                        compute_rows=g["compute_rows"],
                    ),
                    subarrays_x=g["subarrays_x"],
                    subarrays_y=g["subarrays_y"],
                ),
                mats_x=g["mats_x"],
                mats_y=g["mats_y"],
            ),
            num_banks=g["num_banks"],
        )
        from repro.core.timing import TimingParameters
        from repro.core.energy import EnergyParameters

        pim = cls(
            geometry=geometry,
            timing=TimingParameters(**state["timing"]),
            energy=EnergyParameters(**state["energy"]),
        )
        cols = g["cols"]

        def unpack(payload: str, size: int) -> np.ndarray:
            raw = np.frombuffer(decode_b64(payload, "snapshot bits"), np.uint8)
            return np.unpackbits(raw)[:size]

        for entry in state["subarrays"]:
            key = tuple(entry["key"])
            sub = pim.device.subarray_at(key)
            raw = decode_words(entry["words"], "<u8", f"sub-array {key} words")
            expected = entry.get("sha256")
            if expected is None:
                raise JournalError(f"sub-array {key} words carry no sha256")
            actual = hashlib.sha256(raw).hexdigest()
            if actual != expected:
                raise JournalError(
                    f"sub-array {key} words fail their integrity digest "
                    f"(stored {str(expected)[:12]}…, recomputed "
                    f"{actual[:12]}…) — the snapshot rotted or was "
                    "tampered with; refusing to resume into a corrupt table"
                )
            stored = sub.store.tensor[sub.slot]
            if raw.size != stored.size:
                raise JournalError(
                    f"sub-array {key} holds {raw.size} words, not {stored.size}"
                )
            stored[...] = raw.reshape(stored.shape)
            sub.sa._latch[:] = unpack(entry["latch"], cols)
        pim._next_row = {
            tuple(int(p) for p in key.split(",")): int(row)
            for key, row in state["next_row"].items()
        }
        pim.stats.load_state(state["stats"])
        if state["faults"] is not None:
            pim.controller.faults = FaultModel.from_state(state["faults"])
        if state["resilience"] is not None:
            pim.controller.resilience = ResilienceEngine.from_state(
                state["resilience"], pim.controller
            )
        if state.get("integrity") is not None:
            # reattaching re-enables the SECDED sidecar, which re-encodes
            # every restored slot; window progress and counters resume
            engine = pim.attach_integrity(
                IntegrityConfig.from_state(state["integrity"]["config"])
            )
            engine.load_state(state["integrity"])
            pim.device.store.drain_encoded_rows()  # restore encode is free
        return pim

    # ----- bookkeeping -----------------------------------------------------------------

    def phase(self, name: str):
        """Attribute subsequent commands to a named phase (Fig. 9 stages)."""
        return self.stats.phase(name)

    def reset_stats(self) -> None:
        self.stats.reset()
