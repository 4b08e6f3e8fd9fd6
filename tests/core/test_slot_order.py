"""Store-slot order survives a platform snapshot.

The device claims a store slot for each sub-array on its first touch,
and slot-keyed state follows that numbering: retention rot draws its
positions over the store's slots, and the integrity engine counts
corrected upsets per ``(slot, row)``.  A snapshot must therefore
restore every sub-array into the slot it held, or a resumed run rots
different sub-arrays than the run that was never interrupted.  The
first touches below interleave two MATs, so slot order differs from
nested bank/MAT/sub-array order.
"""

import numpy as np
import pytest

from repro.core.integrity import IntegrityConfig
from repro.core.isa import RowAddress
from repro.core.platform import PimAssembler

#: interleaved first touches: MAT 1 is touched between MAT 0's two
FIRST_TOUCHES = [(0, 0, 0), (0, 1, 0), (0, 0, 1)]


def _platform(ecc: str) -> PimAssembler:
    pim = PimAssembler.small(subarrays=4, mats=2)
    pim.attach_integrity(
        IntegrityConfig(
            ecc=ecc,
            retention_interval_s=1e-6,
            upset_probability=0.01,
            seed=5,
        )
    )
    rng = np.random.default_rng(1)
    for key in FIRST_TOUCHES:
        pim.store_row(rng.integers(0, 2, pim.row_bits, dtype=np.uint8), key)
    return pim


def _continue(pim: PimAssembler) -> None:
    """400 more host writes over the touched sub-arrays, then a sync."""
    rng = np.random.default_rng(2)
    data_rows = pim.geometry.bank.mat.subarray.data_rows
    for _ in range(400):
        key = FIRST_TOUCHES[int(rng.integers(len(FIRST_TOUCHES)))]
        row = int(rng.integers(data_rows))
        bits = rng.integers(0, 2, pim.row_bits, dtype=np.uint8)
        pim.controller.write_row(RowAddress(*key, row=row), bits)
    pim.integrity_sync()


def _words_by_key(pim: PimAssembler) -> dict:
    return {key: sub.snapshot() for key, sub in pim.device.instantiated()}


def _upsets_by_key(pim: PimAssembler) -> dict:
    keys = pim.device.slot_keys()
    return {
        (keys[slot], row): count
        for slot, row, count in pim.integrity.state_dict()["row_upsets"]
    }


@pytest.mark.parametrize("ecc", ["off", "secded"])
def test_restore_keeps_slot_numbering_and_rot(ecc):
    uninterrupted = _platform(ecc)
    restored = PimAssembler.from_state(_platform(ecc).state_dict())
    assert restored.device.slot_keys() == FIRST_TOUCHES
    assert uninterrupted.device.slot_keys() == FIRST_TOUCHES

    _continue(uninterrupted)
    _continue(restored)
    assert uninterrupted.integrity.counts().flips_injected > 0
    expected = _words_by_key(uninterrupted)
    actual = _words_by_key(restored)
    assert expected.keys() == actual.keys()
    for key, words in expected.items():
        assert (actual[key] == words).all(), f"sub-array {key} diverged"
    assert _upsets_by_key(restored) == _upsets_by_key(uninterrupted)
    if ecc == "secded":
        assert _upsets_by_key(uninterrupted)
