"""The vectorised k-mer table scrub against a row-by-row reference.

``PimKmerCounter.scrub`` compares every occupied row with one gather
and one whole-word compare, then accounts one parity check per row in
partition/slot order, repairing (or recording) a drifted row right
after its check.  :func:`reference_scrub` is the row-by-row loop it
replaced; both run on identical tables and must be indistinguishable:
the ``(checked, repaired)`` return, per-phase ledger (``float.hex`` of
time and energy) and per-mnemonic counts, ``ResilienceCounts``, the
``IntegrityCounts``, the ``CommandTrace`` entries between the
scrub marks, and the platform snapshot (store words, GRBs, resilience
state).
"""

import numpy as np
import pytest

from repro.assembly.hashmap import PimKmerCounter
from repro.core import PimAssembler
from repro.core.integrity import IntegrityConfig
from repro.core.isa import RowAddress
from repro.core.trace import CommandTrace
from repro.genome.kmer import kmer_to_row_bits, unpack_kmer
from repro.genome.sequence import DnaSequence


def reference_scrub(counter):
    """Row-by-row scrub: read, compare and charge one slot at a time."""
    pim = counter.pim
    ctrl = pim.controller
    engine = ctrl.resilience
    checked = repaired = 0
    keys, parts, slots = counter._slot_order()
    shadow = {
        (int(p), int(s)): int(packed) for packed, p, s in zip(keys, parts, slots)
    }
    ctrl.mark("scrub:begin")
    for index, key in enumerate(counter._keys):
        for slot in range(counter.occupancy[index]):
            row = counter.layout.kmer_row(slot)
            addr = RowAddress(*key, row=row)
            expected = kmer_to_row_bits(
                unpack_kmer(shadow[index, slot], counter.k),
                pim.row_bits,
            )
            checked += 1
            stored = pim.device.subarray_at(key).read_row(row)
            ctrl._charge_verify()
            if np.array_equal(stored, expected):
                continue
            if engine is not None:
                engine.note_detected()
            if engine is None or engine.policy.retry:
                ctrl.write_row(addr, expected)
                repaired += 1
                if engine is not None:
                    engine.note_corrected()
            else:
                engine.note_uncorrected(key, row)
    ctrl.mark("scrub:end")
    if engine is not None:
        engine.note_scrub(checked, repaired)
    return checked, repaired


def random_reads(seed, n_reads, length):
    rng = np.random.default_rng(seed)
    return [
        DnaSequence("".join(rng.choice(list("ACGT"), size=length)))
        for _ in range(n_reads)
    ]


def build(engine, policy, k, n_reads, drift, ecc, subarrays=16):
    """A filled table with one bit flipped in each ``drift`` row.

    ``drift`` names ``(partition rank, "first" | "last")`` pairs, the
    rank counting occupied partitions only.
    """
    pim = PimAssembler.small(subarrays=subarrays, rows=128, cols=64, mats=2)
    if ecc:
        pim.attach_integrity(IntegrityConfig(ecc="secded"))
    if policy is not None:
        pim.protect(policy)
    counter = PimKmerCounter(pim, k, engine=engine)
    counter.add_sequences(random_reads(k, n_reads, length=k + 12))
    occupied = np.flatnonzero(counter.occupancy)
    for rank, which in drift:
        p = int(occupied[rank])
        slot = 0 if which == "first" else counter.occupancy[p] - 1
        sub = pim.device.subarray_at(counter._keys[p])
        row = counter.layout.kmer_row(slot)
        bits = sub.read_row(row)
        bits[rank % pim.row_bits] ^= 1
        sub.write_row(row, bits)
    return pim, counter


def ledger(pim):
    stats = pim.stats
    out = {}
    for phase in [None, *stats.phases()]:
        totals = stats.totals(phase)
        out[phase] = (
            float(totals.time_ns).hex(),
            float(totals.energy_nj).hex(),
            dict(totals.commands),
        )
    return out


def observe(scrub, **scenario):
    pim, counter = build(**scenario)
    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    with pim.phase("scrub"):
        result = scrub(counter)
    (begin, _), (end, _) = trace.marks
    return {
        "result": result,
        "occupied": sum(counter.occupancy),
        "ledger": ledger(pim),
        "resilience": (
            None if pim.resilience is None else pim.resilience.counts()
        ),
        "integrity": (
            None if pim.integrity is None else pim.integrity.counts()
        ),
        "marks": [label for _, label in trace.marks],
        "entries": [
            (e.mnemonic, e.subarray, e.rows, e.payload)
            for e in list(trace)[begin:end]
        ],
        "state": pim.state_dict(),
    }


def assert_same(**scenario):
    vector = observe(PimKmerCounter.scrub, **scenario)
    reference = observe(reference_scrub, **scenario)
    assert vector.keys() == reference.keys()
    for name in vector:
        assert vector[name] == reference[name], name
    return vector


DRIFT = [(0, "first"), (1, "last"), (2, "first"), (2, "last"), (-1, "last")]


@pytest.mark.parametrize("engine", ["scalar", "bulk"])
@pytest.mark.parametrize("policy", ["detect", "detect-retry-remap"])
def test_drift_matches_reference(engine, policy):
    out = assert_same(
        engine=engine, policy=policy, k=22, n_reads=12, drift=DRIFT, ecc=False
    )
    checked, repaired = out["result"]
    assert checked == out["occupied"]
    drifted = len(DRIFT)
    counts = out["resilience"]
    assert counts.detected == drifted
    if policy == "detect":
        assert repaired == 0 and counts.uncorrected == drifted
        assert out["entries"] == []
    else:
        assert repaired == drifted and counts.corrected == drifted
        assert [e[0] for e in out["entries"]] == ["MEM_WR"] * drifted


@pytest.mark.parametrize("k", [16, 22, 32])
def test_k_widths(k):
    out = assert_same(
        engine="bulk",
        policy="detect-retry-remap",
        k=k,
        n_reads=6,
        drift=[(0, "last"), (1, "first")],
        ecc=False,
    )
    assert out["result"][1] == 2


def test_drift_under_ecc_is_tallied_once():
    """Under SECDED the table scrub is tallied by the resilience engine
    alone; the integrity counts carry only ECC work."""
    out = assert_same(
        engine="bulk",
        policy="detect-retry-remap",
        k=22,
        n_reads=8,
        drift=DRIFT,
        ecc=True,
    )
    counts = out["resilience"]
    assert (counts.scrubbed_rows, counts.scrub_repairs) == out["result"]
    assert out["result"][1] == len(DRIFT)
    assert out["integrity"].rows_scrubbed == 0  # no ECC_CHK of its own


def test_clean_table_with_empty_partitions():
    # one read's 13 k-mers over sixteen partitions leave several empty
    out = assert_same(
        engine="bulk", policy="detect", k=22, n_reads=1, drift=[], ecc=False
    )
    assert out["result"][1] == 0
    assert 0 < out["resilience"].scrubbed_rows == out["result"][0] < 16


def test_empty_table():
    out = assert_same(
        engine="bulk", policy="detect", k=22, n_reads=0, drift=[], ecc=True
    )
    assert out["result"] == (0, 0)
    assert out["marks"] == ["scrub:begin", "scrub:end"]


def test_without_an_engine_every_drift_is_repaired():
    out = assert_same(
        engine="scalar", policy=None, k=22, n_reads=6, drift=DRIFT[:3], ecc=False
    )
    assert out["result"][1] == 3
