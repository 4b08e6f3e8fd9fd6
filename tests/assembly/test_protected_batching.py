"""The protected bulk hashmap at full batch size.

A counter with rot checkpoints stores a run of reads in one bulk pass
and cuts it only after a read at which a retention window closes.
The contract is today's per-read loop, written here as the oracle
through public calls on a counter without rot checkpoints:
``add_sequences([s]); pim.integrity_sync()`` per read.  Every observable must match bit for bit: the ledger per phase
and mnemonic (``float.hex``), the integrity counters, the store words
and ECC code bytes, the resilience totals, the power bins and the
flight rings.
"""

import numpy as np
import pytest

from repro.assembly.hashmap import PimKmerCounter
from repro.core import PimAssembler
from repro.core.faults import FaultModel
from repro.core.integrity import IntegrityConfig
from repro.core.stats import StatsLedger
from repro.errors import TableFullError
from repro.genome.sequence import DnaSequence
from repro.observability.flightrec import FlightRecorder
from repro.observability.session import ObservabilitySession

K = 9


def genome_reads(seed=7, genome_bp=400, n_reads=40, short=True):
    """Reads of 4..49 bases cut from one genome (so k-mers recur);
    some are shorter than k, at the start, inside and at the end."""
    rng = np.random.default_rng(seed)
    genome = "".join(rng.choice(list("ACGT"), size=genome_bp))
    reads = []
    for n in rng.integers(4, 50, size=n_reads).tolist():
        at = int(rng.integers(0, genome_bp - n))
        reads.append(DnaSequence(genome[at : at + n]))
    if short:
        reads = [DnaSequence("ACG")] + reads + [DnaSequence("TT"), DnaSequence("C")]
    return reads


def random_reads(seed, n_reads, length):
    rng = np.random.default_rng(seed)
    return [
        DnaSequence("".join(rng.choice(list("ACGT"), size=length)))
        for _ in range(n_reads)
    ]


class Run:
    """One platform + counter + session, built the same way per arm."""

    def __init__(
        self,
        ecc="secded",
        interval=3e-5,
        upsets=2e-3,
        policy=None,
        engine="bulk",
        rows=64,
        faults=None,
        synced=False,
    ):
        self.session = ObservabilitySession()
        # deep rings, so the whole command stream is compared
        self.session.flight = FlightRecorder(command_capacity=1 << 16)
        self.session.tracer.listener = self.session.flight
        with self.session.activate():
            self.pim = PimAssembler.small(subarrays=16, rows=rows, mats=2)
        if faults is not None:
            self.pim.controller.faults = faults
        if policy is not None:
            self.pim.protect(policy)
        self.pim.attach_integrity(
            IntegrityConfig(
                ecc=ecc,
                retention_interval_s=interval,
                seed=3,
                upset_probability=upsets,
            )
        )
        self.counter = PimKmerCounter(
            self.pim, K, engine=engine, rot_checkpoints=synced
        )

    def per_read(self, reads):
        """The oracle: one read, one rot checkpoint."""
        with self.session.activate(), self.pim.phase("hashmap"):
            for read in reads:
                self.counter.add_sequences([read])
                self.pim.integrity_sync()

    def batched(self, *batches):
        with self.session.activate(), self.pim.phase("hashmap"):
            for batch in batches:
                self.counter.add_sequences(batch)

    def observed(self) -> dict:
        pim, session = self.pim, self.session
        store = pim.device.store
        n = store.n_slots
        flight = session.flight.snapshot("compare")
        for span in flight["spans"]:
            span.pop("wall_us")
        return hexed(
            {
                "ledger": pim.stats.state_dict(),
                "integrity": pim.integrity.state_dict(),
                "words": store.tensor[:n].tobytes(),
                "ecc": store.ecc_plane[:n].tobytes() if store.ecc_enabled else None,
                "pending_encodes": store.drain_encoded_rows(),
                "resilience": (
                    None if pim.resilience is None else pim.resilience.state_dict()
                ),
                "power": {
                    lane: session.power.series(lane)
                    for lane in [None] + session.power.lanes()
                },
                "power_summary": session.power.summary(),
                "flight": flight,
                "table": self.counter.state_dict(),
                "counts": [a.tolist() for a in self.counter.counts()],
            }
        )


def hexed(value):
    """Floats as ``float.hex``, recursively, so equality is bit equality."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def assert_same(oracle: Run, batched: Run):
    want, got = oracle.observed(), batched.observed()
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key


@pytest.mark.parametrize("ecc", ["secded", "off"])
@pytest.mark.parametrize("policy", [None, "detect-retry-remap"])
@pytest.mark.parametrize("interval", [3e-5, 3e-6])
def test_batched_matches_per_read(ecc, policy, interval):
    reads = genome_reads()
    oracle = Run(ecc=ecc, interval=interval, policy=policy)
    oracle.per_read(reads)
    batched = Run(ecc=ecc, interval=interval, policy=policy, synced=True)
    batched.batched(reads)
    assert_same(oracle, batched)
    counts = oracle.pim.integrity.counts()
    # the upset rate reaches both repair outcomes
    if ecc == "secded":
        assert counts.words_corrected and counts.words_uncorrectable
    # windows close mid-batch; at 3e-6 s some reads close several
    assert counts.windows > (len(reads) if interval < 1e-5 else 3)


def test_window_closing_on_a_batch_last_read():
    """Batches that end exactly at window-closing reads."""
    reads = genome_reads(seed=11)
    oracle = Run()
    closing = []
    with oracle.session.activate(), oracle.pim.phase("hashmap"):
        for i, read in enumerate(reads):
            before = oracle.pim.integrity.counts().windows
            oracle.counter.add_sequences([read])
            oracle.pim.integrity_sync()
            if oracle.pim.integrity.counts().windows > before:
                closing.append(i)
    assert len(closing) > 5
    cuts = [0] + [i + 1 for i in closing] + [len(reads)]
    batched = Run(synced=True)
    batched.batched(*[reads[a:b] for a, b in zip(cuts, cuts[1:]) if b > a])
    assert_same(oracle, batched)


def test_rows_written_before_drain_at_the_first_checkpoint():
    """Re-encodes left by an unsynced call drain with the first read's."""
    reads = genome_reads(seed=3)
    oracle, batched = Run(), Run(synced=True)
    for run in (oracle, batched):
        with run.session.activate(), run.pim.phase("hashmap"):
            checkpoints = run.counter.rot_checkpoints
            run.counter.rot_checkpoints = False
            run.counter.add_sequences(reads[1:4])
            run.counter.rot_checkpoints = checkpoints
    oracle.per_read(reads[4:])
    batched.batched(reads[4:])
    assert_same(oracle, batched)


def test_scalar_engine_ledger_unchanged():
    reads = genome_reads(n_reads=12)
    oracle = Run(engine="scalar", policy="detect-retry-remap")
    oracle.per_read(reads)
    batched = Run(engine="scalar", policy="detect-retry-remap", synced=True)
    batched.batched(reads)
    assert_same(oracle, batched)


def test_live_compare_faults_replay_per_read():
    """Live scan faults replay the scalar path, a sync after each read."""
    reads = genome_reads(n_reads=20)

    def run(synced):
        faults = FaultModel(seed=42, compute2_rate=2e-3)
        return Run(policy="detect-retry-remap", faults=faults, synced=synced)

    oracle = run(False)
    oracle.per_read(reads)
    batched = run(True)
    batched.batched(reads)
    assert_same(oracle, batched)


def test_table_full_mid_batch():
    """The error fires at the same arrival, with the same partial state."""
    reads = random_reads(5, n_reads=40, length=30)
    oracle = Run(rows=40)
    with pytest.raises(TableFullError) as want:
        oracle.per_read(reads)
    batched = Run(rows=40, synced=True)
    with pytest.raises(TableFullError) as got:
        batched.batched(reads)
    assert str(got.value) == str(want.value)
    # the table filled after some reads were already in
    assert len(oracle.counter) > 100
    assert_same(oracle, batched)


def test_batch_is_cut_only_where_a_window_closes(monkeypatch):
    """One ledger stream per stored run of reads, not one per read."""
    reads = genome_reads(n_reads=60, short=False)
    run = Run(interval=1e-4, synced=True)
    streams = []
    record_batch = StatsLedger.record_batch

    def counting(self, *args):
        streams.append(args)
        return record_batch(self, *args)

    monkeypatch.setattr(StatsLedger, "record_batch", counting)
    run.batched(reads)
    windows = run.pim.integrity.counts().windows
    assert 0 < windows < 10
    assert len(streams) <= windows + 1
