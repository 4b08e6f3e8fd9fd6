"""Batched bulk hashmap calls against batches of one read.

One bulk host call may insert many reads, but every read is still
charged its own gang schedule.  These tests run the same reads through
one ``add_sequences`` call and through one call per read and require
the two to be indistinguishable: per-phase ledger (``float.hex`` of
time and energy) and per-mnemonic counts, ``CommandTrace`` charge and
flush records, ``pim.batch.*`` metrics, store words and GRB state
(the platform snapshot), and the counts read back.
"""

import numpy as np
import pytest

import repro.assembly.pipeline as pipeline
from repro.assembly import reference_impl
from repro.assembly.hashmap import PimKmerCounter
from repro.assembly.pipeline import _sized_device, assemble_with_pim
from repro.core import FaultModel, PimAssembler
from repro.core.trace import CommandTrace
from repro.errors import TableFullError
from repro.genome import ReadSimulator, synthetic_chromosome
from repro.genome.sequence import DnaSequence
from repro.observability.metrics import MetricsRegistry
from repro.runtime.watchdog import Watchdog


def random_reads(seed, n_reads, length):
    rng = np.random.default_rng(seed)
    return [
        DnaSequence("".join(rng.choice(list("ACGT"), size=length)))
        for _ in range(n_reads)
    ]


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


def observe(pim, work):
    """Run ``work()`` with a trace and a registry attached; fingerprint it."""
    trace = CommandTrace()
    pim.controller.attach_trace(trace)
    registry = MetricsRegistry()
    error = None
    with registry.activate():
        try:
            result = work()
        except TableFullError as exc:
            error, result = str(exc), None
    batch_metrics = {
        name: value
        for name, value in registry.snapshot().items()
        if name.startswith("pim.batch.")
    }
    return {
        "error": error,
        "result": result,
        "ledger": ledger(pim),
        "charges": trace.charges,
        "flushes": trace.flushes,
        "entries": [(e.mnemonic, e.subarray, e.rows) for e in trace],
        "metrics": batch_metrics,
        "state": pim.state_dict(),
    }


def run_counter(reads, k, batched, setup=None, subarrays=32):
    # two MATs: the per-MAT GRB and DPU are shared by several partitions
    pim = PimAssembler.small(subarrays=subarrays, rows=128, cols=64, mats=2)
    if setup is not None:
        setup(pim)
    counter = PimKmerCounter(pim, k, engine="bulk")

    def work():
        if batched:
            counter.add_sequences(reads)
        else:
            for read in reads:
                counter.add_sequences([read])
        return dict(zip(*counter.counts())), counter.occupancy

    return observe(pim, work)


def slot_shadow(counter):
    """(partition, slot) -> packed k-mer, read off the host index."""
    keys, parts, slots = counter._slot_order()
    return {
        (int(p), int(s)): int(key) for key, p, s in zip(keys, parts, slots)
    }


def assert_same(batched, single):
    assert batched.keys() == single.keys()
    for name in batched:
        assert batched[name] == single[name], name


def per_read_flushes(reads, k):
    return sum(1 for read in reads if len(read) >= k)


class TestCounterBatching:
    @pytest.mark.parametrize("k", [16, 22, 32])
    def test_batch_matches_batches_of_one(self, k):
        reads = random_reads(k, n_reads=12, length=70)
        # repeats: keys a batch inserts and then hits
        reads = reads + reads[:5]
        batched = run_counter(reads, k, batched=True)
        assert_same(batched, run_counter(reads, k, batched=False))
        assert len(batched["flushes"]) == per_read_flushes(reads, k)

    def test_read_shorter_than_k_inside_a_batch(self):
        reads = random_reads(3, n_reads=6, length=50)
        reads.insert(3, DnaSequence("ACGTACGTAC"))
        reads.insert(0, DnaSequence("GATTACA"))
        batched = run_counter(reads, 16, batched=True)
        assert_same(batched, run_counter(reads, 16, batched=False))
        assert len(batched["flushes"]) == per_read_flushes(reads, 16)

    def test_key_inserted_then_hit_within_a_batch(self):
        (read,) = random_reads(4, n_reads=1, length=60)
        reads = [read, read, read]
        batched = run_counter(reads, 22, batched=True)
        assert_same(batched, run_counter(reads, 22, batched=False))
        counts, _ = batched["result"]
        assert set(counts.values()) == {3}

    def test_counter_saturation_inside_a_batch(self):
        poly = DnaSequence("A" * 150)  # 135 arrivals of one 16-mer
        reads = [poly, *random_reads(5, n_reads=3, length=40), poly]
        batched = run_counter(reads, 16, batched=True)
        assert_same(batched, run_counter(reads, 16, batched=False))
        counts, _ = batched["result"]
        assert max(counts.values()) == 255  # the 8-bit field's maximum

    def test_overflowing_batch_fails_at_the_same_arrival(self):
        reads = random_reads(6, n_reads=30, length=60)
        batched = run_counter(reads, 16, batched=True, subarrays=4)
        single = run_counter(reads, 16, batched=False, subarrays=4)
        assert batched["error"] is not None
        assert_same(batched, single)

    def test_live_fault_rates(self):
        def faulty(pim):
            pim.controller.faults = FaultModel(
                compute2_rate=0.01, copy_rate=0.005, seed=11
            )

        reads = random_reads(7, n_reads=6, length=50)
        batched = run_counter(reads, 16, batched=True, setup=faulty)
        single = run_counter(reads, 16, batched=False, setup=faulty)
        assert_same(batched, single)
        assert batched["state"]["faults"] == single["state"]["faults"]

    def test_verifying_resilience_engine(self):
        reads = random_reads(8, n_reads=8, length=60)
        reads = reads + reads[:3]
        protect = lambda pim: pim.protect("detect-retry-remap")  # noqa: E731
        batched = run_counter(reads, 22, batched=True, setup=protect)
        assert_same(batched, run_counter(reads, 22, batched=False, setup=protect))
        assert batched["ledger"][None][2]["VRF_AAP"] > 0


def test_vector_readback_matches_per_row_reads():
    """counts() charges, traces and leaves the GRBs as row reads did."""
    reads = random_reads(9, n_reads=10, length=60)

    def run(vector):
        pim = PimAssembler.small(subarrays=32, rows=128, cols=64, mats=2)
        counter = PimKmerCounter(pim, 16, engine="bulk")
        counter.add_sequences(reads)

        def work():
            if vector:
                return dict(zip(*counter.counts()))
            shadow = slot_shadow(counter)
            return {
                shadow[index, slot]: counter._read_counter(index, slot)
                for index in range(counter.partitions)
                for slot in range(counter.occupancy[index])
            }

        return observe(pim, work)

    vector = run(True)
    assert_same(vector, run(False))
    # one traced MEM_RD per stored k-mer
    assert len(vector["entries"]) == len(vector["result"])


class TestPipelineBatching:
    K = 22

    @pytest.fixture(scope="class")
    def reads(self):
        genome = synthetic_chromosome(1500, seed=1)
        simulator = ReadSimulator(read_length=101, seed=2)
        return simulator.sample(genome, simulator.reads_for_coverage(1500, 10))

    def assemble(self, reads, meter=None):
        pim = _sized_device(reads, self.K)

        def work():
            if meter is None:
                result = assemble_with_pim(reads, k=self.K, pim=pim, engine="bulk")
            else:
                with meter.active():
                    result = assemble_with_pim(
                        reads, k=self.K, pim=pim, engine="bulk"
                    )
            return sorted(str(contig.sequence) for contig in result.contigs)

        return observe(pim, work)

    def test_pipeline_matches_batches_of_one(self, reads, monkeypatch):
        calls = []
        raw = PimKmerCounter.add_sequences

        def counted(counter, sequences):
            calls.append(len(sequences))
            return raw(counter, sequences)

        monkeypatch.setattr(PimKmerCounter, "add_sequences", counted)
        batched = self.assemble(reads)
        assert len(calls) < len(reads)  # batches of many reads
        monkeypatch.setattr(pipeline, "BATCH_KMERS", 1)
        calls.clear()
        single = self.assemble(reads)
        assert calls == [1] * len(reads)
        assert_same(batched, single)
        # the simulated totals of the engine that made one host call per
        # read, bit for bit
        assert batched["ledger"][None][:2] == (
            "0x1.4670fbffffffep+22",
            "0x1.81e6051eb8753p+15",
        )
        reference = reference_impl.assemble(reads, self.K).contigs
        assert batched["result"] == sorted(str(c.sequence) for c in reference)

    def test_watchdog_ticks_twice_per_read(self, reads, monkeypatch):
        meter = Watchdog()
        self.assemble(reads, meter)
        # two hashmap ticks per read, plus the degree and traversal
        # stages' own cancellation points
        assert meter.ticks == 391
        monkeypatch.setattr(pipeline, "BATCH_KMERS", 1)
        single = Watchdog()
        self.assemble(reads, single)
        assert single.ticks == meter.ticks
