"""Batch-native accounting in the controller's vectorised kernels.

``Controller.scrub_rows`` sends one ordered record stream per call,
split only where a drifted row's repair must keep its place; the
readback, the scrub and a bulk hashmap batch each make a fixed number
of ledger and telemetry calls however large the table is.
"""

import numpy as np
import pytest

from repro.assembly.hashmap import PimKmerCounter
from repro.assembly.pipeline import _sized_device
from repro.core.controller import Controller
from repro.core.stats import StatsLedger
from repro.genome import ReadSimulator, synthetic_chromosome
from repro.observability.session import ObservabilitySession

K = 11


def make_reads(length, seed=3):
    genome = synthetic_chromosome(length, seed=seed)
    sim = ReadSimulator(read_length=60, seed=seed + 1)
    return sim.sample(genome, sim.reads_for_coverage(length, 6.0))


class Stream:
    """Recorder keeping every record, batches expanded in order."""

    def __init__(self):
        self.records = []

    def on_command(self, command, count, time_ns, energy_nj, phase):
        self.records.append(
            (command, count, time_ns.hex(), energy_nj.hex(), phase)
        )

    def on_batch(self, names, codes, counts, time_ns, energy_nj, phase):
        for code, count, t, e in zip(
            codes.tolist(),
            counts.tolist(),
            time_ns.tolist(),
            energy_nj.tolist(),
        ):
            self.on_command(names[code], count, t, e, phase)


def per_row_scrub_rows(self, keys, key_index, rows, words, on_drift=None):
    """The row-by-row scrub ``scrub_rows`` replaces."""
    intact = []
    for i, (j, row) in enumerate(zip(key_index.tolist(), rows.tolist())):
        slot = self.device.subarray_at(keys[j]).slot
        ok = bool((self.device.store.tensor[slot, row] == words[i]).all())
        self._charge_verify()
        if not ok and on_drift is not None:
            on_drift(i)
        intact.append(ok)
    return np.array(intact)


class TestScrubStream:
    @pytest.mark.parametrize("policy", ["detect-retry-remap", "detect", None])
    def test_drift_at_first_middle_and_last_row(self, policy, monkeypatch):
        reads = make_reads(400)
        runs = []
        for batched in (True, False):
            if not batched:
                monkeypatch.setattr(
                    Controller, "scrub_rows", per_row_scrub_rows
                )
            pim = _sized_device(reads, K)
            if policy:
                pim.protect(policy)
            counter = PimKmerCounter(pim, K, engine="bulk")
            counter.add_reads(reads)
            _, parts, slots = counter._slot_order()
            rows = counter.layout.kmer_row(0) + slots
            drifted = [0, len(rows) // 2, len(rows) - 1]
            for i in drifted:
                sub = pim.device.subarray_at(counter._keys[int(parts[i])])
                bits = sub.read_row(int(rows[i])).copy()
                bits[1] ^= 1
                sub.write_row(int(rows[i]), bits)
            stream = Stream()
            pim.stats.attach_recorder(stream)
            with pim.stats.phase("scrub"):
                checked, repaired = counter.scrub()
            engine = pim.resilience
            runs.append(
                (
                    stream.records,
                    pim.state_dict(),
                    None if engine is None else engine.state_dict(),
                    (checked, repaired),
                )
            )
        assert runs[0] == runs[1]
        records, _, _, (checked, repaired) = runs[0]
        assert checked == len(rows)
        # each repair write follows its row's VRF_AAP, VRF_DPU pair
        writes = [n for n, rec in enumerate(records) if rec[0] == "MEM_WR"]
        assert repaired == len(writes) == (0 if policy == "detect" else 3)
        places = [2 * (i + 1) + n for n, i in enumerate(drifted)]
        assert writes == places[: len(writes)]


def counted_calls(monkeypatch):
    """Count ledger and telemetry entry-point calls."""
    calls = {"ledger": 0, "session": 0}

    def counting(owner, name, kind):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    for name in ("record", "record_batch"):
        counting(StatsLedger, name, "ledger")
    for name in ("on_command", "on_batch"):
        counting(ObservabilitySession, name, "session")
    return calls


def call_counts(length, monkeypatch):
    """Ledger/telemetry calls of one bulk batch, a scrub and a readback."""
    reads = make_reads(length)
    half = len(reads) // 2
    session = ObservabilitySession()
    with session.activate():
        pim = _sized_device(reads, K)
        pim.protect("detect-retry-remap")
        counter = PimKmerCounter(pim, K, engine="bulk")
        counter.add_reads(reads[:half])
        calls = counted_calls(monkeypatch)
        seen = {}
        for step, run in (
            ("add_sequences", lambda: counter.add_reads(reads[half:])),
            ("scrub", counter.scrub),
            ("counts", counter.counts),
        ):
            before = dict(calls)
            run()
            seen[step] = {k: calls[k] - before[k] for k in calls}
        monkeypatch.undo()
    return len(counter), seen


def test_call_counts_do_not_grow_with_the_table(monkeypatch):
    """One stream per kernel call: the number of ledger and telemetry
    calls is the same at two table sizes (a per-k-mer or per-row
    record would make it grow with the table)."""
    small_table, small = call_counts(300, monkeypatch)
    large_table, large = call_counts(1200, monkeypatch)
    assert large_table > 3 * small_table
    assert small == large
    assert small == {
        step: {"ledger": 1, "session": 1}
        for step in ("add_sequences", "scrub", "counts")
    }
