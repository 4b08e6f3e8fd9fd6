"""Data-at-rest integrity: SECDED codec, rot injector, scrub engine.

The acceptance property at the bottom is the headline claim of the
subsystem: at a rot rate where the ECC-off ablation provably corrupts
the assembled contigs, running with SECDED + scrub produces contigs,
stored rows and resilience state bit-identical to a zero-fault run —
on both execution engines — with every repair charged through the
ledger.
"""

import itertools

import numpy as np
import pytest

from repro.core.energy import EnergyParameters
from repro.core.integrity import (
    IntegrityConfig,
    IntegrityCounts,
    IntegrityEngine,
    _correct_word,
    _encode_word,
    encode_secded,
    scrub_planes,
)
from repro.core.resilience import ResilienceEngine
from repro.core.stats import StatsLedger
from repro.core.storage import BitPlaneStore
from repro.core.timing import TimingParameters
from repro.errors import FaultConfigError


def _random_words(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**64, size=n, dtype=np.uint64)


class TestCodec:
    """SECDED(72,64): the vectorised codec against exhaustive flips."""

    def test_vector_encoder_matches_scalar_reference(self):
        words = _random_words(512, seed=1)
        vec = encode_secded(words)
        ref = np.array([_encode_word(int(w)) for w in words], dtype=np.uint8)
        assert np.array_equal(vec, ref)

    def test_clean_planes_scrub_clean(self):
        words = _random_words(256, seed=2).reshape(4, 8, 8)
        code = encode_secded(words)
        before = words.copy()
        corrected, uncorrectable = scrub_planes(words, code)
        assert not corrected.any()
        assert not uncorrectable.any()
        assert np.array_equal(words, before)

    def test_every_single_data_bit_is_corrected(self):
        base = _random_words(1, seed=3)[0]
        words = np.full(64, base, dtype=np.uint64)
        words ^= np.uint64(1) << np.arange(64, dtype=np.uint64)
        code = encode_secded(np.full(64, base, dtype=np.uint64))
        corrected, uncorrectable = scrub_planes(words, code)
        assert corrected.all()
        assert not uncorrectable.any()
        assert (words == base).all()

    def test_every_single_code_bit_is_corrected(self):
        base = _random_words(1, seed=4)[0]
        words = np.full(8, base, dtype=np.uint64)
        clean = encode_secded(words)
        code = clean ^ (np.uint8(1) << np.arange(8, dtype=np.uint8))
        corrected, uncorrectable = scrub_planes(words, code)
        assert corrected.all()
        assert not uncorrectable.any()
        assert (words == base).all()
        assert np.array_equal(code, clean)  # byte re-encoded back

    def test_all_double_bit_flips_are_detected(self):
        """Every C(72,2) pair of stored-bit flips is uncorrectable —
        and never miscorrected into a third, wrong word."""
        base = _random_words(1, seed=5)[0]
        pairs = list(itertools.combinations(range(72), 2))  # 2556
        words = np.full(len(pairs), base, dtype=np.uint64)
        code = encode_secded(words)
        clean_code = code.copy()
        for i, (a, b) in enumerate(pairs):
            for pos in (a, b):
                if pos < 64:
                    words[i] ^= np.uint64(1) << np.uint64(pos)
                else:
                    code[i] ^= np.uint8(1) << np.uint8(pos - 64)
        flipped = words.copy()
        corrected, uncorrectable = scrub_planes(words, code)
        assert uncorrectable.all()
        assert not corrected.any()
        # the data stays as found (no miscorrection) and the code byte
        # is re-encoded so the loss books exactly once
        assert np.array_equal(words, flipped)
        again_c, again_u = scrub_planes(words, code)
        assert not again_c.any()
        assert not again_u.any()
        # double-data flips cancel only if both hit the same bit, which
        # combinations() excludes — so no pair silently restored base
        double_data = [i for i, (a, b) in enumerate(pairs) if b < 64]
        assert all(flipped[i] != base for i in double_data)
        del clean_code

    def test_scalar_reference_decoder_kinds(self):
        base = int(_random_words(1, seed=6)[0])
        code = _encode_word(base)
        assert _correct_word(base, code) == (base, code, "clean")
        for bit in range(64):
            w, c, kind = _correct_word(base ^ (1 << bit), code)
            assert (w, c, kind) == (base, code, "data")
        for bit in range(8):
            w, c, kind = _correct_word(base, code ^ (1 << bit))
            assert (w, kind) == (base, "code")
        _, _, kind = _correct_word(base ^ 0b11, code)
        assert kind == "double"


class TestConfig:
    def test_validation(self):
        with pytest.raises(FaultConfigError):
            IntegrityConfig(ecc="parity")
        with pytest.raises(FaultConfigError):
            IntegrityConfig(retention_interval_s=0.0)
        with pytest.raises(FaultConfigError):
            IntegrityConfig(upset_probability=1.5)
        with pytest.raises(FaultConfigError):
            IntegrityConfig(weak_row_threshold=0)

    def test_state_round_trip(self):
        config = IntegrityConfig(
            ecc="off",
            retention_interval_s=2e-3,
            seed=77,
            upset_probability=1e-6,
            weak_row_threshold=3,
        )
        back = IntegrityConfig.from_state(config.state_dict())
        assert back == config
        assert back.per_window_probability == 1e-6

    def test_model_supplies_probability_when_no_override(self):
        config = IntegrityConfig(retention_interval_s=0.064)
        assert config.per_window_probability == (
            config.model.upset_probability_per_window(0.064)
        )


def _bench(
    rows: int = 16,
    cols: int = 64,
    slots: int = 2,
    ecc: str = "secded",
    probability: float = 0.0,
    interval: float = 1e-5,
    seed: int = 11,
    threshold: int = 8,
    resilience: "ResilienceEngine | None" = None,
):
    """A store + engine harness wired straight at the module APIs."""
    store = BitPlaneStore(rows, cols)
    for _ in range(slots):
        store.new_slot("test")
    stats = StatsLedger()
    engine = IntegrityEngine(
        IntegrityConfig(
            ecc=ecc,
            retention_interval_s=interval,
            seed=seed,
            upset_probability=probability,
            weak_row_threshold=threshold,
        ),
        store,
        stats,
        TimingParameters(),
        EnergyParameters(),
        resilience=(lambda: resilience) if resilience is not None else None,
    )
    return store, stats, engine


def _advance(stats: StatsLedger, windows: float, interval: float) -> None:
    stats.record("HOST_WAIT", windows * interval * 1e9, 0.0)


class TestInjector:
    def test_windows_follow_simulated_time(self):
        # ecc off so sync itself only charges REF (a scrub pass costs
        # simulated time too and would tick the clock it is serving)
        _, stats, engine = _bench(ecc="off", probability=0.0)
        assert engine.sync().windows == 0
        _advance(stats, 3, 1e-5)
        assert engine.sync().windows == 3
        _advance(stats, 0.5, 1e-5)  # not a full window yet
        assert engine.sync().windows == 3
        assert stats.command_count("REF") > 0

    def test_rot_is_a_pure_function_of_seed_and_window(self):
        tensors = []
        for _ in range(2):
            store, stats, engine = _bench(
                ecc="off", probability=5e-3, seed=99
            )
            _advance(stats, 4, 1e-5)
            counts = engine.sync()
            assert counts.flips_injected > 0
            tensors.append(store.tensor[: store.n_slots].copy())
        assert np.array_equal(tensors[0], tensors[1])
        # a different seed rots different cells
        store, stats, engine = _bench(ecc="off", probability=5e-3, seed=100)
        _advance(stats, 4, 1e-5)
        engine.sync()
        assert not np.array_equal(
            store.tensor[: store.n_slots], tensors[0]
        )

    def test_tail_bits_never_rot(self):
        # 70 columns -> 2 words/row with a 6-bit tail that does not
        # physically exist; rot must respect the packed-store invariant
        store, stats, engine = _bench(
            cols=70, ecc="off", probability=0.05, seed=5
        )
        _advance(stats, 10, 1e-5)
        counts = engine.sync()
        assert counts.flips_injected > 0
        dead = store.tensor[: store.n_slots] & ~store.col_mask_words
        assert not dead.any()

    def test_ecc_off_injects_but_never_repairs(self):
        store, stats, engine = _bench(ecc="off", probability=5e-3)
        _advance(stats, 4, 1e-5)
        counts = engine.sync()
        assert counts.flips_injected > 0
        assert counts.words_corrected == 0
        assert counts.rows_scrubbed == 0
        assert stats.command_count("ECC_CHK") == 0
        assert not store.ecc_enabled


class TestScrubEngine:
    def test_scrub_heals_and_charges_the_ledger(self):
        store, stats, engine = _bench(probability=0.0)
        bits = np.zeros(64, dtype=np.uint8)
        bits[5] = 1
        store.write_row(0, 2, bits)
        clean = store.tensor[0, 2].copy()
        store.tensor[0, 2, 0] ^= np.uint64(1) << np.uint64(33)  # rot
        _advance(stats, 1, 1e-5)
        counts = engine.sync()
        assert counts.words_corrected == 1
        assert counts.words_uncorrectable == 0
        assert np.array_equal(store.tensor[0, 2], clean)
        for mnemonic in ("REF", "ECC_CHK", "ECC_ENC", "ECC_FIX"):
            assert stats.command_count(mnemonic) > 0, mnemonic

    def test_scrub_is_gang_parallel_across_slots(self):
        # latency of a pass covers one sub-array's row depth, however
        # many slots scrub in parallel behind their own sense amps
        costs = {}
        for slots in (1, 4):
            _, stats, engine = _bench(slots=slots, probability=0.0)
            engine.sync()  # drain the enable-time ECC_ENC backlog first
            _advance(stats, 1, 1e-5)
            base = stats.elapsed_ns()
            engine.sync()
            chk = stats.command_count("ECC_CHK")
            assert chk == slots * 16  # energy/count charged per row
            costs[slots] = stats.elapsed_ns() - base
        # REF charge is identical, so equal deltas mean equal scrub time
        assert costs[1] == costs[4]

    def test_repeatedly_upset_row_is_retired_as_weak(self):
        resilience = ResilienceEngine("detect-retry-remap")
        store, stats, engine = _bench(
            probability=0.0, threshold=1, resilience=resilience
        )
        store.write_row(1, 7, np.ones(64, dtype=np.uint8))
        store.tensor[1, 7, 0] ^= np.uint64(1) << np.uint64(12)
        _advance(stats, 1, 1e-5)
        counts = engine.sync()
        assert counts.words_corrected == 1
        assert resilience.is_weak_row((0, 0, 1), 7)
        # a corrected upset books NO uncorrected resilience event
        assert resilience.report().totals.uncorrected == 0

    def test_uncorrectable_word_escalates_to_resilience(self):
        resilience = ResilienceEngine("detect-retry-remap")
        store, stats, engine = _bench(
            probability=0.0, resilience=resilience
        )
        store.write_row(0, 3, np.ones(64, dtype=np.uint8))
        store.tensor[0, 3, 0] ^= np.uint64(0b101)  # double-bit
        _advance(stats, 1, 1e-5)
        counts = engine.sync()
        assert counts.words_uncorrectable == 1
        assert counts.words_corrected == 0
        assert resilience.report().totals.uncorrected == 1

    def test_state_round_trip_resumes_window_progress(self):
        store, stats, engine = _bench(probability=1e-3)
        _advance(stats, 3, 1e-5)
        engine.sync()
        state = engine.state_dict()
        store2, stats2, engine2 = _bench(probability=1e-3)
        engine2.load_state(state)
        _advance(stats2, 3, 1e-5)
        # same simulated time, windows already burned: no double rot
        assert engine2.sync().windows == engine.counts().windows
        del store, store2

    def test_counts_round_trip(self):
        counts = IntegrityCounts(windows=2, flips_injected=5)
        assert IntegrityCounts.from_dict(counts.as_dict()) == counts


# ----- the acceptance property ----------------------------------------------


@pytest.fixture(scope="module")
def property_reads():
    from repro.genome import ReadSimulator, synthetic_chromosome

    reference = synthetic_chromosome(300, seed=21)
    simulator = ReadSimulator(read_length=50, seed=22)
    return list(
        simulator.sample(reference, simulator.reads_for_coverage(300, 12))
    )


def _assemble(reads, engine: str, ecc: str, probability: float, seed: int):
    from repro.assembly.pipeline import _sized_device, assemble_with_pim

    pim = _sized_device(reads, 13)
    pim.attach_integrity(
        IntegrityConfig(
            ecc=ecc,
            retention_interval_s=1e-4,
            seed=seed,
            upset_probability=probability,
        )
    )
    result = assemble_with_pim(
        reads, k=13, pim=pim, min_count=2, engine=engine
    )
    store = pim.device.store
    return pim, result, store.tensor[: store.n_slots].copy()


@pytest.mark.parametrize(
    "engine,probability,seed",
    [("scalar", 5e-6, 2), ("bulk", 5e-5, 20)],
)
def test_secded_scrub_holds_assembly_bit_identical(
    property_reads, engine, probability, seed
):
    """At a rot rate that provably corrupts an unprotected run, the
    SECDED + scrub arm reproduces the zero-fault baseline exactly."""
    base_pim, base, base_rows = _assemble(
        property_reads, engine, "secded", 0.0, 99
    )
    off_pim, off, _ = _assemble(
        property_reads, engine, "off", probability, seed
    )
    on_pim, on, on_rows = _assemble(
        property_reads, engine, "secded", probability, seed
    )

    base_contigs = [str(c.sequence) for c in base.contigs]

    # the ablation arm proves the rot rate is destructive
    assert off.integrity.flips_injected > 0
    assert [str(c.sequence) for c in off.contigs] != base_contigs

    # the protected arm absorbed comparable rot...
    assert on.integrity.flips_injected > 0
    assert on.integrity.words_corrected > 0
    assert on.integrity.words_uncorrectable == 0
    # ...and the output is bit-identical to the zero-fault baseline:
    # contigs, the packed rows left in the arrays, and resilience state
    assert [str(c.sequence) for c in on.contigs] == base_contigs
    assert np.array_equal(on_rows, base_rows)
    assert (on_pim.resilience is None) == (base_pim.resilience is None)

    # no free repairs: refresh, check, encode and fix-writeback work
    # all flowed through the ledger
    for mnemonic in ("REF", "ECC_CHK", "ECC_ENC", "ECC_FIX"):
        assert on_pim.stats.command_count(mnemonic) > 0, mnemonic
    # the ablation never paid for checks it did not run
    assert off_pim.stats.command_count("ECC_CHK") == 0
