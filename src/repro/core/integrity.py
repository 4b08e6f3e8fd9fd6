"""Data-at-rest integrity: retention bit rot, SECDED ECC, refresh/scrub.

The fault model (:mod:`repro.core.faults`) perturbs *operations*; this
module perturbs *storage*.  PIM-Assembler's k-mer table resides in the
DRAM arrays for the whole run, so cells whose retention time falls
below the refresh window (:class:`repro.dram.retention.RetentionModel`)
silently lose bits between refreshes.  Three cooperating pieces close
the loop:

* **bit-rot injector** — driven purely by *simulated* time from the
  :class:`~repro.core.stats.StatsLedger`: each elapsed retention window
  draws a seeded binomial number of upsets over the packed
  :class:`~repro.core.storage.BitPlaneStore` tensor and XORs them in
  directly, bypassing the store mutators (rot is invisible to the ECC
  sidecar — that is the point).  Flips are a pure function of
  ``(seed, window index)``, so a resumed job replays the identical rot.
* **SECDED(72,64) codec** — a Hamming(71,64) code plus overall parity,
  one code byte per stored 64-bit word, vectorised with numpy XOR-folds
  over whole ``(slots, rows, words)`` planes.  Single-bit upsets are
  corrected in place; double-bit upsets are detected and escalate into
  the resilience quarantine path (scrub).
* **refresh/scrub scheduler** — :meth:`IntegrityEngine.sync`, called
  between pipeline stages and at the hashmap's per-read rot
  checkpoints (the bulk engine cuts its batches where a window
  closes, :meth:`IntegrityEngine.closes_window`), charges the covered
  refresh stream (``REF`` at tREFI cadence) and every ECC check/encode/
  fix through the ledger (no free repairs), and escalates repeatedly
  upset rows to the PR 1 resilience engine (weak-row retirement, then
  sub-array quarantine on uncorrectable loss).

The codec's bit layout: Hamming positions ``1..71`` carry the 64 data
bits at non-power-of-two positions and the 7 check bits at positions
``1, 2, 4, ..., 64``; the code byte stores check bit *i* at bit *i* of
positions ``2**i`` and the overall (SEC-vs-DED discriminating) parity
at bit 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.stats import StatsLedger
from repro.core.storage import BitPlaneStore, WORD_BITS, popcount_words
from repro.core.timing import TimingParameters, command_cost_table
from repro.dram.retention import RetentionModel
from repro.errors import FaultConfigError
from repro.observability.metrics import inc
from repro.observability.spans import event, span

__all__ = [
    "IntegrityConfig",
    "IntegrityCounts",
    "IntegrityEngine",
    "encode_secded",
    "scrub_planes",
]

#: Hamming check-bit positions (powers of two) within codeword 1..71
_CHECK_POSITIONS = (1, 2, 4, 8, 16, 32, 64)
#: the 64 data-bit positions: everything in 1..71 that is not a check
_DATA_POSITIONS = tuple(
    p for p in range(1, 72) if p not in _CHECK_POSITIONS
)
assert len(_DATA_POSITIONS) == 64

#: ``_H_MASKS[i]`` selects the data bits whose Hamming position has bit
#: ``i`` set — check bit i is the XOR-fold of ``word & _H_MASKS[i]``
_H_MASKS = np.zeros(7, dtype=np.uint64)
for _d, _p in enumerate(_DATA_POSITIONS):
    for _i in range(7):
        if (_p >> _i) & 1:
            _H_MASKS[_i] |= np.uint64(1) << np.uint64(_d)

#: syndrome -> uint64 single-bit mask to flip in the data word
#: (zero when the syndrome does not point at a data bit)
_SYND_DATA_MASK = np.zeros(128, dtype=np.uint64)
#: syndrome -> True when a parity-odd syndrome means the *code byte*
#: itself took the hit (syndrome 0 = overall-parity bit, power of two =
#: that check bit); the data word is intact
_SYND_CODE_SIDE = np.zeros(128, dtype=bool)
_SYND_CODE_SIDE[0] = True
for _p in _CHECK_POSITIONS:
    _SYND_CODE_SIDE[_p] = True
for _d, _p in enumerate(_DATA_POSITIONS):
    _SYND_DATA_MASK[_p] = np.uint64(1) << np.uint64(_d)


def _parity64(words: np.ndarray) -> np.ndarray:
    """Elementwise parity of uint64 words, as uint8."""
    return (popcount_words(words, axis=None) & 1).astype(np.uint8)


def _parity8(code: np.ndarray) -> np.ndarray:
    """Elementwise parity of uint8 bytes."""
    p = np.asarray(code, dtype=np.uint8)
    p = p ^ (p >> 4)
    p = p ^ (p >> 2)
    p = p ^ (p >> 1)
    return p & np.uint8(1)


def encode_secded(words: np.ndarray) -> np.ndarray:
    """SECDED(72,64) code bytes for an array of uint64 words.

    Fully vectorised: seven XOR-folds (one per check bit) plus two
    parity folds over the whole input, whatever its shape.
    """
    w = np.asarray(words, dtype=np.uint64)
    code = np.zeros(w.shape, dtype=np.uint8)
    for i in range(7):
        code |= _parity64(w & _H_MASKS[i]) << np.uint8(i)
    overall = _parity64(w) ^ _parity8(code)
    return code | (overall << np.uint8(7))


def _encode_word(word: int) -> int:
    """Scalar reference encoder (tests pin the vectorised codec to it)."""
    code = 0
    for i in range(7):
        if bin(word & int(_H_MASKS[i])).count("1") & 1:
            code |= 1 << i
    overall = (bin(word).count("1") + bin(code).count("1")) & 1
    return code | (overall << 7)


def _correct_word(word: int, code: int) -> "tuple[int, int, str]":
    """Scalar reference decoder: ``(word, code, kind)`` where kind is
    ``"clean"`` / ``"data"`` / ``"code"`` / ``"double"``."""
    recomputed = _encode_word(word)
    synd = (recomputed ^ code) & 0x7F
    # overall parity covers every stored bit, so it flips on any single
    # error (data, check, or the parity bit itself)
    odd = (bin(word).count("1") + bin(code).count("1")) & 1
    if synd == 0 and odd == 0:
        return word, code, "clean"
    if odd == 1:
        if _SYND_DATA_MASK[synd]:
            return word ^ int(_SYND_DATA_MASK[synd]), code, "data"
        if _SYND_CODE_SIDE[synd]:
            return word, _encode_word(word), "code"
        return word, code, "double"
    return word, code, "double"


def syndromes(words: np.ndarray, code: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """``(syndrome, parity_odd)`` planes for stored words + code bytes.

    ``syndrome`` is the 7-bit recomputed-vs-stored check difference;
    ``parity_odd`` is 1 where the 72 stored bits have odd parity (the
    encoder always writes even overall parity).
    """
    w = np.asarray(words, dtype=np.uint64)
    c = np.asarray(code, dtype=np.uint8)
    recomputed = np.zeros(w.shape, dtype=np.uint8)
    for i in range(7):
        recomputed |= _parity64(w & _H_MASKS[i]) << np.uint8(i)
    synd = (recomputed ^ c) & np.uint8(0x7F)
    odd = _parity64(w) ^ _parity8(c)
    return synd, odd


def scrub_planes(
    words: np.ndarray, code: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Correct every single-bit upset in ``words``/``code`` in place.

    Returns boolean planes ``(corrected, uncorrectable)`` over the
    input shape.  Single data-bit upsets are flipped back; single
    code-byte upsets re-encode the byte; double-bit (parity-even,
    nonzero-syndrome) and aliased syndromes are *uncorrectable* — the
    data stays as found and the code byte is re-encoded to match, so a
    detected loss is booked exactly once instead of re-firing on every
    later scrub pass.
    """
    w = words
    c = code
    synd, odd = syndromes(w, c)
    idx = synd.astype(np.intp)
    single = odd == 1
    data_hit = single & (_SYND_DATA_MASK[idx] != 0)
    if data_hit.any():
        where = np.nonzero(data_hit)
        w[where] ^= _SYND_DATA_MASK[idx[where]]
    code_hit = single & _SYND_CODE_SIDE[idx]
    uncorrectable = (~single & (synd != 0)) | (
        single & ~data_hit & ~_SYND_CODE_SIDE[idx]
    )
    refresh = code_hit | uncorrectable
    if refresh.any():
        where = np.nonzero(refresh)
        c[where] = encode_secded(w[where])
    return data_hit | code_hit, uncorrectable


@dataclass(frozen=True)
class IntegrityConfig:
    """Configuration of the rot → ECC → refresh/scrub loop.

    Attributes:
        ecc: ``"secded"`` maintains the per-word code sidecar and
            corrects on scrub; ``"off"`` injects rot but never repairs
            (the ablation arm of the acceptance property).
        retention_interval_s: simulated refresh window (tREFW); one rot
            draw happens per elapsed window.
        seed: root of the per-window injection streams.
        model: analytic retention model supplying the per-cell upset
            probability per window.
        upset_probability: override of the model's per-bit-per-window
            probability — the lever tests and benchmarks use for
            accelerated aging without a silly-short window.
        weak_row_threshold: correctable upsets one row absorbs before
            the scrubber retires it as weak (remap policies only).
    """

    ecc: str = "secded"
    retention_interval_s: float = 0.064
    seed: int = 0xB17507
    model: RetentionModel = field(default_factory=RetentionModel)
    upset_probability: "float | None" = None
    weak_row_threshold: int = 8

    def __post_init__(self) -> None:
        if self.ecc not in ("off", "secded"):
            raise FaultConfigError(
                f"ecc must be 'off' or 'secded', got {self.ecc!r}"
            )
        if self.retention_interval_s <= 0:
            raise FaultConfigError("retention_interval_s must be positive")
        if self.upset_probability is not None and not (
            0.0 <= self.upset_probability <= 1.0
        ):
            raise FaultConfigError("upset_probability must be within [0, 1]")
        if self.weak_row_threshold < 1:
            raise FaultConfigError("weak_row_threshold must be >= 1")

    @classmethod
    def requested(
        cls, ecc: "str | None", retention_interval_s: "float | None"
    ) -> "IntegrityConfig | None":
        """The engine the ``ecc``/``retention_interval_s`` options ask
        for: ``None`` when neither is set; an interval alone implies
        SECDED."""
        if ecc is None and retention_interval_s is None:
            return None
        kwargs: dict = {"ecc": ecc or "secded"}
        if retention_interval_s is not None:
            kwargs["retention_interval_s"] = retention_interval_s
        return cls(**kwargs)

    @property
    def per_window_probability(self) -> float:
        """Per-bit upset probability per retention window."""
        if self.upset_probability is not None:
            return self.upset_probability
        return self.model.upset_probability_per_window(
            self.retention_interval_s
        )

    def state_dict(self) -> dict:
        return {
            "ecc": self.ecc,
            "retention_interval_s": self.retention_interval_s,
            "seed": self.seed,
            "model": self.model.state_dict(),
            "upset_probability": self.upset_probability,
            "weak_row_threshold": self.weak_row_threshold,
        }

    @classmethod
    def from_state(cls, state: dict) -> "IntegrityConfig":
        return cls(
            ecc=state["ecc"],
            retention_interval_s=float(state["retention_interval_s"]),
            seed=int(state["seed"]),
            model=RetentionModel.from_state(state["model"]),
            upset_probability=(
                None
                if state["upset_probability"] is None
                else float(state["upset_probability"])
            ),
            weak_row_threshold=int(state["weak_row_threshold"]),
        )


@dataclass(frozen=True)
class IntegrityCounts:
    """What the integrity subsystem saw and did (one engine lifetime).

    ``rows_scrubbed`` and ``rows_encoded`` are the stats ledger's
    ``ECC_CHK`` and ``ECC_ENC`` counts.
    """

    windows: int = 0
    flips_injected: int = 0
    words_corrected: int = 0
    words_uncorrectable: int = 0
    rows_scrubbed: int = 0
    rows_encoded: int = 0


class IntegrityEngine:
    """Run-time state of the data-at-rest integrity subsystem.

    One engine is attached per platform
    (:meth:`repro.core.platform.PimAssembler.attach_integrity`); the
    pipeline calls :meth:`sync` at its rot checkpoints.  The engine is
    deliberately loosely coupled: it sees the store, the stats ledger,
    the timing/energy cost tables and two late-bound resolvers — one
    mapping store slots to sub-array keys, one yielding the current
    resilience engine — so attach order never matters.
    """

    def __init__(
        self,
        config: IntegrityConfig,
        store: BitPlaneStore,
        stats: StatsLedger,
        timing: TimingParameters,
        energy,
        slot_keys: "Callable[[], list[tuple[int, int, int]]]",
        resilience: "Callable[[], object | None] | None" = None,
    ) -> None:
        self.config = config
        self._store = store
        self._stats = stats
        self._timing = timing
        self._energy = energy
        self._slot_keys = slot_keys
        self._resilience = resilience
        self._windows_done = 0
        self._tallies: dict[str, int] = {
            "windows": 0,
            "flips_injected": 0,
            "words_corrected": 0,
            "words_uncorrectable": 0,
        }
        #: correctable upsets per (slot, row) — weak-row escalation
        self._row_upsets: dict[tuple[int, int], int] = {}
        if config.ecc == "secded" and not store.ecc_enabled:
            store.enable_ecc(encode_secded)

    # ----- bookkeeping helpers ---------------------------------------------

    @property
    def window_ns(self) -> float:
        return self.config.retention_interval_s * 1e9

    def counts(self) -> IntegrityCounts:
        return IntegrityCounts(
            **self._tallies,
            rows_scrubbed=self._stats.command_count("ECC_CHK"),
            rows_encoded=self._stats.command_count("ECC_ENC"),
        )

    def _charge(self, mnemonic: str, count: int) -> None:
        if count <= 0:
            return
        latency, energy_nj = command_cost_table(self._timing, self._energy)[
            mnemonic
        ]
        self._stats.record(
            mnemonic, latency * count, energy_nj * count, count=count
        )

    def encode_cost(self, rows: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """``(time_ns, energy_nj)`` of ``rows[i]`` re-encoded rows, as
        the ``ECC_ENC`` charge of a :meth:`sync` draining them."""
        latency, energy_nj = command_cost_table(self._timing, self._energy)[
            "ECC_ENC"
        ]
        return rows * latency, rows * energy_nj

    # ----- the rot / refresh / scrub checkpoint ----------------------------

    def _pending(self, elapsed_ns: float) -> int:
        return int(elapsed_ns // self.window_ns) - self._windows_done

    def closes_window(self, elapsed_ns: float) -> bool:
        """Whether a :meth:`sync` with the ledger at ``elapsed_ns``
        simulated ns would close a retention window."""
        return self._pending(elapsed_ns) > 0

    def sync(self) -> IntegrityCounts:
        """Advance rot to the current simulated time, refresh, scrub.

        Windows are derived from the ledger's total simulated time, so
        rot between two syncs is exactly the rot of the simulated
        interval the workload spent — on either execution engine, at
        whatever call cadence the pipeline chooses.
        """
        pending = self._pending(self._stats.elapsed_ns())
        if pending > 0:
            with span(
                "integrity.scrub", lane="integrity", windows=pending
            ):
                first = self._windows_done
                for index in range(first, first + pending):
                    self._inject_window(index)
                self._windows_done = first + pending
                self._tallies["windows"] += pending
                inc("integrity.refresh.windows", pending)
                # the refresh stream of the covered interval: one REF
                # burst (tRFC) per elapsed tREFI
                self._charge(
                    "REF",
                    max(
                        1,
                        int(round(pending * self.window_ns / self._timing.t_refi)),
                    ),
                )
                if self.config.ecc == "secded":
                    self._scrub_pass()
        self._drain_encodes()
        return self.counts()

    def _drain_encodes(self) -> None:
        if self._store.ecc_enabled:
            self._charge("ECC_ENC", self._store.drain_encoded_rows())

    def _inject_window(self, index: int) -> None:
        """Draw and apply one window's seeded upsets to the word planes."""
        store = self._store
        n = store.n_slots
        probability = self.config.per_window_probability
        if n == 0 or probability <= 0.0:
            return
        flat = store.tensor[:n].reshape(-1)
        total_bits = flat.size * WORD_BITS
        rng = np.random.default_rng((self.config.seed, index))
        upsets = int(rng.binomial(total_bits, min(1.0, probability)))
        if upsets == 0:
            return
        positions = rng.integers(0, total_bits, size=upsets, dtype=np.int64)
        word_index = positions >> 6
        bit = (positions & 63).astype(np.uint64)
        # never rot a tail bit: those columns do not exist physically,
        # and the packed-store invariant keeps them zero
        in_row = (word_index % store.words).astype(np.intp)
        live = ((store.col_mask_words[in_row] >> bit) & np.uint64(1)) == 1
        word_index, bit = word_index[live], bit[live]
        if word_index.size:
            np.bitwise_xor.at(flat, word_index, np.uint64(1) << bit)
            self._tallies["flips_injected"] += int(word_index.size)
            inc("integrity.flips_injected", int(word_index.size))

    def _scrub_pass(self) -> None:
        """One whole-store ECC pass: check every row, heal, escalate."""
        store = self._store
        n = store.n_slots
        if n == 0:
            return
        words = store.tensor[:n]
        code = store.ecc_plane[:n]
        corrected, uncorrectable = scrub_planes(words, code)
        rows_checked = n * store.rows
        inc("integrity.scrub.rows", rows_checked)
        # every sub-array checks its own rows behind its own sense amps,
        # so the pass is gang-parallel across slots: latency is one
        # sub-array's row depth, energy is charged for every row touched
        latency, energy_nj = command_cost_table(self._timing, self._energy)[
            "ECC_CHK"
        ]
        self._stats.record(
            "ECC_CHK",
            latency * store.rows,
            energy_nj * rows_checked,
            count=rows_checked,
        )
        n_corrected = int(corrected.sum())
        n_uncorrectable = int(uncorrectable.sum())
        if not (n_corrected or n_uncorrectable):
            return
        self._tallies["words_corrected"] += n_corrected
        self._tallies["words_uncorrectable"] += n_uncorrectable
        inc("integrity.ecc.corrected", n_corrected)
        inc("integrity.ecc.uncorrectable", n_uncorrectable)
        # every healed or re-encoded word is written back through the
        # row buffer — repairs are charged, never free
        self._charge("ECC_FIX", n_corrected + n_uncorrectable)
        engine = self._resilience() if self._resilience is not None else None
        # store slot -> sub-array key, resolved once per pass
        slot_keys = self._slot_keys()
        if n_corrected:
            for slot, row in np.argwhere(corrected.any(axis=2)):
                cell = (int(slot), int(row))
                hits = self._row_upsets.get(cell, 0) + 1
                self._row_upsets[cell] = hits
                if hits >= self.config.weak_row_threshold and engine is not None:
                    engine.mark_weak_row(slot_keys[cell[0]], cell[1])
        if n_uncorrectable:
            event(
                "integrity.uncorrectable",
                lane="integrity",
                words=n_uncorrectable,
            )
            if engine is not None:
                for slot, row in np.argwhere(uncorrectable.any(axis=2)):
                    engine.note_uncorrected(slot_keys[slot], int(row))

    # ----- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        return {
            "config": self.config.state_dict(),
            "windows_done": self._windows_done,
            "tallies": dict(self._tallies),
            "row_upsets": [
                [slot, row, count]
                for (slot, row), count in sorted(self._row_upsets.items())
            ],
        }

    def load_state(self, state: dict) -> None:
        """Restore window progress and counters (config stays as built).

        Tallies this engine no longer keeps (the row counts the stats
        ledger holds, in records of earlier versions) are ignored.
        """
        self._windows_done = int(state["windows_done"])
        for name, value in state["tallies"].items():
            if name in self._tallies:
                self._tallies[name] = int(value)
        self._row_upsets = {
            (int(slot), int(row)): int(count)
            for slot, row, count in state["row_upsets"]
        }
