"""Resilience subsystem: detect, correct and degrade gracefully.

The fault model (:mod:`repro.core.faults`) makes Table I's process
variation *observable*; this module closes the loop.  The add-on XOR
gate that gives PIM-Assembler its XNOR-native sense amplifier is also
a parity engine, so the platform can check its own bulk operations
in-memory:

* **detect** — every protected operation is verified (parity recompute
  through the latch-assisted XOR path + a DPU reduce), charged to the
  :class:`~repro.core.stats.StatsLedger` under ``VRF_*`` mnemonics so
  protection has a visible time/energy cost;
* **retry** — a detected mismatch re-executes the operation, up to
  ``max_retries`` times, with *exponential operand re-staging*: each
  retry re-stages operands at a slower, higher-margin timing, modelled
  as a geometric derating of the effective fault rate;
* **remap** — rows that stay corrupt after every retry are *weak rows*
  (the same physical population the retention/margin studies in
  :mod:`repro.dram.retention` / :mod:`repro.dram.margins` describe);
  the allocator skips them, and a sub-array that accumulates
  ``quarantine_threshold`` uncorrectable events is quarantined outright
  so higher layers stop placing data there.

Policy levels mirror that escalation: ``off`` / ``detect`` /
``detect-retry`` / ``detect-retry-remap``.

The verification overhead constants (how many extra AAP slots and DPU
ops one check costs) are calibration constants, documented in
``docs/CALIBRATION.md``.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from repro.core.stats import StatsLedger
from repro.errors import FaultConfigError
from repro.dram.retention import RetentionModel
from repro.observability.metrics import inc, running_sums
from repro.observability.spans import event

#: extra AAP row cycles one verification costs: recompute the parity of
#: the result through the latch-assisted XOR path (latch load + sum).
VERIFY_AAP_CYCLES = 2
#: extra DPU ops one verification costs (the reduce over the check row).
VERIFY_DPU_OPS = 1
#: AAP cycles to fold one inserted row into a region's running parity.
PARITY_UPDATE_AAP_CYCLES = 1


def verify_cells(
    timing, energy
) -> "tuple[tuple[str, int, float, float], ...]":
    """The two ledger cells of one parity check.

    ``(mnemonic, commands, ns, nJ)`` of its ``VRF_AAP`` cycles and of
    its ``VRF_DPU`` reduce; ``n`` checks charge ``n`` times each.
    """
    return (
        (
            "VRF_AAP",
            VERIFY_AAP_CYCLES,
            VERIFY_AAP_CYCLES * timing.t_aap,
            VERIFY_AAP_CYCLES * energy.e_sum_cycle,
        ),
        (
            "VRF_DPU",
            VERIFY_DPU_OPS,
            VERIFY_DPU_OPS * timing.t_dpu_clk,
            VERIFY_DPU_OPS * energy.e_dpu_op,
        ),
    )


class PolicyLevel(str, Enum):
    """Escalation ladder of the resilience subsystem."""

    OFF = "off"
    DETECT = "detect"
    DETECT_RETRY = "detect-retry"
    DETECT_RETRY_REMAP = "detect-retry-remap"


@dataclass(frozen=True)
class ResiliencePolicy:
    """Configuration of the inject → detect → correct → degrade loop.

    Attributes:
        level: how far the escalation ladder goes (see
            :class:`PolicyLevel`).
        max_retries: bounded re-executions after a detected mismatch.
        restage_derate: per-retry multiplier on the effective fault
            rate — retry ``i`` re-stages operands at
            ``rate * restage_derate**i`` (exponential re-staging).
        quarantine_threshold: uncorrectable events a sub-array absorbs
            before it is quarantined (remap level only).
        scrub: verify the resident k-mer table between pipeline stages.
        raise_on_uncorrected: raise
            :class:`~repro.errors.UncorrectableFaultError` instead of
            degrading gracefully.
    """

    level: PolicyLevel = PolicyLevel.OFF
    max_retries: int = 3
    restage_derate: float = 0.5
    quarantine_threshold: int = 3
    scrub: bool = True
    raise_on_uncorrected: bool = False

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise FaultConfigError("max_retries must be non-negative")
        if not 0.0 < self.restage_derate <= 1.0:
            raise FaultConfigError("restage_derate must be in (0, 1]")
        if self.quarantine_threshold < 1:
            raise FaultConfigError("quarantine_threshold must be >= 1")

    @classmethod
    def named(cls, name: "str | PolicyLevel | ResiliencePolicy", **overrides) -> "ResiliencePolicy":
        """Build a policy from its level name (``"detect-retry"``...).

        Accepts an existing policy (returned as-is, with overrides
        applied), a :class:`PolicyLevel`, or its string value.
        """
        if isinstance(name, ResiliencePolicy):
            return replace(name, **overrides) if overrides else name
        try:
            level = PolicyLevel(name)
        except ValueError:
            valid = ", ".join(p.value for p in PolicyLevel)
            raise FaultConfigError(
                f"unknown resilience policy {name!r}; expected one of {valid}"
            ) from None
        return cls(level=level, **overrides)

    def state_dict(self) -> dict:
        """JSON-serializable form (see :meth:`from_state`)."""
        return {
            "level": self.level.value,
            "max_retries": self.max_retries,
            "restage_derate": self.restage_derate,
            "quarantine_threshold": self.quarantine_threshold,
            "scrub": self.scrub,
            "raise_on_uncorrected": self.raise_on_uncorrected,
        }

    @classmethod
    def from_state(cls, state: dict) -> "ResiliencePolicy":
        return cls(
            level=PolicyLevel(state["level"]),
            max_retries=int(state["max_retries"]),
            restage_derate=float(state["restage_derate"]),
            quarantine_threshold=int(state["quarantine_threshold"]),
            scrub=bool(state["scrub"]),
            raise_on_uncorrected=bool(state["raise_on_uncorrected"]),
        )

    @property
    def detect(self) -> bool:
        return self.level is not PolicyLevel.OFF

    @property
    def retry(self) -> bool:
        return self.level in (
            PolicyLevel.DETECT_RETRY,
            PolicyLevel.DETECT_RETRY_REMAP,
        )

    @property
    def remap(self) -> bool:
        return self.level is PolicyLevel.DETECT_RETRY_REMAP


def recommended_policy(
    variation_percent: float,
    residual_target: float = 1e-6,
) -> ResiliencePolicy:
    """Size a remap policy from the Table I statistics.

    Chooses ``max_retries`` so the residual per-op error probability —
    first execution *and* every exponentially re-staged retry all
    faulting, ``prod_i min(1, rate * derate**i)`` at the worst
    (TRA-class) Table I rate — drops below ``residual_target``.
    """
    from repro.core.faults import FaultModel  # local: avoids import cycle

    if variation_percent <= 0:
        return ResiliencePolicy(level=PolicyLevel.DETECT_RETRY_REMAP)
    model = FaultModel.from_variation(variation_percent)
    rate = max(model.compute2_rate, model.tra_rate)
    policy = ResiliencePolicy(level=PolicyLevel.DETECT_RETRY_REMAP)
    if rate <= 0.0:
        return policy
    retries, residual = 0, min(1.0, rate)
    while residual > residual_target and retries < 16:
        retries += 1
        residual *= min(1.0, rate * policy.restage_derate**retries)
    return replace(policy, max_retries=max(policy.max_retries, retries))


def spare_rows_needed(
    table_bits_per_row: int,
    rows: int,
    residency_s: float,
    model: RetentionModel | None = None,
    refresh_interval_s: float = 0.064,
) -> int:
    """Spare-row budget for weak-row remapping, from retention stats.

    Expected number of rows that lose a bit during a table residency —
    the population the remap level retires — rounded up with one extra
    row of headroom when the expectation is nonzero.
    """
    if table_bits_per_row <= 0 or rows <= 0:
        raise FaultConfigError("row geometry must be positive")
    if residency_s <= 0:
        return 0
    model = model or RetentionModel()
    p_cell = model.cell_failure_probability(refresh_interval_s, residency_s)
    p_row = 1.0 - (1.0 - p_cell) ** table_bits_per_row
    expected = rows * p_row
    return 0 if expected == 0.0 else math.ceil(expected) + 1


@dataclass(frozen=True)
class ResilienceCounts:
    """Event counters over one window (a stage, or the whole run)."""

    detected: int = 0
    corrected: int = 0
    uncorrected: int = 0
    retries: int = 0
    verified_ops: int = 0
    verify_time_ns: float = 0.0
    verify_energy_nj: float = 0.0
    scrubbed_rows: int = 0
    scrub_repairs: int = 0

    def __sub__(self, other: "ResilienceCounts") -> "ResilienceCounts":
        return ResilienceCounts(
            detected=self.detected - other.detected,
            corrected=self.corrected - other.corrected,
            uncorrected=self.uncorrected - other.uncorrected,
            retries=self.retries - other.retries,
            verified_ops=self.verified_ops - other.verified_ops,
            verify_time_ns=self.verify_time_ns - other.verify_time_ns,
            verify_energy_nj=self.verify_energy_nj - other.verify_energy_nj,
            scrubbed_rows=self.scrubbed_rows - other.scrubbed_rows,
            scrub_repairs=self.scrub_repairs - other.scrub_repairs,
        )


@dataclass(frozen=True)
class ResilienceReport:
    """What the resilience subsystem saw and did during a run."""

    policy: str
    totals: ResilienceCounts
    stages: dict[str, ResilienceCounts] = field(default_factory=dict)
    quarantined_subarrays: tuple[tuple[int, int, int], ...] = ()
    weak_rows: tuple[tuple[tuple[int, int, int], int], ...] = ()

    @property
    def clean(self) -> bool:
        """True when no fault survived correction."""
        return self.totals.uncorrected == 0

    def __str__(self) -> str:
        t = self.totals
        return (
            f"policy={self.policy} detected={t.detected} "
            f"corrected={t.corrected} uncorrected={t.uncorrected} "
            f"retries={t.retries} "
            f"verify={t.verify_time_ns/1e3:.1f}us/{t.verify_energy_nj:.1f}nJ "
            f"scrubbed={t.scrubbed_rows} repaired={t.scrub_repairs} "
            f"quarantined={len(self.quarantined_subarrays)} "
            f"weak_rows={len(self.weak_rows)}"
        )


class ResilienceLedger:
    """Counts resilience events and attributes them to ledger phases.

    Mirrors :class:`StatsLedger`'s phase mechanism: events recorded
    while a stats phase is open are attributed to that phase too, so
    the pipeline can report per-stage resilience next to per-stage
    :class:`~repro.core.stats.PhaseTotals`.
    """

    def __init__(self, stats: StatsLedger | None = None) -> None:
        self._stats = stats
        self._events: dict[str, Counter] = {StatsLedger.ROOT_PHASE: Counter()}
        self._floats: dict[str, Counter] = {StatsLedger.ROOT_PHASE: Counter()}

    def _targets(self) -> list[str]:
        targets = [StatsLedger.ROOT_PHASE]
        if self._stats is not None and self._stats.current_phase:
            targets.append(self._stats.current_phase)
        return targets

    def bump(self, name: str, count: int = 1) -> None:
        for target in self._targets():
            self._events.setdefault(target, Counter())[name] += count

    def bump_float(self, name: str, amount: float) -> None:
        for target in self._targets():
            self._floats.setdefault(target, Counter())[name] += amount

    def bump_floats(self, amounts: "dict[str, np.ndarray]") -> None:
        """:meth:`bump_float` per name and amount, in order, bit for bit."""
        cells = [
            (self._floats.setdefault(target, Counter()), name, values)
            for target in self._targets()
            for name, values in amounts.items()
        ]
        sums = running_sums(
            [floats[name] for floats, name, _ in cells],
            [(i, values) for i, (_, _, values) in enumerate(cells)],
        )
        for (floats, name, _), total in zip(cells, sums):
            floats[name] = total

    def counts(self, phase: str | None = None) -> ResilienceCounts:
        name = phase or StatsLedger.ROOT_PHASE
        events = self._events.get(name, Counter())
        floats = self._floats.get(name, Counter())
        return ResilienceCounts(
            detected=events["detected"],
            corrected=events["corrected"],
            uncorrected=events["uncorrected"],
            retries=events["retries"],
            verified_ops=events["verified_ops"],
            verify_time_ns=floats["verify_time_ns"],
            verify_energy_nj=floats["verify_energy_nj"],
            scrubbed_rows=events["scrubbed_rows"],
            scrub_repairs=events["scrub_repairs"],
        )

    def phases(self) -> list[str]:
        return sorted(n for n in self._events if n != StatsLedger.ROOT_PHASE)


class ResilienceEngine:
    """Run-time state of the resilience subsystem.

    One engine is attached to a :class:`~repro.core.controller.Controller`
    (``controller.resilience``); the controller calls back into it from
    every protected operation.  The engine owns the event ledger, the
    weak-row set and the quarantine set; allocation layers consult
    :meth:`is_quarantined` / :meth:`is_weak_row` to steer around
    retired storage.
    """

    def __init__(
        self,
        policy: "ResiliencePolicy | str | PolicyLevel" = PolicyLevel.OFF,
        stats: StatsLedger | None = None,
    ) -> None:
        self.policy = ResiliencePolicy.named(policy)
        self.ledger = ResilienceLedger(stats)
        self._failures: Counter = Counter()  # uncorrectable events per sub-array
        self._weak_rows: set[tuple[tuple[int, int, int], int]] = set()
        self._quarantined: set[tuple[int, int, int]] = set()

    # ----- event recording (called by the controller) ----------------------

    def note_verify(self, time_ns: float, energy_nj: float, ops: int = 1) -> None:
        """Account the cost of ``ops`` verification checks."""
        self.ledger.bump("verified_ops", ops)
        self.ledger.bump_float("verify_time_ns", time_ns)
        self.ledger.bump_float("verify_energy_nj", energy_nj)

    def note_verify_batch(
        self, time_ns: np.ndarray, energy_nj: np.ndarray, ops: np.ndarray
    ) -> None:
        """:meth:`note_verify` per entry, in order, bit for bit."""
        self.ledger.bump("verified_ops", int(ops.sum()))
        self.ledger.bump_floats(
            {"verify_time_ns": time_ns, "verify_energy_nj": energy_nj}
        )

    def note_detected(self, count: int = 1) -> None:
        self.ledger.bump("detected", count)
        inc("resilience.detected", count)

    def note_retry(self, count: int = 1) -> None:
        self.ledger.bump("retries", count)
        inc("resilience.retries", count)

    def note_corrected(self, count: int = 1) -> None:
        self.ledger.bump("corrected", count)
        inc("resilience.corrected", count)

    def note_uncorrected(
        self,
        subarray_key: tuple[int, int, int],
        row: int | None = None,
        count: int = 1,
    ) -> None:
        """An operation stayed corrupt; escalate per the policy."""
        self.ledger.bump("uncorrected", count)
        inc("resilience.uncorrected", count)
        event(
            "resilience.uncorrected",
            lane="resilience",
            subarray=list(subarray_key),
            row=row,
        )
        if not self.policy.remap:
            return
        if row is not None:
            self._weak_rows.add((subarray_key, row))
            inc("resilience.weak_rows")
        self._failures[subarray_key] += count
        if (
            self._failures[subarray_key] >= self.policy.quarantine_threshold
            and subarray_key not in self._quarantined
        ):
            self._quarantined.add(subarray_key)
            inc("resilience.quarantines")
            event(
                "resilience.quarantine",
                lane="resilience",
                subarray=list(subarray_key),
                failures=self._failures[subarray_key],
            )

    def mark_weak_row(
        self, subarray_key: tuple[int, int, int], row: int
    ) -> bool:
        """Retire one row as weak without booking an uncorrected event.

        The retention scrubber calls this when a row keeps upsetting
        *correctably*: ECC healed every hit, so no data was lost and no
        ``uncorrected`` count is owed — but the row is evidently from
        the weak-retention population and the allocator should steer
        around it.  Gated on the remap policy level like the escalation
        in :meth:`note_uncorrected`.  Returns True when the row was
        newly retired.
        """
        if not self.policy.remap:
            return False
        if (subarray_key, row) in self._weak_rows:
            return False
        self._weak_rows.add((subarray_key, row))
        inc("resilience.weak_rows")
        event(
            "resilience.weak_row",
            lane="resilience",
            subarray=list(subarray_key),
            row=row,
        )
        return True

    def note_scrub(self, rows: int, repairs: int = 0) -> None:
        self.ledger.bump("scrubbed_rows", rows)
        inc("resilience.scrubbed_rows", rows)
        if repairs:
            self.ledger.bump("scrub_repairs", repairs)
            inc("resilience.scrub_repairs", repairs)

    # ----- degradation state ------------------------------------------------

    @property
    def quarantined(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(self._quarantined)

    @property
    def weak_rows(self) -> frozenset[tuple[tuple[int, int, int], int]]:
        return frozenset(self._weak_rows)

    def is_quarantined(self, subarray_key: tuple[int, int, int]) -> bool:
        return subarray_key in self._quarantined

    def is_weak_row(self, subarray_key: tuple[int, int, int], row: int) -> bool:
        return (subarray_key, row) in self._weak_rows

    def quarantine(self, subarray_key: tuple[int, int, int]) -> None:
        """Explicitly retire a sub-array (used by scrubbing/tests)."""
        if subarray_key not in self._quarantined:
            self._quarantined.add(subarray_key)
            inc("resilience.quarantines")
            event(
                "resilience.quarantine",
                lane="resilience",
                subarray=list(subarray_key),
                failures=self._failures[subarray_key],
            )

    def failures(self, subarray_key: tuple[int, int, int]) -> int:
        return self._failures[subarray_key]

    # ----- checkpointing ----------------------------------------------------

    def state_dict(self) -> dict:
        """JSON-serializable snapshot of every event counter and the
        full degradation state (weak rows, quarantines, failure tallies)."""
        return {
            "policy": self.policy.state_dict(),
            "events": {
                name: dict(counter)
                for name, counter in self.ledger._events.items()
            },
            "floats": {
                name: dict(counter)
                for name, counter in self.ledger._floats.items()
            },
            "failures": {
                ",".join(map(str, key)): count
                for key, count in self._failures.items()
            },
            "weak_rows": [
                [list(key), row] for key, row in sorted(self._weak_rows)
            ],
            "quarantined": [list(key) for key in sorted(self._quarantined)],
        }

    @classmethod
    def from_state(
        cls, state: dict, stats: StatsLedger | None = None
    ) -> "ResilienceEngine":
        """Rebuild an engine mid-run from :meth:`state_dict`."""
        engine = cls(ResiliencePolicy.from_state(state["policy"]), stats=stats)
        engine.ledger._events = {
            name: Counter({k: int(v) for k, v in counts.items()})
            for name, counts in state["events"].items()
        }
        engine.ledger._floats = {
            name: Counter({k: float(v) for k, v in amounts.items()})
            for name, amounts in state["floats"].items()
        }
        engine._failures = Counter(
            {
                tuple(int(p) for p in key.split(",")): int(count)
                for key, count in state["failures"].items()
            }
        )
        engine._weak_rows = {
            (tuple(int(p) for p in key), int(row))
            for key, row in state["weak_rows"]
        }
        engine._quarantined = {
            tuple(int(p) for p in key) for key in state["quarantined"]
        }
        return engine

    # ----- reporting --------------------------------------------------------

    def counts(self, phase: str | None = None) -> ResilienceCounts:
        return self.ledger.counts(phase)

    def report(self, stages: "list[str] | None" = None) -> ResilienceReport:
        """Snapshot the run's resilience outcome.

        Args:
            stages: phase names to break out (defaults to every phase
                that recorded an event).
        """
        names = stages if stages is not None else self.ledger.phases()
        return ResilienceReport(
            policy=self.policy.level.value,
            totals=self.counts(),
            stages={name: self.counts(name) for name in names},
            quarantined_subarrays=tuple(sorted(self._quarantined)),
            weak_rows=tuple(sorted(self._weak_rows)),
        )
