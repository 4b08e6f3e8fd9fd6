"""Post-hoc inspection of a journaled job directory.

``repro inspect <job-dir>`` renders, from the journal alone, the same
per-stage accounting a live run prints: per-stage simulated time,
energy and command counts (from the stats ledger snapshot inside the
last valid journal record), the top-k hottest command mnemonics, the
sub-array occupancy implied by the platform's allocator cursors, and
every retry-ladder decision.  Because the journal's torn-write-safe
prefix validation yields the last *complete* record, this works on
crashed and timed-out jobs exactly as on finished ones — the use case
the tracing layer exists for: seeing where a dead job's time went.
"""

from __future__ import annotations

from pathlib import Path

from repro.core.stats import StatsLedger
from repro.errors import InputError, JournalError
from repro.observability.export import (
    format_subarray_heatmap,
    subarray_utilization,
)
from repro.observability.flightrec import FlightRecorder

__all__ = [
    "format_flight_section",
    "format_power_section",
    "format_stage_table",
    "format_top_commands",
    "inspect_job",
    "render_job_inspection",
]

#: stage rows rendered first, in pipeline order (others follow sorted)
_STAGE_ORDER = ("hashmap", "debruijn", "traverse")


def format_stage_table(ledger: StatsLedger) -> str:
    """Per-stage time/energy/command table with a total row.

    The per-stage simulated durations are the ledger's own
    ``totals(stage)`` values, so the table agrees with a live run's
    span trace to within float rounding.
    """
    phases = [p for p in _STAGE_ORDER if p in ledger.phases()]
    phases += [p for p in ledger.phases() if p not in _STAGE_ORDER]
    total = ledger.totals()
    header = (
        f"{'stage':>10} {'time':>14} {'energy':>14} "
        f"{'commands':>10} {'share':>6}"
    )
    lines = [header, "-" * len(header)]
    for name in phases:
        totals = ledger.totals(name)
        share = totals.time_ns / total.time_ns if total.time_ns > 0 else 0.0
        lines.append(
            f"{name:>10} {totals.time_ns / 1e3:>11.3f} us "
            f"{totals.energy_nj:>11.3f} nJ "
            f"{totals.total_commands:>10d} {share:>6.1%}"
        )
    lines.append(
        f"{'total':>10} {total.time_ns / 1e3:>11.3f} us "
        f"{total.energy_nj:>11.3f} nJ "
        f"{total.total_commands:>10d} {'100.0%':>6}"
    )
    return "\n".join(lines)


def format_top_commands(ledger: StatsLedger, top_k: int = 8) -> str:
    """The ``top_k`` hottest mnemonics by issue count, with stage mix."""
    commands = ledger.totals().commands
    if not commands:
        return "no commands recorded"
    total = sum(commands.values())
    ranked = sorted(commands.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    lines = [f"{'mnemonic':>10} {'count':>12} {'share':>6}  stages"]
    for mnemonic, count in ranked:
        stages = [
            f"{phase}:{ledger.command_count(mnemonic, phase)}"
            for phase in ledger.phases()
            if ledger.command_count(mnemonic, phase)
        ]
        lines.append(
            f"{mnemonic:>10} {count:>12d} {count / total:>6.1%}  "
            + (" ".join(stages) or "-")
        )
    return "\n".join(lines)


def _energy_table(platform_state: "dict | None") -> dict:
    """Mnemonic -> nJ/issue from a journaled platform's own parameters.

    Falls back to the library defaults when the journal predates
    parameter snapshots (or none is available at all), so the power
    section degrades to an estimate rather than disappearing.
    """
    from repro.core.energy import DEFAULT_ENERGY, EnergyParameters
    from repro.core.timing import (
        DEFAULT_TIMING,
        TimingParameters,
        command_energy_table,
    )

    timing, energy = DEFAULT_TIMING, DEFAULT_ENERGY
    if platform_state:
        try:
            timing = TimingParameters(**platform_state["timing"])
            energy = EnergyParameters(**platform_state["energy"])
        except (KeyError, TypeError, ValueError):
            pass
    return command_energy_table(timing, energy)


def format_power_section(
    ledger: StatsLedger,
    energy_table: "dict | None" = None,
    top_k: int = 5,
) -> str:
    """Top-``top_k`` mnemonics by attributed energy, plus average power.

    Energy per mnemonic is ``count * nJ/issue`` from the timing/energy
    cost table — the same table the simulator charges from, so the
    column sums to the ledger's total energy up to float rounding.
    """
    total = ledger.totals()
    commands = total.commands
    if not commands:
        return "no commands recorded"
    table = energy_table if energy_table is not None else _energy_table(None)
    per_mnemonic = {
        name: count * table.get(name, 0.0)
        for name, count in commands.items()
    }
    energy_total = sum(per_mnemonic.values()) or 1.0
    avg_w = total.energy_nj / total.time_ns if total.time_ns > 0 else 0.0
    lines = [
        f"average power: {avg_w:.3f} W over {total.time_ns / 1e3:.3f} us "
        f"({total.energy_nj:.3f} nJ)",
        f"{'mnemonic':>10} {'count':>12} {'energy':>14} {'share':>6}",
    ]
    ranked = sorted(
        per_mnemonic.items(), key=lambda kv: (-kv[1], kv[0])
    )[:top_k]
    for name, energy_nj in ranked:
        lines.append(
            f"{name:>10} {commands[name]:>12d} {energy_nj:>11.3f} nJ "
            f"{energy_nj / energy_total:>6.1%}"
        )
    return "\n".join(lines)


def _ring(flight: dict, key: str) -> list[dict]:
    """One ring of a dump, entries that are not objects skipped."""
    entries = flight.get(key)
    if not isinstance(entries, list):
        return []
    return [entry for entry in entries if isinstance(entry, dict)]


def format_flight_section(flight: dict) -> str:
    """Human rendering of one flight-recorder dump (``flight.json``)."""
    spans = _ring(flight, "spans")
    lines = [
        f"reason: {flight.get('reason', '<unknown>')}",
        f"captured: {len(_ring(flight, 'commands'))} commands, "
        f"{len(spans)} spans, "
        f"{len(_ring(flight, 'events'))} events",
    ]
    if spans:
        lines.append("last spans:")
        for span in spans[-5:]:
            lines.append(
                f"  {span.get('name')} lane={span.get('lane')} "
                f"sim=[{span.get('sim_start_ns')}..{span.get('sim_end_ns')}] ns"
            )
    return "\n".join(lines)


def inspect_job(job_dir: "str | Path") -> dict:
    """Load everything inspectable from a job directory.

    Returns a dict with the journal config, the last valid record's
    stage name and payload, a rehydrated :class:`StatsLedger`, the
    occupancy records, and the decision log.

    Raises:
        InputError: the directory holds no readable job journal.
    """
    from repro.core.platform import PimAssembler
    from repro.runtime.checkpoint import JobJournal

    journal = JobJournal(job_dir)
    try:
        config = journal.load_config()
    except JournalError as exc:
        raise InputError(f"no job journal in {job_dir}: {exc}")
    flight = FlightRecorder.load(job_dir)
    latest = journal.latest()
    if latest is None:
        return {
            "config": config,
            "stage": None,
            "ledger": StatsLedger(),
            "subarrays": [],
            "storage": None,
            "decisions": journal.decisions(),
            "platform_state": None,
            "flight": flight,
        }
    ref, payload = latest
    ledger = StatsLedger()
    ledger.load_state(payload["platform"]["stats"])
    pim = PimAssembler.from_state(payload["platform"])
    store = pim.device.store
    return {
        "config": config,
        "stage": ref.stage,
        "ledger": ledger,
        "subarrays": subarray_utilization(pim),
        "storage": {
            "slots": store.n_slots,
            "bytes": store.nbytes,
            "slot_bytes": store.slot_nbytes,
            "unpacked_slot_bytes": store.unpacked_slot_nbytes,
        },
        "decisions": journal.decisions(),
        "platform_state": payload["platform"],
        "flight": flight,
    }


def _storage_counters(job_dir: "str | Path") -> dict:
    """Pack/unpack conversion counters from ``metrics.json``, if written.

    The metrics snapshot is optional (observability off means no file);
    a missing or unreadable file is simply no churn data, not an error.
    """
    import json

    path = Path(job_dir) / "metrics.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}
    out = {}
    for name, snap in doc.get("metrics", {}).items():
        if name.startswith(("storage.pack_rows", "storage.unpack_rows")):
            if snap.get("type") == "counter":
                out[name] = snap.get("value", 0)
    return out


def render_job_inspection(
    job_dir: "str | Path", top_k: int = 8
) -> str:
    """The full ``repro inspect`` report for one job directory."""
    info = inspect_job(job_dir)
    config = info["config"].get("config", {})
    lines = [
        f"job: {job_dir}",
        f"last journaled stage: {info['stage'] or '<none — no stage completed>'}",
        f"config: k={config.get('k')} engine={config.get('engine')} "
        f"min_count={config.get('min_count')} "
        f"reads={info['config'].get('reads')}",
        "",
        "per-stage accounting (simulated device time)",
        format_stage_table(info["ledger"]),
        "",
        f"hottest mnemonics (top {top_k})",
        format_top_commands(info["ledger"], top_k=top_k),
        "",
        "power (top energy mnemonics)",
        format_power_section(
            info["ledger"],
            energy_table=_energy_table(info.get("platform_state")),
            top_k=top_k,
        ),
        "",
        "sub-array occupancy",
        format_subarray_heatmap(info["subarrays"]),
    ]
    storage = info.get("storage")
    if storage is not None:
        ratio = storage["slot_bytes"] / storage["unpacked_slot_bytes"]
        lines += [
            "",
            "packed storage (columnar bit-plane store)",
            f"  slots: {storage['slots']}  backing bytes: {storage['bytes']}"
            f"  bytes/slot: {storage['slot_bytes']}"
            f" ({ratio:.3f}x of unpacked {storage['unpacked_slot_bytes']})",
        ]
        counters = _storage_counters(job_dir)
        if counters:
            lines += [
                "  pack-boundary churn (rows converted):",
                *(
                    f"    {name}: {int(value)}"
                    for name, value in sorted(counters.items())
                ),
            ]
    decisions = info["decisions"]
    lines += ["", f"retry-ladder decisions: {len(decisions)}"]
    for decision in decisions:
        lines.append(
            f"  {decision.get('stage')}#{decision.get('attempt')} "
            f"{decision.get('action')} after {decision.get('error')}"
        )
    if info.get("flight"):
        lines += [
            "",
            "flight recorder dump",
            format_flight_section(info["flight"]),
        ]
    return "\n".join(lines)
