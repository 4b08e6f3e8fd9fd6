"""Power-profile sweep: end-to-end assembly under the power timeline.

Runs the same synthetic assembly workload on both execution engines
with a full :class:`~repro.observability.session.ObservabilitySession`
active, and reports what the power telemetry saw: total energy (and
whether it *exactly* matches the stats ledger — the conservation
invariant), average/peak/thermal-proxy power, per-stage energy split
and the top energy mnemonics.

This is the library layer under ``benchmarks/bench_power_timeline.py``
(which adds wall-clock numbers, a JSON record and the ``--check``
conservation gate for CI); importing it never touches a clock, so the
profile is deterministic for a given seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = [
    "PowerProfile",
    "format_power_profiles",
    "run_power_profile",
    "run_power_profile_sweep",
]


@dataclass(frozen=True)
class PowerProfile:
    """One engine's power telemetry for one workload."""

    engine: str
    reads: int
    k: int
    events: int
    #: timeline total vs the stats ledger's own total (nJ)
    timeline_energy_nj: float
    ledger_energy_nj: float
    #: sum over binned deposits (math.fsum of every bin)
    integral_nj: float
    total_time_ns: float
    average_power_w: float
    peak_power_w: float
    thermal_proxy_w: float
    stage_energy_nj: dict = field(default_factory=dict)
    top_mnemonics: tuple = ()

    @property
    def conserved(self) -> bool:
        """The conservation invariant, both halves.

        The timeline total must equal the ledger total *bit-exactly*
        (both sides accumulate the identical float sequence), and the
        binned integral must agree to float-summation tolerance.
        """
        if self.timeline_energy_nj != self.ledger_energy_nj:
            return False
        scale = max(1.0, abs(self.timeline_energy_nj))
        return abs(self.integral_nj - self.timeline_energy_nj) <= 1e-9 * scale

    def to_dict(self) -> dict:
        return {
            "engine": self.engine,
            "reads": self.reads,
            "k": self.k,
            "events": self.events,
            "timeline_energy_nj": self.timeline_energy_nj,
            "ledger_energy_nj": self.ledger_energy_nj,
            "integral_nj": self.integral_nj,
            "conserved": self.conserved,
            "total_time_ns": self.total_time_ns,
            "average_power_w": self.average_power_w,
            "peak_power_w": self.peak_power_w,
            "thermal_proxy_w": self.thermal_proxy_w,
            "stage_energy_nj": dict(self.stage_energy_nj),
            "top_mnemonics": [
                {"mnemonic": name, "energy_nj": energy}
                for name, energy in self.top_mnemonics
            ],
        }


def _workload(length: int, coverage: float, seed: int):
    from repro.genome.reads import ReadSimulator
    from repro.genome.reference import synthetic_chromosome

    reference = synthetic_chromosome(length, seed=seed)
    sim = ReadSimulator(read_length=70, seed=seed + 1)
    return sim.sample(reference, sim.reads_for_coverage(length, coverage))


def run_power_profile(
    engine: str = "scalar",
    length: int = 2000,
    coverage: float = 10.0,
    k: int = 15,
    seed: int = 47,
) -> PowerProfile:
    """Assemble one synthetic workload under a session; profile it."""
    from repro.assembly.pipeline import _sized_device, assemble_with_pim
    from repro.observability.session import ObservabilitySession

    reads = _workload(length, coverage, seed)
    session = ObservabilitySession()
    with session.activate():
        # build the device inside the session so its ledger connects
        pim = _sized_device(reads, k)
        assemble_with_pim(reads, k=k, pim=pim, engine=engine)
    power = session.power
    ledger = pim.stats.totals()
    return PowerProfile(
        engine=engine,
        reads=len(reads),
        k=k,
        events=power.events,
        timeline_energy_nj=power.total_energy_nj,
        ledger_energy_nj=ledger.energy_nj,
        integral_nj=power.integral_nj(),
        total_time_ns=power.cursor_ns,
        average_power_w=power.average_power_w(),
        peak_power_w=power.peak_power_w(),
        thermal_proxy_w=power.thermal_proxy_w(),
        stage_energy_nj=power.summary()["stages"],
        top_mnemonics=tuple(power.top_mnemonics(5)),
    )


def run_power_profile_sweep(
    engines: tuple = ("scalar", "bulk"),
    length: int = 2000,
    coverage: float = 10.0,
    k: int = 15,
    seed: int = 47,
) -> list[PowerProfile]:
    """One :class:`PowerProfile` per execution engine, same workload."""
    return [
        run_power_profile(
            engine=engine, length=length, coverage=coverage, k=k, seed=seed
        )
        for engine in engines
    ]


def format_power_profiles(profiles: list) -> str:
    """Human table of a sweep (one row per engine)."""
    header = (
        f"{'engine':>8} {'events':>9} {'energy':>14} {'avg W':>8} "
        f"{'peak W':>8} {'thermal W':>9} {'conserved':>9}"
    )
    lines = [header, "-" * len(header)]
    for p in profiles:
        lines.append(
            f"{p.engine:>8} {p.events:>9d} {p.timeline_energy_nj:>11.3f} nJ "
            f"{p.average_power_w:>8.3f} {p.peak_power_w:>8.3f} "
            f"{p.thermal_proxy_w:>9.3f} "
            f"{'yes' if p.conserved else 'NO':>9}"
        )
    if any(not math.isfinite(p.timeline_energy_nj) for p in profiles):
        lines.append("warning: non-finite energy in at least one profile")
    return "\n".join(lines)
