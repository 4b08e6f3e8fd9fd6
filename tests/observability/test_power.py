"""Power timeline: conservation invariant, binning, lanes, gauges."""

import math
import random

import pytest

from repro.assembly.pipeline import _sized_device, assemble_with_pim
from repro.core.stats import StatsLedger
from repro.genome.reads import ReadSimulator
from repro.genome.reference import synthetic_chromosome
from repro.observability.power import (
    DEFAULT_POWER_LANE,
    PowerTimeline,
)
from repro.observability.session import ObservabilitySession


@pytest.fixture(scope="module")
def reads():
    reference = synthetic_chromosome(900, seed=21)
    sim = ReadSimulator(read_length=70, seed=22)
    return sim.sample(reference, sim.reads_for_coverage(900, 8.0))


class TestConservation:
    """Timeline total energy == ledger total energy, *bit-exactly*."""

    def test_synthetic_stream_is_bit_exact(self):
        rng = random.Random(99)
        ledger = StatsLedger()
        timeline = PowerTimeline(bin_ns=50.0, p_background_w=0.0)
        ledger.attach_recorder(timeline)  # duck-typed Recorder
        for _ in range(2000):
            ledger.record(
                "AAP2",
                count=rng.randrange(1, 5),
                time_ns=rng.random() * 300.0,
                energy_nj=rng.random() * 7.0,
            )
        totals = ledger.totals()
        assert timeline.total_energy_nj == totals.energy_nj  # no approx!
        assert timeline.cursor_ns == totals.time_ns

    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_end_to_end_both_engines(self, reads, engine):
        session = ObservabilitySession()
        with session.activate():
            pim = _sized_device(reads, 15)
            assemble_with_pim(reads, 15, pim=pim, engine=engine)
        totals = pim.stats.totals()
        assert session.power.total_energy_nj == totals.energy_nj
        assert session.power.cursor_ns == totals.time_ns
        # per-stage energies and times mirror the ledger's phase accounting
        stages = session.power.summary()["stages"]
        assert stages
        for stage, energy in stages.items():
            assert energy == pim.stats.totals(stage).energy_nj
            assert session.power.phase_time_ns[stage] == (
                pim.stats.totals(stage).time_ns
            )

    def test_integral_matches_total(self, reads):
        session = ObservabilitySession()
        with session.activate():
            assemble_with_pim(reads, 15)
        total = session.power.total_energy_nj
        assert session.power.integral_nj() == pytest.approx(
            total, rel=1e-12, abs=1e-9
        )


class TestBinning:
    def test_event_spanning_many_bins_deposits_exactly(self):
        timeline = PowerTimeline(bin_ns=10.0, p_background_w=0.0)
        # 7 nJ over 95 ns -> 10 bins touched, last one partial
        timeline.on_command("AAP1", 1, 95.0, 7.0, None)
        assert timeline.integral_nj() == pytest.approx(7.0, abs=1e-12)
        assert timeline.total_energy_nj == 7.0

    def test_zero_time_event_lands_in_cursor_bin(self):
        timeline = PowerTimeline(bin_ns=10.0, p_background_w=0.0)
        timeline.on_command("AAP1", 1, 25.0, 1.0, None)
        timeline.on_command("LATCH_CLR", 1, 0.0, 0.5, None)
        assert timeline.total_energy_nj == 1.5
        assert timeline.integral_nj() == pytest.approx(1.5, abs=1e-12)

    def test_series_is_gap_free_and_includes_background(self):
        timeline = PowerTimeline(bin_ns=10.0, p_background_w=2.0)
        timeline.on_command("AAP1", 1, 10.0, 5.0, None)  # bin 0: 0.5 W
        timeline.on_command("NOP", 1, 35.0, 0.0, None)  # advance, no energy
        timeline.on_command("AAP1", 1, 5.0, 1.0, None)
        series = timeline.series()
        starts = [start for start, _ in series]
        assert starts == sorted(starts)
        # consecutive bins, no holes
        assert all(
            b - a == pytest.approx(10.0)
            for a, b in zip(starts, starts[1:])
        )
        # idle bins sit exactly at background power
        powers = dict(series)
        assert min(powers.values()) == pytest.approx(2.0)
        assert powers[starts[0]] == pytest.approx(2.0 + 5.0 / 10.0)


class TestLanes:
    def test_lane_is_the_phase_or_job(self):
        timeline = PowerTimeline(bin_ns=10.0, p_background_w=0.0)
        timeline.on_command("AAP1", 1, 10.0, 3.0, None)
        timeline.on_command("AAP1", 1, 10.0, 2.0, "hashmap")
        assert timeline.phase_energy_nj == {"job": 3.0, "hashmap": 2.0}
        summary = timeline.summary()
        assert set(summary["lanes"]) == {"job", "hashmap"}
        # "job" is the lane of records outside a phase, not a stage
        assert summary["stages"] == {"hashmap": 2.0}

    def test_lane_sums_conserve_total(self):
        timeline = PowerTimeline(bin_ns=10.0, p_background_w=0.0)
        rng = random.Random(5)
        for i in range(500):
            timeline.on_command(
                "AAP2", 1, rng.random() * 40.0, rng.random() * 3.0,
                f"lane-{i % 3}",
            )
        lane_sum = math.fsum(timeline.phase_energy_nj.values())
        assert lane_sum == pytest.approx(
            timeline.total_energy_nj, rel=1e-12
        )
        assert set(timeline.lanes()) == {
            "lane-0", "lane-1", "lane-2"
        }

    def test_default_lane_when_nothing_known(self):
        timeline = PowerTimeline(bin_ns=10.0)
        timeline.on_command("AAP1", 1, 1.0, 1.0, None)
        assert timeline.lanes() == [DEFAULT_POWER_LANE]


class TestGauges:
    def test_peak_at_least_average(self):
        timeline = PowerTimeline(bin_ns=10.0, p_background_w=2.0)
        timeline.on_command("AAP1", 1, 10.0, 50.0, None)  # hot bin
        timeline.on_command("AAP1", 1, 90.0, 1.0, None)  # cool tail
        assert timeline.peak_power_w() >= timeline.average_power_w()
        assert timeline.average_power_w() == pytest.approx(
            51.0 / 100.0 + 2.0
        )

    def test_thermal_proxy_between_background_and_peak(self):
        timeline = PowerTimeline(
            bin_ns=10.0, p_background_w=2.0, thermal_tau_ns=100.0
        )
        timeline.on_command("AAP1", 1, 50.0, 100.0, None)
        thermal = timeline.thermal_proxy_w()
        assert 2.0 < thermal <= timeline.peak_power_w()

    def test_top_mnemonics_ranked_by_energy(self):
        timeline = PowerTimeline(bin_ns=10.0, p_background_w=0.0)
        timeline.on_command("MEM_WR", 1, 1.0, 10.0, None)
        timeline.on_command("AAP1", 5, 1.0, 2.0, None)
        timeline.on_command("DPU", 1, 1.0, 30.0, None)
        top = timeline.top_mnemonics(2)
        assert [name for name, _ in top] == ["DPU", "MEM_WR"]

    def test_publish_gauges(self):
        from repro.observability.metrics import MetricsRegistry

        timeline = PowerTimeline(bin_ns=10.0, p_background_w=2.0)
        timeline.on_command("AAP1", 1, 10.0, 5.0, "t0")
        registry = MetricsRegistry()
        timeline.publish(registry)
        assert registry.gauge("power.peak_w").value == pytest.approx(2.5)
        assert registry.gauge("power.average_w").value == pytest.approx(2.5)
        assert registry.gauge("power.lane_energy_nj.t0").value == 5.0
        assert registry.gauge("power.thermal_proxy_w").value > 2.0

    def test_publish_command_counters(self):
        from repro.observability.metrics import MetricsRegistry

        timeline = PowerTimeline(bin_ns=10.0)
        timeline.on_command("AAP1", 3, 120.0, 9.0, "hashmap")
        timeline.on_command("AAP1", 1, 40.0, 3.0, None)
        registry = MetricsRegistry()
        timeline.publish(registry)
        assert registry.counter("pim.commands.AAP1").value == 4
        assert registry.counter("pim.time_ns.AAP1").value == 160.0
        assert registry.counter("pim.energy_nj.AAP1").value == 12.0
        assert registry.counter("pim.commands.total").value == 4
        assert registry.counter("pim.time_ns.total").value == 160.0
        assert registry.counter("pim.energy_nj.total").value == 12.0
        assert registry.counter("pim.stage_time_ns.hashmap").value == 120.0
        # the records outside a phase have no stage counter
        assert registry.get("pim.stage_time_ns.job") is None
        snapshot = registry.snapshot()
        timeline.publish(registry)  # assigned, not added
        assert registry.snapshot() == snapshot

    def test_publish_nothing_seen_writes_no_counters(self):
        from repro.observability.metrics import MetricsRegistry

        registry = MetricsRegistry()
        PowerTimeline(bin_ns=10.0).publish(registry)
        assert not [n for n in registry.names() if n.startswith("pim.")]

    def test_summary_shape(self):
        timeline = PowerTimeline(bin_ns=10.0)
        timeline.on_command("AAP1", 2, 10.0, 5.0, "hashmap")
        summary = timeline.summary()
        assert summary["events"] == 1
        assert summary["total_energy_nj"] == 5.0
        assert summary["stages"] == {"hashmap": 5.0}
        assert summary["mnemonics"]["AAP1"]["count"] == 2


class TestValidation:
    def test_rejects_nonpositive_bin(self):
        with pytest.raises(ValueError):
            PowerTimeline(bin_ns=0.0)

    def test_rejects_nonpositive_tau(self):
        with pytest.raises(ValueError):
            PowerTimeline(thermal_tau_ns=-1.0)


class TestOffPathCost:
    """Telemetry off => the command hot path never touches this package."""

    def test_no_observability_allocations_when_disabled(self):
        import tracemalloc

        ledger = StatsLedger()
        assert ledger._recorder is None  # nothing attached
        # warm up interned strings / counters outside the trace window
        ledger.record("AAP2", count=1, time_ns=1.0, energy_nj=1.0)

        tracemalloc.start()
        try:
            for _ in range(2000):
                ledger.record("AAP2", count=1, time_ns=1.0, energy_nj=1.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        # match the package source, not this test file's own path
        observability = snapshot.filter_traces(
            [tracemalloc.Filter(True, "*/repro/observability/*")]
        )
        assert observability.statistics("filename") == []

    def test_recorder_branch_is_a_single_none_check(self):
        """The disabled path is `if self._recorder is not None` — no
        indirection through the observability package at all."""
        import inspect as _inspect

        from repro.core import stats as stats_module

        source = _inspect.getsource(stats_module.StatsLedger.record)
        assert "observability" not in source
        assert "_recorder is not None" in source
