"""End-to-end session wiring: pipeline spans, sim clock, export."""

import pytest

from repro.assembly.pipeline import STAGE_NAMES, _sized_device, assemble_with_pim
from repro.observability.export import chrome_trace, validate_chrome_trace
from repro.observability.session import (
    ObservabilitySession,
    active_session,
    connect_ledger,
)
from repro.genome.reads import ReadSimulator
from repro.genome.reference import synthetic_chromosome


@pytest.fixture(scope="module")
def reads():
    reference = synthetic_chromosome(1200, seed=11)
    sim = ReadSimulator(read_length=70, seed=12)
    return sim.sample(reference, sim.reads_for_coverage(1200, 10.0))


def _traced_run(reads, **kwargs):
    session = ObservabilitySession()
    with session.activate():
        pim = _sized_device(reads, 15)
        result = assemble_with_pim(reads, 15, pim=pim, **kwargs)
    return session, pim, result


class TestSessionWiring:
    def test_platform_auto_connects_while_active(self, reads):
        session, pim, _ = _traced_run(reads)
        assert pim.stats._recorder is session

    def test_inactive_platform_stays_unconnected(self, reads):
        assert active_session() is None
        pim = _sized_device(reads, 15)
        assert pim.stats._recorder is None

    def test_connect_ledger_is_noop_without_session(self):
        class FakeLedger:
            def attach_recorder(self, recorder):
                raise AssertionError("must not be called")

        connect_ledger(FakeLedger())  # no active session -> no attach

    def test_sim_clock_matches_ledger_total(self, reads):
        session, pim, result = _traced_run(reads)
        assert session.sim_time_ns == pytest.approx(pim.stats.totals().time_ns)
        assert session.sim_time_ns == pytest.approx(result.total_time_ns)

    def test_tracer_and_flight_read_the_timeline_clock(self, reads):
        session, _, _ = _traced_run(reads)
        assert session.sim_time_ns == session.power.cursor_ns
        assert session.tracer.sim_clock() == session.power.cursor_ns
        last = session.flight.snapshot("end")["commands"][-1]
        assert last["sim_ns"] == session.power.cursor_ns


class TestStageSpanAgreement:
    """The acceptance criterion: per-stage span durations on the
    simulated clock agree with ``StatsLedger.totals(stage)``."""

    @pytest.mark.parametrize("engine", ["scalar", "bulk"])
    def test_stage_spans_agree_with_ledger(self, reads, engine):
        session, pim, _ = _traced_run(reads, engine=engine)
        for stage in STAGE_NAMES:
            (stage_span,) = session.tracer.spans(f"stage.{stage}")
            assert stage_span.lane == stage
            assert stage_span.sim_duration_ns == pytest.approx(
                pim.stats.totals(stage).time_ns
            ), stage

    def test_trace_validates_and_has_stage_lanes(self, reads):
        session, _, _ = _traced_run(reads)
        doc = chrome_trace(session.tracer)
        assert validate_chrome_trace(doc) == []
        lane_names = {
            e["args"]["name"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert set(STAGE_NAMES) <= lane_names

    def test_command_metrics_match_ledger(self, reads):
        session, pim, _ = _traced_run(reads)
        totals = pim.stats.totals()
        session.export()  # publishes the timeline's sums
        reg = session.registry
        assert reg.counter("pim.commands.total").value == totals.total_commands
        assert reg.counter("pim.time_ns.total").value == pytest.approx(
            totals.time_ns
        )
        for mnemonic, count in totals.commands.items():
            assert reg.counter(f"pim.commands.{mnemonic}").value == count


class TestExport:
    def test_export_writes_requested_artifacts(self, reads, tmp_path):
        session, pim, _ = _traced_run(reads)
        written = session.export(
            trace_path=tmp_path / "trace.json",
            metrics_path=tmp_path / "metrics.json",
            pim=pim,
        )
        assert len(written) == 2
        assert (tmp_path / "trace.json").exists()
        assert (tmp_path / "metrics.json").exists()
        # occupancy snapshot landed in the gauges
        assert session.registry.gauge("pim.subarray.touched").value > 0

    def test_export_nothing_requested(self, reads):
        session, _, _ = _traced_run(reads)
        assert session.export() == []

    def test_exporting_twice_writes_the_same_metrics(self, reads, tmp_path):
        session, pim, _ = _traced_run(reads)
        session.export(metrics_path=tmp_path / "m1.json", pim=pim)
        session.export(metrics_path=tmp_path / "m2.json", pim=pim)
        first = (tmp_path / "m1.json").read_bytes()
        assert first == (tmp_path / "m2.json").read_bytes()
        assert b'"pim.commands.total"' in first


class TestDisabledOverheadPath:
    def test_instrumented_run_works_without_session(self, reads):
        # the same instrumented code path, observability off
        result = assemble_with_pim(reads, 15)
        assert result.contigs
        assert active_session() is None
