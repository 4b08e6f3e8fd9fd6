"""Flight recorder: bounded rings, dump/load, failure-path dumps."""

import json

import pytest

from repro.errors import StageTimeoutError
from repro.observability.flightrec import FLIGHT_FILENAME, FlightRecorder
from repro.observability.session import ObservabilitySession
from repro.observability.spans import Tracer


class TestRingBounds:
    def test_command_ring_is_bounded(self):
        flight = FlightRecorder(command_capacity=16)
        for i in range(100):
            flight.on_command("AAP1", 1, 1.0, 1.0, None, sim_ns=float(i))
        snap = flight.snapshot("test")
        assert len(snap["commands"]) == 16
        # oldest entries evicted: the survivors are the most recent
        assert snap["commands"][0]["sim_ns"] == 84.0
        assert snap["commands"][-1]["sim_ns"] == 99.0

    def test_all_rings_bounded(self):
        flight = FlightRecorder(
            command_capacity=2, span_capacity=2, event_capacity=2,
        )
        tracer = Tracer(sim_clock=lambda: 0.0)
        tracer.listener = flight
        for i in range(5):
            flight.on_command("AAP1", 1, 1.0, 1.0, None)
            with tracer.span(f"s{i}"):
                pass
            tracer.event(f"e{i}")
        snap = flight.snapshot("x")
        assert len(snap["commands"]) == 2
        assert len(snap["spans"]) == 2
        assert len(snap["events"]) == 2
        assert snap["spans"][-1]["name"] == "s4"


class TestTracerListener:
    def test_span_close_and_event_feed_the_rings(self):
        flight = FlightRecorder()
        tracer = Tracer(sim_clock=lambda: 7.0)
        tracer.listener = flight
        with tracer.span("attempt", lane="job", stage="hashmap"):
            tracer.event("hiccup", code=3)
        snap = flight.snapshot("x")
        assert snap["spans"][0]["name"] == "attempt"
        assert snap["spans"][0]["attributes"]["stage"] == "hashmap"
        assert snap["events"][0]["name"] == "hiccup"

    def test_no_listener_is_fine(self):
        tracer = Tracer(sim_clock=lambda: 0.0)
        with tracer.span("a"):
            tracer.event("b")
        assert len(tracer.spans()) == 1


class TestDumpLoad:
    def test_round_trip(self, tmp_path):
        flight = FlightRecorder()
        flight.on_command("MEM_WR", 2, 5.0, 1.5, "hashmap", sim_ns=10.0)
        path = flight.dump(tmp_path, reason="unit test")
        assert path.name == FLIGHT_FILENAME
        assert flight.dumps == 1
        loaded = FlightRecorder.load(tmp_path)
        assert loaded["format"] == "repro-flight-v1"
        assert loaded["reason"] == "unit test"
        assert loaded["commands"][0]["command"] == "MEM_WR"
        assert loaded["commands"][0]["phase"] == "hashmap"

    def test_dump_never_raises_on_unwritable_dir(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file, not dir")
        flight = FlightRecorder()
        flight.dump(blocker / "sub", reason="x")  # mkdir fails -> swallowed
        assert flight.dumps == 1  # the attempt is still counted

    def test_load_missing_or_corrupt(self, tmp_path):
        assert FlightRecorder.load(tmp_path) is None
        (tmp_path / FLIGHT_FILENAME).write_text("{ not json")
        assert FlightRecorder.load(tmp_path) is None

    @pytest.mark.parametrize("text", ["[1]", '"flight"', "7", "null"])
    def test_load_non_object_is_absent(self, tmp_path, text):
        (tmp_path / FLIGHT_FILENAME).write_text(text)
        assert FlightRecorder.load(tmp_path) is None


class TestFailureDumps:
    """A ReproError escaping the job runner leaves flight.json behind."""

    def _tiny_reads(self):
        from repro.genome.reads import ReadSimulator
        from repro.genome.reference import synthetic_chromosome

        reference = synthetic_chromosome(600, seed=3)
        sim = ReadSimulator(read_length=60, seed=4)
        return sim.sample(reference, sim.reads_for_coverage(600, 6.0))

    def test_stage_timeout_dumps_flight(self, tmp_path):
        from repro.runtime.jobs import JobConfig, JobRunner

        session = ObservabilitySession()
        job_dir = tmp_path / "job"
        with session.activate():
            runner = JobRunner(
                job_dir,
                JobConfig(k=15, stage_timeout_s=1e-9),  # expires instantly
            )
            with pytest.raises(StageTimeoutError):
                runner.run(self._tiny_reads())
        dump = json.loads((job_dir / FLIGHT_FILENAME).read_text())
        assert dump["format"] == "repro-flight-v1"
        assert "StageTimeoutError" in dump["reason"]
        assert session.flight.dumps == 1

    def test_successful_run_leaves_no_dump(self, tmp_path):
        from repro.runtime.jobs import JobConfig, JobRunner

        session = ObservabilitySession()
        job_dir = tmp_path / "job"
        with session.activate():
            JobRunner(job_dir, JobConfig(k=15)).run(self._tiny_reads())
        assert not (job_dir / FLIGHT_FILENAME).exists()
        assert session.flight.dumps == 0
