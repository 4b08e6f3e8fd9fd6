"""Metrics registry: primitives, the Recorder protocol, activation."""

import pytest

from repro.core.stats import StatsLedger
from repro.observability.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Recorder,
    active_registry,
    inc,
    observe,
    set_gauge,
)
from repro.observability.session import ObservabilitySession


class TestPrimitives:
    def test_counter_monotone(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_overwrites(self):
        g = Gauge("g")
        assert g.value is None
        g.set(5)
        g.set(2)
        assert g.value == 2

    def test_histogram_tracks_shape(self):
        h = Histogram("h")
        for v in (1, 2, 3, 1000):
            h.observe(v)
        assert h.count == 4
        assert h.min == 1 and h.max == 1000
        assert h.mean == pytest.approx(1006 / 4)
        snap = h.snapshot()
        assert snap["type"] == "histogram"
        # 1 -> bucket 0 (<=1), 2 -> bucket 1, 3 -> bucket 2, 1000 -> bucket 10
        assert snap["buckets"] == {"le_2e0": 1, "le_2e1": 1, "le_2e2": 1, "le_2e10": 1}

    def test_histogram_saturates_top_bucket(self):
        h = Histogram("h")
        h.observe(2.0**40)
        assert h.buckets[Histogram.MAX_BUCKET] == 1


class TestRegistry:
    def test_get_or_create_and_kind_mismatch(self):
        reg = MetricsRegistry()
        c = reg.counter("x")
        assert reg.counter("x") is c
        with pytest.raises(TypeError):
            reg.gauge("x")
        assert reg.get("missing") is None

    def test_session_is_the_recorder_not_the_registry(self):
        assert isinstance(ObservabilitySession(), Recorder)
        assert not isinstance(MetricsRegistry(), Recorder)

    def test_snapshot_is_sorted_and_json_shaped(self):
        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.gauge("a").set(1)
        reg.histogram("c").observe(2)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b", "c"]
        assert snap["a"] == {"type": "gauge", "value": 1}
        assert snap["b"] == {"type": "counter", "value": 1.0}


class TestModuleHelpers:
    def test_inactive_helpers_noop(self):
        assert active_registry() is None
        inc("nothing")
        observe("nothing", 1)
        set_gauge("nothing", 1)  # must not raise, must not register

    def test_activation_routes_helpers(self):
        reg = MetricsRegistry()
        with reg.activate():
            assert active_registry() is reg
            inc("jobs", 2)
            observe("sizes", 5)
            set_gauge("depth", 3)
        assert active_registry() is None
        assert reg.counter("jobs").value == 2
        assert reg.histogram("sizes").count == 1
        assert reg.gauge("depth").value == 3


class TestLedgerForwarding:
    def test_ledger_forwards_records_to_recorder(self):
        session = ObservabilitySession()
        ledger = StatsLedger()
        ledger.attach_recorder(session)
        with ledger.phase("hashmap"):
            ledger.record("AAP2", time_ns=30.0, energy_nj=2.0, count=3)
        ledger.record("MEM_RD", time_ns=10.0, energy_nj=1.0)
        session.export()  # publishes the recorded sums
        reg = session.registry
        assert reg.counter("pim.commands.AAP2").value == 3
        assert reg.counter("pim.stage_time_ns.hashmap").value == 30.0
        # the root-phase record carries phase=None -> no stage counter
        assert reg.get("pim.stage_time_ns.None") is None
        assert reg.get("pim.stage_time_ns.job") is None
        # the ledger itself is untouched by the mirroring
        assert ledger.totals().time_ns == 40.0

    def test_detach_stops_forwarding(self):
        session = ObservabilitySession()
        ledger = StatsLedger()
        ledger.attach_recorder(session)
        ledger.record("AAP1", time_ns=1.0, energy_nj=1.0)
        ledger.attach_recorder(None)
        ledger.record("AAP1", time_ns=1.0, energy_nj=1.0)
        assert session.power.mnemonic_count == {"AAP1": 1}


class TestHistogramQuantiles:
    """Property tests: bucket-interpolated quantiles vs exact ones."""

    @staticmethod
    def _exact_quantile(samples, q):
        import math

        ordered = sorted(samples)
        rank = max(1, math.ceil(q * len(ordered) - 1e-9))
        return ordered[rank - 1]

    def test_empty_histogram_is_zero(self):
        assert Histogram("h").quantile(0.5) == 0.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(1.5)
        with pytest.raises(ValueError):
            Histogram("h").quantile(-0.1)

    def test_single_observation_every_quantile(self):
        h = Histogram("h")
        h.observe(37.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert h.quantile(q) == 37.0  # clamped to min == max

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_within_factor_two_of_exact(self, seed, q):
        """Power-of-two buckets guarantee a 2x accuracy envelope for
        values above the first bucket bound (1.0)."""
        import random

        rng = random.Random(seed)
        samples = [rng.uniform(1.0, 5000.0) for _ in range(500)]
        h = Histogram("h")
        for value in samples:
            h.observe(value)
        exact = self._exact_quantile(samples, q)
        estimate = h.quantile(q)
        assert exact / 2.0 <= estimate <= exact * 2.0

    @pytest.mark.parametrize("seed", [7, 8])
    def test_monotone_in_q(self, seed):
        import random

        rng = random.Random(seed)
        h = Histogram("h")
        for _ in range(300):
            h.observe(rng.expovariate(1 / 50.0))
        quantiles = [h.quantile(q / 20.0) for q in range(21)]
        assert quantiles == sorted(quantiles)

    def test_clamped_to_observed_range(self):
        h = Histogram("h")
        for value in (10.0, 11.0, 12.0):
            h.observe(value)
        assert h.quantile(0.0) >= h.min
        assert h.quantile(1.0) <= h.max

    def test_identical_samples_recovered_exactly(self):
        h = Histogram("h")
        for _ in range(100):
            h.observe(100.0)
        for q in (0.5, 0.95, 0.99):
            assert h.quantile(q) == 100.0

    def test_snapshot_carries_quantiles(self):
        h = Histogram("h")
        for value in (1.0, 2.0, 3.0):
            h.observe(value)
        snap = h.snapshot()
        assert set(snap) >= {"p50", "p95", "p99"}
        assert snap["p50"] <= snap["p95"] <= snap["p99"]
