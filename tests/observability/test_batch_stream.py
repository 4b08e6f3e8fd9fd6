"""Batch-native accounting: each batch entry point against the per-record
loop it replaces.

``StatsLedger.record_batch``, ``PowerTimeline.on_batch``,
``FlightRecorder.on_batch`` and ``ObservabilitySession.on_batch`` must
leave every accumulator bit-identical (compared through ``float.hex``)
to calling the scalar entry point once per record, in order.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.stats import StatsLedger
from repro.observability import metrics
from repro.observability.flightrec import FlightRecorder
from repro.observability.power import PowerTimeline
from repro.observability.session import ObservabilitySession

NAMES = ("AAP1", "MEM_RD", "VRF_AAP")
BIN_NS = 100.0

#: times that hit the awkward cases: zero, exact bin widths and
#: boundaries, events longer than a bin
TIMES = st.one_of(
    st.sampled_from([0.0, BIN_NS, BIN_NS / 2, 0.1, 3 * BIN_NS, 99.99]),
    st.floats(0.0, 4 * BIN_NS, allow_nan=False, allow_infinity=False),
)
ENERGIES = st.one_of(
    st.just(0.0), st.floats(0.0, 50.0, allow_nan=False, allow_infinity=False)
)
EVENT = st.tuples(
    st.integers(0, len(NAMES) - 1), st.integers(1, 6), TIMES, ENERGIES
)
#: batches of (phase, events); an empty batch records nothing
BATCHES = st.lists(
    st.tuples(
        st.sampled_from([None, "hashmap", "traverse"]),
        # past metrics.SHORT_SUM, so both ways of summing run
        st.lists(EVENT, max_size=100),
    ),
    min_size=1,
    max_size=6,
)


def stream(events):
    """``(names, codes, counts, time_ns, energy_nj)`` of ``events``, with
    ``names`` in order of first appearance."""
    names = list(dict.fromkeys(NAMES[code] for code, _, _, _ in events))
    codes = [names.index(NAMES[code]) for code, _, _, _ in events]
    _, counts, time_ns, energy_nj = zip(*events) if events else ([],) * 4
    return (
        names,
        np.array(codes, dtype=np.intp),
        np.array(counts, dtype=np.int64),
        np.array(time_ns, dtype=float),
        np.array(energy_nj, dtype=float),
    )


def hexed(value):
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return [(k, hexed(v)) for k, v in value.items()]
    return value


class Stream:
    """Recorder that expands every batch into its records."""

    def __init__(self):
        self.records = []

    def on_command(self, command, count, time_ns, energy_nj, phase):
        self.records.append(
            (command, count, hexed(time_ns), hexed(energy_nj), phase)
        )

    def on_batch(self, names, codes, counts, time_ns, energy_nj, phase):
        for code, count, t, e in zip(
            codes.tolist(),
            counts.tolist(),
            time_ns.tolist(),
            energy_nj.tolist(),
        ):
            self.on_command(names[code], count, t, e, phase)


def timeline_state(timeline):
    return {
        name: hexed(getattr(timeline, name))
        for name in (
            "events",
            "_cursor_ns",
            "total_energy_nj",
            "phase_time_ns",
            "phase_energy_nj",
            "mnemonic_energy_nj",
            "mnemonic_time_ns",
            "mnemonic_count",
            "_bins",
        )
    } | {
        "phase_bins": [
            (phase, hexed(bins)) for phase, bins in timeline._phase_bins.items()
        ]
    }


class TestRunningSums:
    @given(
        st.booleans(),
        st.lists(st.tuples(st.integers(0, 3), ENERGIES), max_size=90),
        st.sampled_from([(4096, 64), (3, 0), (1, 0)]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equal_a_python_loop(self, scattered, pairs, sizes):
        """Every block size and either way of summing equals ``+=``,
        with the addends given as one scattered family or one family
        per total."""
        seeds = [0.0, 1.5, 0.1, 7.25]
        expected = list(seeds)
        for row, value in pairs:
            expected[row] += value
        if scattered:
            addends = [
                (
                    np.array([r for r, _ in pairs], dtype=np.intp),
                    np.array([v for _, v in pairs], dtype=float),
                )
            ]
        else:
            addends = [
                (row, np.array([v for r, v in pairs if r == row], dtype=float))
                for row in range(4)
            ]
        block, short = sizes
        with mock.patch.object(metrics, "SUM_BLOCK", block), mock.patch.object(
            metrics, "SHORT_SUM", short
        ):
            got = metrics.running_sums(seeds, addends)
        assert [x.hex() for x in got] == [x.hex() for x in expected]


class TestLedger:
    @given(BATCHES)
    @settings(max_examples=150, deadline=None)
    def test_record_batch_is_a_record_loop(self, batches):
        runs = []
        for batched in (True, False):
            ledger, stream = StatsLedger(), Stream()
            ledger.attach_recorder(stream)
            for phase, events in batches:
                with ledger.phase("stage"):
                    if phase is None:
                        self.feed(ledger, events, batched)
                    else:
                        with ledger.phase(phase):
                            self.feed(ledger, events, batched)
            state = ledger.state_dict()
            runs.append(
                (
                    [hexed(state[key]) for key in ("time_ns", "energy_nj")],
                    [(k, list(v.items())) for k, v in state["commands"].items()],
                    stream.records,
                )
            )
        assert runs[0] == runs[1]

    @staticmethod
    def feed(ledger, events, batched):
        if batched:
            ledger.record_batch(*stream(events))
            return
        for code, count, t, e in events:
            ledger.record(NAMES[code], time_ns=t, energy_nj=e, count=count)

    def test_empty_batch_creates_no_phase(self):
        ledger = StatsLedger()
        with ledger.phase("hashmap"):
            ledger.record_batch(*stream([]))
        assert ledger.phases() == [] and ledger.state_dict()["time_ns"] == {}

    def test_rejects_a_name_the_stream_never_uses(self):
        """An unused name would key a zero count no record loop keys."""
        _, codes, counts, time_ns, energy_nj = stream([(1, 2, 1.0, 1.0)])
        with pytest.raises(ValueError, match="every command name"):
            StatsLedger().record_batch(
                ["AAP1", "MEM_RD"], codes + 1, counts, time_ns, energy_nj
            )

    @pytest.mark.parametrize(
        "event", [(0, 0, 1.0, 1.0), (0, 1, -1.0, 1.0), (0, 1, 1.0, -1.0)]
    )
    def test_rejects_what_record_rejects(self, event):
        with pytest.raises(ValueError):
            StatsLedger().record_batch(
                *stream([(0, 1, 1.0, 1.0), event])
            )
        with pytest.raises(ValueError):
            code, count, t, e = event
            StatsLedger().record(NAMES[code], t, e, count=count)


class TestRecorders:
    @given(BATCHES)
    @settings(max_examples=200, deadline=None)
    def test_power_timeline_on_batch_is_an_on_command_loop(self, batches):
        runs = []
        for batched in (True, False):
            timeline = PowerTimeline(bin_ns=BIN_NS, p_background_w=0.0)
            for phase, events in batches:
                if batched:
                    timeline.on_batch(*stream(events), phase)
                    continue
                for code, count, t, e in events:
                    timeline.on_command(NAMES[code], count, t, e, phase)
            runs.append(timeline_state(timeline))
        assert runs[0] == runs[1]

    @given(BATCHES, st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_session_and_flight_ring_equal_an_on_command_loop(
        self, batches, capacity
    ):
        """Batches longer than the ring keep only its tail, each record
        stamped with the simulated clock after it."""
        runs = []
        for batched in (True, False):
            session = ObservabilitySession()
            session.power = PowerTimeline(bin_ns=BIN_NS, p_background_w=0.0)
            session.flight = FlightRecorder(command_capacity=capacity)
            for phase, events in batches:
                if batched:
                    session.on_batch(*stream(events), phase)
                    continue
                for code, count, t, e in events:
                    session.on_command(NAMES[code], count, t, e, phase)
            runs.append(
                (
                    timeline_state(session.power),
                    [
                        tuple(hexed(v) for v in record)
                        for record in session.flight._commands
                    ],
                    session.flight.snapshot("x"),
                )
            )
        assert runs[0] == runs[1]

    def test_straddling_event_between_contained_ones(self):
        """A straddler's shares land between the in-bin deposits around
        it: with the straddler's share added to bin 1 after the later
        in-bin events instead, bin 1 would round to 0.9124999999999999."""
        events = [
            (0, 1, 20.0, 0.1),
            (0, 1, 30.0, 0.2),
            (1, 1, 80.0, 0.3),  # 50 -> 130 ns: straddles bins 0 and 1
            (2, 1, 10.0, 0.7),
            (0, 1, 5.0, 0.1),
        ]
        batched = PowerTimeline(bin_ns=BIN_NS, p_background_w=0.0)
        batched.on_batch(*stream(events), "hashmap")
        looped = PowerTimeline(bin_ns=BIN_NS, p_background_w=0.0)
        for code, count, t, e in events:
            looped.on_command(NAMES[code], count, t, e, "hashmap")
        assert timeline_state(batched) == timeline_state(looped)
        assert batched._bins == {0: 0.48750000000000004, 1: 0.9125}


