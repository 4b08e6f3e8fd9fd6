"""Mnemonic registry <-> cost-table completeness, and the new commands.

The verifier, the replayer and both schedulers all key on command
mnemonics; a mnemonic priced in one table but missing from another is
exactly the kind of silent drift rule V008/C001 exists to catch, so
the registry itself is pinned here.
"""

import numpy as np

from repro.core.energy import EnergyParameters
from repro.core.isa import ALL_MNEMONICS
from repro.core.timing import (
    DEFAULT_TIMING,
    command_cost_table,
    command_latency_table,
)

ENERGY = EnergyParameters()


def test_every_mnemonic_has_a_latency():
    table = command_latency_table(DEFAULT_TIMING)
    assert set(table) == set(ALL_MNEMONICS)


def test_every_mnemonic_has_an_energy():
    table = command_cost_table(DEFAULT_TIMING, ENERGY)
    assert set(table) == set(ALL_MNEMONICS)
    for mnemonic, (latency, energy) in table.items():
        assert latency >= 0.0, mnemonic
        assert energy >= 0.0, mnemonic


def test_registry_has_no_duplicates():
    assert len(ALL_MNEMONICS) == len(set(ALL_MNEMONICS))


def test_row_init_costs_one_rowclone():
    latencies = command_latency_table(DEFAULT_TIMING)
    assert latencies["ROW_INIT"] == latencies["AAP1"]


def test_latch_clear_is_free():
    latencies = command_latency_table(DEFAULT_TIMING)
    costs = command_cost_table(DEFAULT_TIMING, ENERGY)
    assert latencies["LATCH_CLR"] == 0.0
    assert costs["LATCH_CLR"] == (0.0, 0.0)


# ----- replay of the new mnemonics -------------------------------------------


def test_row_init_replays_the_fill_value(small_pim):
    from repro.core.isa import RowAddress
    from repro.core.trace import CommandTrace, replay

    ctrl = small_pim.controller
    trace = CommandTrace()
    ctrl.attach_trace(trace)
    addr = RowAddress(0, 0, 0, 5)
    with small_pim.phase("test"):
        ctrl.init_row(addr, 1)
    ctrl.attach_trace(None)
    assert [e.mnemonic for e in trace] == ["ROW_INIT"]
    assert trace[0].payload == (1,)

    from repro.core.platform import PimAssembler

    replica = PimAssembler.small(subarrays=4, rows=64, cols=32)
    with replica.phase("replay"):
        replay(trace, replica.controller)
    assert bool(replica.device.subarray_at((0, 0, 0)).read_row(5).all())


def test_latch_clear_replays(small_pim):
    from repro.core.trace import CommandTrace, replay

    ctrl = small_pim.controller
    trace = CommandTrace()
    ctrl.attach_trace(trace)
    with small_pim.phase("test"):
        ctrl.clear_latch((0, 0, 0))
    ctrl.attach_trace(None)
    assert [e.mnemonic for e in trace] == ["LATCH_CLR"]

    from repro.core.platform import PimAssembler

    replica = PimAssembler.small(subarrays=4, rows=64, cols=32)
    with replica.phase("replay"):
        replay(trace, replica.controller)  # must not raise


def test_ledger_folds_row_init_into_aap1(small_pim):
    from repro.core.isa import RowAddress

    ctrl = small_pim.controller
    with small_pim.phase("test"):
        ctrl.init_row(RowAddress(0, 0, 0, 5), 1)
    totals = small_pim.stats.totals()
    assert totals.commands.get("AAP1") == 1
    assert "ROW_INIT" not in totals.commands
    assert totals.time_ns == DEFAULT_TIMING.t_aap
