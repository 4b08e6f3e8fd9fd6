"""DRAM command timing model.

Every in-memory primitive of PIM-Assembler is built out of
``ACTIVATE-ACTIVATE-PRECHARGE`` (AAP) command sequences, so the whole
performance model reduces to a handful of JEDEC-style timing constants.
The nominal values follow DDR3-1600 (the technology node of Ambit and
DRISA, against which the paper compares, and with which the paper states
an *identical physical memory configuration* is used):

====================  ======  =====================================
constant              value   meaning
====================  ======  =====================================
``t_ras``             35 ns   ACTIVATE to PRECHARGE (row open)
``t_rp``              15 ns   PRECHARGE period
``t_rcd``             15 ns   ACTIVATE to column access
``t_bl``              5 ns    burst transfer of one column word
====================  ======  =====================================

An **AAP** therefore costs ``2 * t_ras + t_rp`` = 85 ns and a single
**AP** (ACTIVATE-PRECHARGE, used when the result is latched in the SA
and written through the MUX in the same row cycle) costs
``t_ras + t_rp`` = 50 ns.  The paper counts costs in "memory cycles";
we expose both the cycle count and the wall-clock nanoseconds.

The *cycle counts per logical operation* are where PIM-Assembler differs
from the baselines and are central to reproducing Fig. 3b:

* PIM-Assembler XNOR2: operands are RowCloned into compute rows x1/x2
  (2 AAPs) and the two-row activation produces XNOR2 on the bit line in
  **1** further cycle -> 3 row cycles end-to-end, 1 compute cycle.
* Ambit XNOR2: **7** cycles (the paper's Section I: majority/AND/OR-based
  multi-cycle operations plus required row initialisation).
* PIM-Assembler addition: carry via TRA in 1 cycle, sum via the add-on
  XOR + latch in 1 more cycle -> **2** cycles per bit position.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any


@dataclass(frozen=True)
class TimingParameters:
    """JEDEC-style timing constants (nanoseconds)."""

    t_ras: float = 35.0
    t_rp: float = 15.0
    t_rcd: float = 15.0
    t_bl: float = 5.0
    #: clock period of the MAT-level DPU (a modest synthesised block at
    #: 45 nm; 1 GHz keeps it out of the critical path).
    t_dpu_clk: float = 1.0
    #: average refresh interval (tREFI, 64 ms / 8192 rows = 7.8 us).
    t_refi: float = 7800.0
    #: refresh cycle time (tRFC for a 4-8 Gb class device).
    t_rfc: float = 350.0

    def __post_init__(self) -> None:
        for name in (
            "t_ras", "t_rp", "t_rcd", "t_bl", "t_dpu_clk", "t_refi", "t_rfc",
        ):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.t_rfc >= self.t_refi:
            raise ValueError("t_rfc must be smaller than t_refi")

    @property
    def refresh_overhead(self) -> float:
        """Fraction of time the array is blocked by refresh.

        All in-DRAM computation shares the array with the mandatory
        refresh stream: bank throughput derates by tRFC / tREFI
        (~4.5% at the DDR3/4 nominal values).  The derating is common
        to every in-DRAM platform, so the paper's ratios are
        unaffected; it matters for absolute wall-clock numbers.
        """
        return self.t_rfc / self.t_refi

    def with_refresh(self, busy_ns: float) -> float:
        """Wall-clock time of ``busy_ns`` of array work incl. refresh."""
        if busy_ns < 0:
            raise ValueError("busy_ns must be non-negative")
        return busy_ns / (1.0 - self.refresh_overhead)

    @property
    def t_aap(self) -> float:
        """ACTIVATE-ACTIVATE-PRECHARGE: the bulk-copy/compute primitive."""
        return 2.0 * self.t_ras + self.t_rp

    @property
    def t_ap(self) -> float:
        """ACTIVATE-PRECHARGE: one row cycle (tRC)."""
        return self.t_ras + self.t_rp

    @property
    def t_read_row(self) -> float:
        """Read one full row out through the global row buffer."""
        return self.t_rcd + self.t_bl + self.t_rp

    @property
    def t_write_row(self) -> float:
        """Write one full row from the global row buffer."""
        return self.t_rcd + self.t_bl + self.t_rp


#: Cycle cost (in row cycles) of each logical in-memory operation for
#: PIM-Assembler.  The baselines' costs live in
#: :mod:`repro.platforms.params` so that every platform's assumptions sit
#: next to each other.
@dataclass(frozen=True)
class OperationCycles:
    """Row-cycle counts for PIM-Assembler's logical operations.

    ``xnor_compute`` is the single charge-sharing cycle of the new SA;
    ``xnor_total`` includes the two RowClones that stage the operands in
    the compute rows.  ``add_per_bit`` is the 2-cycle carry+sum pair.
    """

    copy: int = 1
    xnor_compute: int = 1
    xnor_stage: int = 2
    carry: int = 1
    sum_: int = 1

    @property
    def xnor_total(self) -> int:
        return self.xnor_stage + self.xnor_compute

    @property
    def add_per_bit(self) -> int:
        return self.carry + self.sum_

    def compress_3to2(self) -> int:
        """Cycles for one 3:2 carry-save compression of three rows."""
        return self.carry + self.sum_

    def ripple_add(self, bits: int) -> int:
        """Cycles for the final bit-serial add of two m-bit words.

        The paper's Fig. 8 text: "This process concluded after 2 x m
        cycles, where m is the number of bits in elements."
        """
        if bits <= 0:
            raise ValueError("bits must be positive")
        return 2 * bits


DEFAULT_TIMING = TimingParameters()
DEFAULT_CYCLES = OperationCycles()


@lru_cache(maxsize=None)
def command_latency_table(timing: TimingParameters) -> dict:
    """Mnemonic -> latency (ns), resolved once per timing configuration.

    ``TimingParameters`` derives every latency through properties, so a
    per-command lookup in a hot loop re-runs the arithmetic each time.
    The batched AAP scheduler (through :func:`command_cost_table`) and
    the trace verifier read this cached table instead; the frozen
    dataclass is hashable, so one table exists per distinct
    configuration.
    """
    return {
        "AAP1": timing.t_aap,
        "AAP2": timing.t_aap,
        "AAP3": timing.t_aap,
        "SUM": timing.t_aap,
        "LATCH_LD": timing.t_ap,
        # a RowClone off a constant row, and a free latch reset (the
        # ledger names of both: repro.core.isa.ISA)
        "ROW_INIT": timing.t_aap,
        "LATCH_CLR": 0.0,
        "MEM_WR": timing.t_write_row,
        "MEM_RD": timing.t_read_row,
        "DPU": timing.t_dpu_clk,
        # Data-at-rest integrity commands (repro.core.integrity): a
        # refresh burst blocks the array for tRFC; an ECC syndrome
        # check reads a codeword row through the SA XOR path (one AAP);
        # a sidecar re-encode likewise; a correction writes the healed
        # word back through the row buffer.
        "REF": timing.t_rfc,
        "ECC_CHK": timing.t_aap,
        "ECC_ENC": timing.t_aap,
        "ECC_FIX": timing.t_write_row,
    }


@lru_cache(maxsize=None)
def command_cost_table(timing: TimingParameters, energy: Any) -> dict:
    """Mnemonic -> (latency ns, energy nJ) for one timing/energy pair.

    The energy object is ``repro.core.energy.EnergyParameters`` (typed
    loosely to keep this module import-free of the energy module, which
    imports timing).  Used by the batched AAP scheduler to charge whole
    gangs with two dict lookups instead of 2N property evaluations.
    """
    latencies = command_latency_table(timing)
    energies = {
        "AAP1": energy.e_aap_copy,
        "AAP2": energy.e_compute2,
        "AAP3": energy.e_tra,
        "SUM": energy.e_sum_cycle,
        "LATCH_LD": energy.e_activate,
        "ROW_INIT": energy.e_aap_copy,
        "LATCH_CLR": 0.0,
        "MEM_WR": energy.e_write_row,
        "MEM_RD": energy.e_read_row,
        "DPU": energy.e_dpu_op,
        "REF": energy.e_refresh,
        "ECC_CHK": energy.e_compute2,
        "ECC_ENC": energy.e_sum_cycle,
        "ECC_FIX": energy.e_write_row,
    }
    return {name: (latencies[name], energies[name]) for name in latencies}


@lru_cache(maxsize=None)
def command_energy_table(timing: TimingParameters, energy: Any) -> dict:
    """Mnemonic -> energy (nJ): the energy column of the cost table.

    Convenience view for consumers that only attribute energy (the
    power-timeline inspector, ``benchmarks/bench_power_timeline.py``)
    without re-deriving latencies.
    """
    return {
        name: cost[1]
        for name, cost in command_cost_table(timing, energy).items()
    }
