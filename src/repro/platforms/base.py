"""Platform abstractions for the cross-platform comparisons.

Two families cover all seven evaluated platforms:

* :class:`InDramPlatform` — Ambit, DRISA-1T1C, DRISA-3T1C and
  PIM-Assembler itself: performance is cycle-count x AAP latency x
  ganged activation width, with a platform-specific cycle table
  (:class:`repro.platforms.params.PimCycleCosts`).
* :class:`BandwidthPlatform` — CPU, GPU and HMC 2.0: performance is
  bounded by (effective) memory bandwidth for streaming kernels and by
  random-access behaviour for hash probing.

Each platform also carries a :class:`~repro.platforms.params.PowerSpec`
for the Fig. 9b power comparison and exposes the primitive costs the
assembly execution model (:mod:`repro.eval.execution`) composes.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.platforms.params import (
    AAP_NS,
    DEVICE_ACTIVATION_BITS,
    BandwidthSpec,
    PimCycleCosts,
    PowerSpec,
)


@dataclass(frozen=True)
class ThroughputPoint:
    """One bar of Fig. 3b: a platform's raw throughput for one op."""

    platform: str
    operation: str
    vector_bits: int
    bits_per_second: float

    @property
    def tbits_per_second(self) -> float:
        return self.bits_per_second / 1e12


class Platform(abc.ABC):
    """Common interface of all compared platforms."""

    def __init__(self, name: str, power: PowerSpec) -> None:
        self.name = name
        self.power = power

    # ----- raw micro-benchmark throughput (Fig. 3b) -------------------------

    @abc.abstractmethod
    def xnor_throughput_bps(self, vector_bits: int) -> float:
        """Sustained bulk-XNOR throughput, result bits per second."""

    @abc.abstractmethod
    def add_throughput_bps(self, vector_bits: int, word_bits: int = 32) -> float:
        """Sustained element-wise addition throughput, operand bits/s."""

    def throughput_point(
        self, operation: str, vector_bits: int, word_bits: int = 32
    ) -> ThroughputPoint:
        if operation == "xnor":
            bps = self.xnor_throughput_bps(vector_bits)
        elif operation == "add":
            bps = self.add_throughput_bps(vector_bits, word_bits)
        else:
            raise ValueError(f"unknown operation {operation!r}")
        return ThroughputPoint(self.name, operation, vector_bits, bps)

    # ----- power --------------------------------------------------------------

    def average_power_w(self, utilisation: float) -> float:
        return self.power.average_power_w(utilisation)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"


class InDramPlatform(Platform):
    """A processing-in-DRAM platform driven by AAP cycle counts.

    Args:
        name: display name (paper labels: ``P-A``, ``Ambit``, ``D1``,
            ``D3``).
        cycles: per-operation row-cycle table.
        power: average-power model.
        activation_bits: bits engaged by one ganged AAP across the
            device (identical physical configuration for all platforms).
        lane_factor: relative number of concurrently computing
            sub-arrays vs PIM-Assembler's mapping (CAL; captures the
            different array organisations of the DRISA variants).
        aap_ns: one AAP in nanoseconds.
    """

    def __init__(
        self,
        name: str,
        cycles: PimCycleCosts,
        power: PowerSpec,
        activation_bits: int = DEVICE_ACTIVATION_BITS,
        lane_factor: float = 1.0,
        aap_ns: float = AAP_NS,
    ) -> None:
        super().__init__(name, power)
        if activation_bits <= 0:
            raise ValueError("activation_bits must be positive")
        if lane_factor <= 0:
            raise ValueError("lane_factor must be positive")
        self.cycles = cycles
        self.activation_bits = activation_bits
        self.lane_factor = lane_factor
        self.aap_ns = aap_ns

    # ----- micro-benchmarks ----------------------------------------------------

    def xnor_throughput_bps(self, vector_bits: int) -> float:
        """One bulk XNOR wave processes ``activation_bits`` in
        ``xnor_cycles (+ row_init)`` AAPs; long vectors pipeline waves
        back-to-back, so throughput is wave-size over wave-latency.

        ``lane_factor`` deliberately does NOT apply here: the paper's
        micro-benchmark pins every platform to the identical physical
        memory configuration.
        """
        if vector_bits <= 0:
            raise ValueError("vector_bits must be positive")
        cycles = self.cycles.xnor_cycles + self.cycles.row_init_cycles
        wave_ns = cycles * self.aap_ns
        return self.activation_bits / (wave_ns * 1e-9)

    def add_throughput_bps(self, vector_bits: int, word_bits: int = 32) -> float:
        """Bit-serial addition over ``word_bits`` bit planes."""
        if vector_bits <= 0 or word_bits <= 0:
            raise ValueError("sizes must be positive")
        cycles = (
            self.cycles.add_total_cycles_per_bit * word_bits
            + self.cycles.row_init_cycles
        )
        wave_ns = cycles * self.aap_ns
        # In the bit-plane layout one wave adds `activation_bits`
        # independent words (one per column stripe), i.e. it consumes
        # activation_bits * word_bits operand bits in `cycles` AAPs.
        wave_operand_bits = self.activation_bits * word_bits
        return wave_operand_bits / (wave_ns * 1e-9)

    # ----- assembly primitives ---------------------------------------------------

    def compare_ns(self) -> float:
        """One k-mer row comparison (PIM_XNOR) in one sub-array lane."""
        cycles = self.cycles.xnor_cycles + self.cycles.row_init_cycles
        return cycles * self.aap_ns

    def insert_ns(self) -> float:
        """One MEM_insert (row write through the GRB)."""
        return self.aap_ns

    def add_ns(self, word_bits: int) -> float:
        """One bulk addition over ``word_bits`` bit planes."""
        cycles = (
            self.cycles.add_total_cycles_per_bit * word_bits
            + self.cycles.row_init_cycles
        )
        return cycles * self.aap_ns

    def lanes(self, parallelism_degree: int = 1, chips: int = 1) -> float:
        """Concurrently computing 256-bit sub-array stripes."""
        if parallelism_degree <= 0 or chips <= 0:
            raise ValueError("parallelism_degree and chips must be positive")
        stripes = self.activation_bits / 256
        return stripes * self.lane_factor * parallelism_degree * chips


class BandwidthPlatform(Platform):
    """A platform whose bulk-op throughput is memory-bandwidth bound.

    Args:
        spec: bandwidth/traffic constants.
        power: average-power model.
        query_base_ns: per-hash-query overhead at k-mer width 32 bits
            (hashing + probe + atomic update) under full concurrency
            (CAL against the paper's GPU hashmap share).
        key_width_exponent: growth of the per-query cost with the key
            width in 32-bit words (CAL against the k=16 -> k=32 speedup
            trend of Fig. 9a).
        compute_fraction: share of per-query time that is computation
            rather than data movement (drives MBR/RUR, Fig. 11).
    """

    def __init__(
        self,
        name: str,
        spec: BandwidthSpec,
        power: PowerSpec,
        query_base_ns: float,
        key_width_exponent: float = 0.61,
        compute_fraction: float = 0.35,
    ) -> None:
        super().__init__(name, power)
        if query_base_ns <= 0:
            raise ValueError("query_base_ns must be positive")
        if not 0.0 < compute_fraction < 1.0:
            raise ValueError("compute_fraction must be in (0, 1)")
        self.spec = spec
        self.query_base_ns = query_base_ns
        self.key_width_exponent = key_width_exponent
        self.compute_fraction = compute_fraction

    # ----- micro-benchmarks --------------------------------------------------------

    def xnor_throughput_bps(self, vector_bits: int) -> float:
        if vector_bits <= 0:
            raise ValueError("vector_bits must be positive")
        bytes_per_result_byte = self.spec.xnor_traffic_factor
        result_bytes_per_s = (
            self.spec.effective_bandwidth_gbps * 1e9 / bytes_per_result_byte
        )
        return result_bytes_per_s * 8.0

    def add_throughput_bps(self, vector_bits: int, word_bits: int = 32) -> float:
        if vector_bits <= 0 or word_bits <= 0:
            raise ValueError("sizes must be positive")
        operand_bytes_per_s = (
            self.spec.effective_bandwidth_gbps * 1e9 / self.spec.add_traffic_factor
        )
        return operand_bytes_per_s * 8.0

    # ----- assembly primitives -------------------------------------------------------

    def query_ns(self, k: int) -> float:
        """One hash-table query (probe + insert/increment) for a k-mer."""
        if k <= 0:
            raise ValueError("k must be positive")
        key_words = max(1.0, 2.0 * k / 32.0)
        return self.query_base_ns * key_words**self.key_width_exponent

    def random_probe_ns(self) -> float:
        """Effective cost of one uncoalesced random access at full
        concurrency: bytes-per-probe over effective bandwidth."""
        return (
            self.spec.random_access_bytes
            / (self.spec.effective_bandwidth_gbps * 1e9)
            * 1e9
        )
