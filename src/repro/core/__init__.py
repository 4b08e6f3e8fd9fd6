"""PIM-Assembler's architectural core: the paper's primary contribution.

Layers, bottom-up:

* :mod:`~repro.core.sense_amplifier` — logic view of the reconfigurable
  SA (Fig. 2), vectorised over a 256-bit stripe.
* :mod:`~repro.core.subarray` / :mod:`~repro.core.device` — functional
  state of the memory hierarchy (Fig. 1): a lazy directory of
  sub-arrays in store-slot order (banks and MATs hold no state; their
  GRB and DPU are timing resources of :mod:`~repro.core.scheduler`).
* :mod:`~repro.core.isa` — the three AAP instruction types.
* :mod:`~repro.core.controller` — executes AAP streams, charges the
  :mod:`~repro.core.stats` ledger using :mod:`~repro.core.timing` and
  :mod:`~repro.core.energy`.
* :mod:`~repro.core.platform` — the public facade
  (:class:`~repro.core.platform.PimAssembler`) with ``PIM_XNOR`` /
  ``PIM_Add`` / ``MEM_insert``.
* :mod:`~repro.core.area` — add-on area overhead (~5 % of chip area).
"""

from repro.core.area import AreaModel, AreaParameters, AreaReport
from repro.core.controller import Controller
from repro.core.device import Device
from repro.core.faults import FaultModel
from repro.core.resilience import (
    PolicyLevel,
    ResilienceCounts,
    ResilienceEngine,
    ResilienceLedger,
    ResiliencePolicy,
    ResilienceReport,
    recommended_policy,
    spare_rows_needed,
)
from repro.core.trace import CommandTrace, TraceAnalysis, analyse, replay
from repro.core.energy import EnergyModel, EnergyParameters, DEFAULT_ENERGY
from repro.core.isa import (
    AapCompute2,
    AapCompute3,
    AapCopy,
    RowAddress,
    SAOp,
)
from repro.core.platform import PimAssembler, WordColumns
from repro.core.sense_amplifier import (
    CONTROL_SIGNALS,
    SenseAmplifierArray,
    full_adder_reference,
    reference_compute2,
)
from repro.core.stats import PhaseTotals, StatsLedger
from repro.core.subarray import SubArray
from repro.core.timing import (
    DEFAULT_CYCLES,
    DEFAULT_TIMING,
    OperationCycles,
    TimingParameters,
)

__all__ = [
    "AreaModel",
    "AreaParameters",
    "AreaReport",
    "Controller",
    "Device",
    "FaultModel",
    "PolicyLevel",
    "ResilienceCounts",
    "ResilienceEngine",
    "ResilienceLedger",
    "ResiliencePolicy",
    "ResilienceReport",
    "recommended_policy",
    "spare_rows_needed",
    "CommandTrace",
    "TraceAnalysis",
    "analyse",
    "replay",
    "EnergyModel",
    "EnergyParameters",
    "DEFAULT_ENERGY",
    "AapCompute2",
    "AapCompute3",
    "AapCopy",
    "RowAddress",
    "SAOp",
    "PimAssembler",
    "WordColumns",
    "CONTROL_SIGNALS",
    "SenseAmplifierArray",
    "full_adder_reference",
    "reference_compute2",
    "PhaseTotals",
    "StatsLedger",
    "SubArray",
    "DEFAULT_CYCLES",
    "DEFAULT_TIMING",
    "OperationCycles",
    "TimingParameters",
]
