"""Sub-array allocation for graph processing (paper Section III).

"Having an N-vertex sub-graph with Ns activated sub-arrays
(size = a x b), each sub-array can process n vertices
(n <= f | n in N, f = min(a, b)).  So, the number of sub-arrays for
processing an N-vertex sub-graph can be formulated as Ns = ceil(N / f)."
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.dram.geometry import DeviceGeometry, SubArrayGeometry
from repro.errors import CapacityError


def vertices_per_subarray(geometry: SubArrayGeometry) -> int:
    """f = min(a, b): the vertex capacity of one sub-array."""
    return min(geometry.data_rows, geometry.cols)


def subarrays_for_vertices(n_vertices: int, geometry: SubArrayGeometry) -> int:
    """Ns = ceil(N / f)."""
    if n_vertices < 0:
        raise ValueError("n_vertices must be non-negative")
    if n_vertices == 0:
        return 0
    return math.ceil(n_vertices / vertices_per_subarray(geometry))


@dataclass(frozen=True)
class AllocationPlan:
    """Where an N-vertex sub-graph lands on a device."""

    n_vertices: int
    vertices_per_subarray: int
    subarrays_needed: int
    subarrays_available: int
    #: sub-arrays the resilience engine retired (excluded from available)
    subarrays_quarantined: int = 0

    @property
    def feasible(self) -> bool:
        return self.subarrays_needed <= self.subarrays_available

    @property
    def utilisation(self) -> float:
        """Fraction of the last sub-array's vertex slots actually used,
        averaged over the allocation (1.0 = perfectly packed)."""
        if self.subarrays_needed == 0:
            return 0.0
        capacity = self.subarrays_needed * self.vertices_per_subarray
        return self.n_vertices / capacity


def plan_allocation(
    n_vertices: int,
    device: DeviceGeometry,
    quarantined: int = 0,
) -> AllocationPlan:
    """Allocate an N-vertex sub-graph onto a device's sub-arrays.

    Args:
        quarantined: sub-arrays retired by the resilience engine
            (graceful degradation: the planner simply has fewer to
            hand out — e.g. ``len(pim.resilience.quarantined)``).

    Raises:
        CapacityError: when the graph exceeds the device's *usable*
            sub-arrays (callers should partition across more chips
            first — see :mod:`repro.mapping.graph_partition`).
    """
    if quarantined < 0:
        raise CapacityError("quarantined count must be non-negative")
    sub = device.bank.mat.subarray
    f = vertices_per_subarray(sub)
    needed = subarrays_for_vertices(n_vertices, sub)
    available = device.num_subarrays - quarantined
    if available < 0:
        raise CapacityError(
            f"{quarantined} quarantined sub-arrays exceed the device's "
            f"{device.num_subarrays}"
        )
    plan = AllocationPlan(
        n_vertices=n_vertices,
        vertices_per_subarray=f,
        subarrays_needed=needed,
        subarrays_available=available,
        subarrays_quarantined=quarantined,
    )
    if not plan.feasible:
        raise CapacityError(
            f"sub-graph of {n_vertices} vertices needs {needed} sub-arrays; "
            f"device has {available} usable ({quarantined} quarantined) — "
            f"partition over more chips"
        )
    return plan


def chips_needed(n_vertices: int, device: DeviceGeometry) -> int:
    """Minimum chips so every per-chip sub-graph fits its sub-arrays."""
    if n_vertices <= 0:
        return 1
    sub = device.bank.mat.subarray
    per_chip = device.num_subarrays * vertices_per_subarray(sub)
    return max(1, math.ceil(n_vertices / per_chip))
