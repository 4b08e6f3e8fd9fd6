"""Assembly execution-time / power model (paper Fig. 9, Fig. 11 inputs).

Combines the per-platform primitive costs (:mod:`repro.platforms`) with
the chr14 operation counts (:mod:`repro.eval.workloads`) and the
Section III mapping (occupancy, lanes, partitioning) into per-stage
times, data-movement shares and power.

Model structure for the in-DRAM platforms (P-A, Ambit, D1, D3):

* **hashmap** — every one of the N_k queries is written to its
  partition's temp row and compared by repeated parallel PIM_XNOR
  against the occupied k-mer rows of that sub-array (Fig. 6/7 scan).
  Per-lane cost: ``insert + occupancy x scan_overhead x compare +
  p_dup x increment``.  Lanes = concurrently activated sub-array
  stripes (activation width x Pd x chips).
* **debruijn** — per distinct k-mer: derive the two nodes, membership-
  check them against the node list (2 compare-class ops) and MEM_insert
  the node/edge records (3 insert-class ops).
* **traverse** — bulk degree computation (3:2 carry-save compressions
  over the adjacency mapping, 2 x E compressions) plus the Euler walk,
  which is sequential per component (``walk_parallelism`` concurrent
  components).

Data movement (for the Fig. 11 memory-wall study) is the read-parsing
and inter-sub-array routing traffic through the MAT GRBs; platforms
differ in how much of it their mapping overlaps with compute
(``transfer_overlap`` — the correlated partitioning is precisely
PIM-Assembler's mechanism for this, so its overlap is highest).

The von-Neumann platforms use the calibrated per-query / per-edge costs
of :class:`repro.platforms.base.BandwidthPlatform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.eval.workloads import AssemblyWorkload
from repro.platforms.base import BandwidthPlatform, InDramPlatform, Platform

#: Stage names in pipeline order (Fig. 9 legend).
STAGES: tuple[str, ...] = ("hashmap", "debruijn", "traverse")


@dataclass(frozen=True)
class MappingConfig:
    """Deployment of the chr14 job onto PIM chips (Section III/IV).

    Attributes:
        chips: M — the interval count of the interval-block partition;
            sized so the ~9.2 GB job fits (1 GB per chip at the default
            geometry).
        parallelism_degree: Pd (Fig. 10; optimum ~2).
        subarrays_per_chip: hash-table sub-arrays available per chip.
        io_bandwidth_gbps: host/chip link bandwidth per chip.
        scan_overhead: CAL — partition imbalance + occupancy growth
            factor on the average scan length (the busiest sub-array
            gates a wave of queries).
        walk_parallelism: concurrently traversed graph components.
        grb_transfer_ns: one inter-sub-array row move through a GRB.
    """

    chips: int = 10
    parallelism_degree: int = 2
    subarrays_per_chip: int = 32768
    io_bandwidth_gbps: float = 10.0
    scan_overhead: float = 2.4
    walk_parallelism: int = 8
    grb_transfer_ns: float = 100.0

    def __post_init__(self) -> None:
        if min(self.chips, self.parallelism_degree, self.subarrays_per_chip) <= 0:
            raise ValueError("mapping sizes must be positive")
        if self.io_bandwidth_gbps <= 0 or self.grb_transfer_ns <= 0:
            raise ValueError("bandwidth parameters must be positive")
        if self.scan_overhead <= 0 or self.walk_parallelism <= 0:
            raise ValueError("overhead parameters must be positive")


@dataclass(frozen=True)
class StageResult:
    """One stage of one platform's run."""

    name: str
    time_s: float
    transfer_s: float
    power_w: float

    def __post_init__(self) -> None:
        if self.time_s < 0 or self.transfer_s < 0:
            raise ValueError("times must be non-negative")

    @property
    def energy_j(self) -> float:
        return self.power_w * self.time_s


@dataclass(frozen=True)
class ExecutionResult:
    """A platform's full chr14 run at one k."""

    platform: str
    k: int
    stages: tuple[StageResult, ...]
    active_fraction: float

    def stage(self, name: str) -> StageResult:
        for stage in self.stages:
            if stage.name == name:
                return stage
        raise KeyError(name)

    @property
    def total_time_s(self) -> float:
        return sum(s.time_s for s in self.stages)

    @property
    def total_transfer_s(self) -> float:
        return sum(s.transfer_s for s in self.stages)

    @property
    def total_energy_j(self) -> float:
        return sum(s.energy_j for s in self.stages)

    @property
    def average_power_w(self) -> float:
        total = self.total_time_s
        return self.total_energy_j / total if total else 0.0

    @property
    def memory_bottleneck_ratio(self) -> float:
        """MBR (Fig. 11a): data-transfer share of the run time."""
        total = self.total_time_s
        return self.total_transfer_s / total if total else 0.0

    @property
    def resource_utilisation_ratio(self) -> float:
        """RUR (Fig. 11b): compute-busy share x active-resource share."""
        return (1.0 - self.memory_bottleneck_ratio) * self.active_fraction


#: CAL — fraction of compute resources active during the assembly run
#: (sub-array activity for PIM platforms, SM occupancy for the GPU);
#: drives the RUR levels of Fig. 11b.
ACTIVE_FRACTION: dict[str, float] = {
    "P-A": 0.74,
    "Ambit": 0.72,
    "D1": 0.70,
    "D3": 0.72,
    "GPU": 0.72,
    "CPU": 0.55,
    "HMC": 0.66,
}

#: CAL — in-DRAM data-movement behaviour during assembly.
#: ``moves``: row moves per query relative to P-A's one (platforms
#: without the correlated partitioning broadcast queries / shuttle
#: operands between sub-arrays); ``overlap``: share of that routing the
#: mapping hides under compute (the Fig. 6 correlated partitioning is
#: P-A's mechanism, hence its high overlap).  Tuned against Fig. 11a.
IN_DRAM_TRANSFER_CAL: dict[str, dict[str, float]] = {
    "P-A": {"moves": 1.0, "overlap": 0.60},
    "Ambit": {"moves": 5.0, "overlap": 0.35},
    "D1": {"moves": 5.5, "overlap": 0.35},
    "D3": {"moves": 4.5, "overlap": 0.35},
}

#: CAL — von-Neumann graph-stage costs as multiples of the hash-query
#: cost: graph building is atomics/sort-heavy, traversal pointer-chasing
#: (tuned against the Fig. 9a GPU stage shares: hashmap >60%).
VN_ASSEMBLY_CAL: dict[str, dict[str, float]] = {
    "GPU": {"graph_factor": 4.3, "walk_factor": 2.2},
    "CPU": {"graph_factor": 3.0, "walk_factor": 1.8},
    "HMC": {"graph_factor": 3.5, "walk_factor": 2.0},
}


@dataclass
class ExecutionModel:
    """Evaluates one workload on any platform.

    ``transfer_cal`` overrides the per-platform data-movement
    calibration (:data:`IN_DRAM_TRANSFER_CAL`) — the hook the mapping
    ablation uses to run P-A *without* the correlated partitioning.
    """

    workload: AssemblyWorkload
    mapping: MappingConfig = field(default_factory=MappingConfig)
    transfer_cal: dict | None = None

    # ----- public API -----------------------------------------------------------

    def run(self, platform: Platform) -> ExecutionResult:
        if isinstance(platform, InDramPlatform):
            return self._run_in_dram(platform)
        if isinstance(platform, BandwidthPlatform):
            return self._run_bandwidth(platform)
        raise TypeError(f"unsupported platform type: {type(platform).__name__}")

    # ----- in-DRAM platforms --------------------------------------------------------

    def _lanes(self, platform: InDramPlatform) -> float:
        return platform.lanes(
            parallelism_degree=self.mapping.parallelism_degree,
            chips=self.mapping.chips,
        )

    def _occupancy_rows(self) -> float:
        """Average occupied k-mer rows per hash-table sub-array."""
        table_subarrays = self.mapping.chips * self.mapping.subarrays_per_chip
        return max(1.0, self.workload.unique_kmers / table_subarrays)

    def _transfer_seconds(self, platform_name: str, row_moves: float) -> float:
        """Non-overlapped routing time for ``row_moves`` key/row moves.

        Moves ride the shared bank-level buses (``chips x 8`` routing
        lanes); each move's bus occupancy scales with the key width
        (``2k`` bits over a 32-bit bus beat).  A platform's mapping
        overlaps a share of the routing with compute and multiplies the
        move count by how non-local its data placement is
        (:data:`IN_DRAM_TRANSFER_CAL`).
        """
        table = (
            self.transfer_cal
            if self.transfer_cal is not None
            else IN_DRAM_TRANSFER_CAL
        )
        cal = table.get(platform_name, {"moves": 4.0, "overlap": 0.4})
        lanes = self.mapping.chips * 8
        beats = max(1.0, 2.0 * self.workload.k / 32.0)
        busy = (
            row_moves
            * cal["moves"]
            * self.mapping.grb_transfer_ns
            * beats
            * 1e-9
            / lanes
        )
        return busy * (1.0 - cal["overlap"])

    def _run_in_dram(self, platform: InDramPlatform) -> ExecutionResult:
        w = self.workload
        m = self.mapping
        lanes = self._lanes(platform)
        occupancy = self._occupancy_rows()
        aap = platform.aap_ns

        # --- hashmap ---------------------------------------------------
        compare = platform.compare_ns()
        insert = platform.insert_ns()
        increment = 2.0 * aap  # DPU read-modify-write of a counter field
        scan = occupancy * m.scan_overhead
        per_query = insert + scan * compare + w.duplicate_fraction * increment
        hashmap_compute = w.total_kmers * per_query * 1e-9 / lanes
        # every query routes one row (the read window) to its partition
        hashmap_transfer = self._transfer_seconds(platform.name, w.total_kmers)
        hashmap_io = w.reads_bytes / (m.chips * m.io_bandwidth_gbps * 1e9)
        hashmap_s = hashmap_compute + hashmap_transfer + hashmap_io

        # --- debruijn --------------------------------------------------
        # per distinct k-mer: 2 node membership scans over the node
        # list region (compare-class, same occupancy scan as the hash
        # table) + 3 MEM_inserts (node, node, edge record)
        per_kmer = 2.0 * scan * compare + 3.0 * insert
        debruijn_compute = w.unique_kmers * per_kmer * 1e-9 / lanes
        debruijn_transfer = self._transfer_seconds(
            platform.name, 2.0 * w.graph_edges
        )
        debruijn_io = w.graph_bytes / (m.chips * m.io_bandwidth_gbps * 1e9)
        debruijn_s = debruijn_compute + debruijn_transfer + debruijn_io

        # --- traverse ---------------------------------------------------
        # degrees: 2 directions x E carry-save compressions (3 cycles
        # each on P-A; other platforms scale by their adder cost)
        compress = 0.75 * platform.add_ns(1)
        degrees_s = 2.0 * w.graph_edges * compress * 1e-9 / lanes
        # Euler walk: sequential per component; each step locates the
        # vertex row (compare-class), picks/marks an edge and appends
        # to the path (insert-class)
        walk_step = 2.0 * compare + 2.0 * insert
        walk_s = w.graph_edges * walk_step * 1e-9 / m.walk_parallelism
        traverse_transfer = self._transfer_seconds(platform.name, w.graph_edges)
        traverse_s = degrees_s + walk_s + traverse_transfer

        utilisation = ACTIVE_FRACTION.get(platform.name, 0.6)
        stages = tuple(
            StageResult(
                name=name,
                time_s=time_s,
                transfer_s=transfer_s,
                power_w=platform.average_power_w(utilisation),
            )
            for name, time_s, transfer_s in (
                ("hashmap", hashmap_s, hashmap_transfer + hashmap_io),
                ("debruijn", debruijn_s, debruijn_transfer + debruijn_io),
                ("traverse", traverse_s, traverse_transfer),
            )
        )
        return ExecutionResult(
            platform=platform.name,
            k=w.k,
            stages=stages,
            active_fraction=utilisation,
        )

    # ----- von-Neumann platforms ---------------------------------------------------------

    def _memory_share(self, platform: BandwidthPlatform) -> float:
        """Data-movement share; grows with k (bigger keys and tables)."""
        compute = platform.compute_fraction - 0.005 * (self.workload.k - 16)
        compute = min(0.9, max(0.05, compute))
        return 1.0 - compute

    def _run_bandwidth(self, platform: BandwidthPlatform) -> ExecutionResult:
        w = self.workload
        query = platform.query_ns(w.k)

        cal = VN_ASSEMBLY_CAL.get(
            platform.name, {"graph_factor": 3.0, "walk_factor": 2.0}
        )
        hashmap_s = w.total_kmers * query * 1e-9
        # graph building: membership-class random accesses + record
        # writes per distinct k-mer, atomics/sort-dominated
        debruijn_s = w.unique_kmers * 2.0 * cal["graph_factor"] * query * 1e-9
        # traversal: pointer-chasing successor lookups over nodes+edges
        walk = cal["walk_factor"] * query
        traverse_s = (w.graph_nodes + w.graph_edges) * walk * 1e-9

        mem_share = self._memory_share(platform)
        utilisation = ACTIVE_FRACTION.get(platform.name, 0.6)
        stages = tuple(
            StageResult(
                name=name,
                time_s=time_s,
                transfer_s=time_s * mem_share,
                power_w=platform.average_power_w(utilisation),
            )
            for name, time_s in (
                ("hashmap", hashmap_s),
                ("debruijn", debruijn_s),
                ("traverse", traverse_s),
            )
        )
        return ExecutionResult(
            platform=platform.name,
            k=w.k,
            stages=stages,
            active_fraction=utilisation,
        )


def run_all(
    platforms: list[Platform],
    workload: AssemblyWorkload,
    mapping: MappingConfig | None = None,
) -> list[ExecutionResult]:
    """Evaluate every platform on one workload."""
    model = ExecutionModel(workload=workload, mapping=mapping or MappingConfig())
    return [model.run(p) for p in platforms]
