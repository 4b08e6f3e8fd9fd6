"""The end-to-end PIM-Assembler pipeline (paper Fig. 5a).

Orchestrates the three stages on the functional simulator with the
per-stage phase accounting the paper's Fig. 9 breakdown uses:

1. ``hashmap``  — k-mer analysis on the PIM hash table,
2. ``debruijn`` — graph construction from the table,
3. ``traverse`` — in/out-degree computation (bulk PIM_Add over the
   adjacency mapping) and unitig traversal.

Eulerian trails are a host-side pass a caller applies to the result:
``spell_walk(result.graph, *euler_walk(result.graph))``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.assembly.contigs import Contig, assemble_contigs
from repro.assembly.debruijn import DeBruijnGraph
from repro.assembly.hashmap import BATCH_KMERS, PimKmerCounter
from repro.core.integrity import IntegrityCounts
from repro.core.platform import PimAssembler
from repro.core.resilience import (
    ResilienceEngine,
    ResiliencePolicy,
    ResilienceReport,
)
from repro.core.stats import PhaseTotals
from repro.genome.reads import Read
from repro.genome.sequence import DnaSequence
from repro.mapping.adjacency import degree_vectors_pim
from repro.observability.spans import span
from repro.runtime.watchdog import checkpoint

#: the Fig. 5a stage names, in execution order
STAGE_NAMES = ("hashmap", "debruijn", "traverse")


@dataclass
class PipelineState:
    """Mutable between-stage state of one assembly run.

    The job runtime (:mod:`repro.runtime.jobs`) journals and restores
    exactly this object at stage boundaries; :meth:`PimPipeline.run`
    threads one instance through the three stages.
    """

    counter: PimKmerCounter | None = None
    #: the table readback: ``(kmers, counts)`` arrays, k-mers strictly
    #: increasing (:meth:`PimKmerCounter.counts`)
    counts: "tuple[np.ndarray, np.ndarray] | None" = None
    graph: DeBruijnGraph | None = None
    #: ``(in_degrees, out_degrees)`` int64 arrays by node id (Fig. 8
    #: output)
    degrees: "tuple[np.ndarray, np.ndarray] | None" = None
    contigs: "list[Contig] | None" = None


@dataclass(frozen=True)
class AssemblyResult:
    """Contigs plus the stage-level accounting of the run."""

    contigs: list[Contig]
    graph: DeBruijnGraph
    kmer_table_size: int
    hashmap: PhaseTotals
    debruijn: PhaseTotals
    traverse: PhaseTotals
    #: detect/correct/degrade outcome (None when no policy was active)
    resilience: ResilienceReport | None = field(default=None)
    #: retention-rot / ECC / scrub outcome (None when no engine attached)
    integrity: IntegrityCounts | None = field(default=None)

    @property
    def total_time_ns(self) -> float:
        return self.hashmap.time_ns + self.debruijn.time_ns + self.traverse.time_ns

    @property
    def total_energy_nj(self) -> float:
        return (
            self.hashmap.energy_nj
            + self.debruijn.energy_nj
            + self.traverse.energy_nj
        )


class PimPipeline:
    """De novo assembly on the PIM-Assembler functional simulator.

    Args:
        pim: platform instance (a small device is fine for functional
            runs; see :meth:`PimAssembler.small`).
        k: k-mer length.
        min_count: k-mer frequency threshold for graph edges.
        min_contig_length: drop contigs shorter than this many bases.
        resilience: a :class:`ResiliencePolicy` (or its level name,
            e.g. ``"detect-retry-remap"``) activating the detect →
            correct → degrade loop for the run: protected in-memory
            ops, a k-mer-table scrub between stages, and quarantine of
            sub-arrays that keep failing.  ``None`` leaves whatever
            engine is already attached to the platform untouched.
        engine: ``"scalar"`` (per-op golden model) or ``"bulk"``
            (batched bit-plane execution of the hashmap and degree
            stages; identical tables/contigs/resilience events, time
            charged per gang schedule).
    """

    def __init__(
        self,
        pim: PimAssembler,
        k: int,
        min_count: int = 1,
        min_contig_length: int = 0,
        resilience: "ResiliencePolicy | str | None" = None,
        engine: str = "scalar",
    ) -> None:
        if k <= 1:
            raise ValueError("assembly needs k >= 2")
        if engine not in ("scalar", "bulk"):
            raise ValueError("engine must be 'scalar' or 'bulk'")
        self.pim = pim
        self.k = k
        self.min_count = min_count
        self.min_contig_length = min_contig_length
        self.engine = engine
        self.resilience = (
            None if resilience is None else ResiliencePolicy.named(resilience)
        )

    def _engine(self) -> ResilienceEngine | None:
        """Attach (or reuse) the resilience engine the policy asks for."""
        if self.resilience is not None:
            return self.pim.protect(self.resilience)
        return self.pim.resilience

    def _scrub_active(self) -> bool:
        engine = self.pim.resilience
        return (
            engine is not None
            and engine.policy.detect
            and engine.policy.scrub
        )

    # ----- the three Fig. 5a stages ------------------------------------------
    #
    # Each stage reads/extends a PipelineState; the job runtime calls
    # them individually with a checkpoint between, run() chains them.

    def run_hashmap(
        self,
        reads: "Iterable[Read] | Sequence[DnaSequence]",
        state: PipelineState,
    ) -> PipelineState:
        """Stage 1 — k-mer analysis on the PIM hash table."""
        pim = self.pim
        with span(
            "stage.hashmap",
            lane="hashmap",
            engine=self.engine,
            k=self.k,
        ) as stage_span, pim.phase("hashmap"):
            # window marker: the k-mer-table layout rules are in force
            # from here until hashmap:end (trace verifier scoping)
            pim.controller.mark("hashmap:begin")
            counter = PimKmerCounter(
                pim, self.k, engine=self.engine, rot_checkpoints=True
            )
            sequences = (
                item.sequence if isinstance(item, Read) else item
                for item in reads
            )
            # reads go in batches of up to BATCH_KMERS k-mer arrivals,
            # each read still its own gang schedule.  Rot checkpoints:
            # retention windows elapse in *simulated* time as reads are
            # inserted, so the integrity engine gets control after every
            # read — an end-of-stage-only sync could never corrupt (or
            # protect) the table mid-build.  The bulk engine cuts a
            # batch only after a read at which a window closes.
            batch: list[DnaSequence] = []
            arrivals = 0
            for sequence in sequences:
                checkpoint()
                batch.append(sequence)
                arrivals += max(0, len(sequence) - self.k + 1)
                if arrivals >= BATCH_KMERS:
                    counter.add_sequences(batch)
                    batch, arrivals = [], 0
            if batch:
                counter.add_sequences(batch)
            if self._scrub_active():
                # bound how long a corrupted slot can poison queries
                with span("scrub.table"):
                    counter.scrub()
            state.counter = counter
            state.counts = counter.counts()
            pim.controller.mark("hashmap:end")
            stage_span.set_attribute("kmer_table_size", len(counter))
        return state

    def run_debruijn(self, state: PipelineState) -> PipelineState:
        """Stage 2 — de Bruijn graph construction from the table."""
        with span(
            "stage.debruijn", lane="debruijn", min_count=self.min_count
        ) as stage_span, self.pim.phase("debruijn"):
            self.pim.integrity_sync()
            state.graph = DeBruijnGraph.from_counts(
                *state.counts, k=self.k, min_count=self.min_count
            )
            stage_span.set_attribute("nodes", state.graph.num_nodes)
        return state

    def run_traverse(self, state: PipelineState) -> PipelineState:
        """Stage 3 — degree computation (bulk PIM_Add) + path walk."""
        pim = self.pim
        with span(
            "stage.traverse", lane="traverse", engine=self.engine
        ) as stage_span, pim.phase("traverse"):
            # the table is read again below; heal any rot first
            pim.integrity_sync()
            if self._scrub_active():
                # the table is still resident while the graph is walked
                with span("scrub.table"):
                    state.counter.scrub()
            # Degree computation through the PIM adjacency mapping
            # (bulk PIM_Add, Fig. 8) — the in-memory portion of the
            # traversal — followed by the path walk.
            with span("traverse.degrees"):
                state.degrees = degree_vectors_pim(
                    pim,
                    state.graph,
                    # scratch space must avoid quarantined sub-arrays
                    subarray_key=pim.usable_subarray_keys()[0],
                    engine=self.engine,
                )
            with span("traverse.contigs"):
                state.contigs = assemble_contigs(
                    state.graph, min_length=self.min_contig_length
                )
            stage_span.set_attribute("contigs", len(state.contigs))
        return state

    def result(self, state: PipelineState) -> AssemblyResult:
        """Fold a completed state into the public result object."""
        pim = self.pim
        engine = pim.resilience
        return AssemblyResult(
            contigs=state.contigs,
            graph=state.graph,
            kmer_table_size=len(state.counter),
            hashmap=pim.stats.totals("hashmap"),
            debruijn=pim.stats.totals("debruijn"),
            traverse=pim.stats.totals("traverse"),
            resilience=(
                engine.report(stages=list(STAGE_NAMES))
                if engine is not None
                else None
            ),
            integrity=(
                pim.integrity.counts()
                if pim.integrity is not None
                else None
            ),
        )

    def run(self, reads: "Iterable[Read] | Sequence[DnaSequence]") -> AssemblyResult:
        """Assemble a read set end to end."""
        self._engine()
        state = PipelineState()
        self.run_hashmap(reads, state)
        self.run_debruijn(state)
        self.run_traverse(state)
        return self.result(state)


def _sized_device(reads: Sequence, k: int) -> PimAssembler:
    """Size a functional device so the hash table cannot overflow.

    Distinct k-mers are bounded by the total k-mer positions (and by
    4^k); sub-arrays are lazy, so over-provisioning costs only the
    slots actually touched.
    """
    from repro.mapping.kmer_layout import scaled_layout
    from repro.dram.geometry import SubArrayGeometry

    total = 0
    for item in reads:
        sequence = item.sequence if isinstance(item, Read) else item
        total += max(0, len(sequence) - k + 1)
    bound = max(64, min(total, 4**min(k, 30)))
    cols = max(64, 2 * ((2 * k + 7) // 8 * 4))  # k-mer must fit a row
    geometry = SubArrayGeometry(rows=512, cols=cols, compute_rows=8)
    per_subarray = scaled_layout(geometry).kmer_rows
    subarrays = max(8, -(-int(1.1 * bound) // per_subarray))
    return PimAssembler.small(subarrays=subarrays, rows=512, cols=cols)


def assemble_with_pim(
    reads: "Iterable[Read] | Sequence[DnaSequence]",
    k: int,
    pim: PimAssembler | None = None,
    **kwargs,
) -> AssemblyResult:
    """Convenience one-call assembly; sizes a device to the read set
    when none is supplied."""
    read_list = list(reads)
    pim = pim or _sized_device(read_list, k)
    pipeline = PimPipeline(pim, k=k, **kwargs)
    return pipeline.run(read_list)
