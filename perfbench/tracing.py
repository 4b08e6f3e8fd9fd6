"""In-memory span tracing around each layer's public functions.

:class:`LayerTracer` temporarily replaces the functions named in
:data:`TARGETS` with timing wrappers for the duration of one traced
job; nothing under ``src/`` is edited.  Each call becomes a span (name,
start, end, parent), all spans of the job share one job id, and they
are kept in flat integer arrays until the job ends, so the hot path
allocates no objects the garbage collector tracks.

The store is separate from :class:`repro.observability.spans.Tracer`
because of its cost: a deep-bulk job makes about 130k
``scheduler.charge`` calls.  On a 2-core x86-64 VM, interleaved
untraced and traced jobs (seven each, median) were 25% slower with this
store and 96% slower with wrappers opening ``Tracer.span``; ladder-bulk
13% against 40%.

:meth:`LayerTracer.summary` folds the spans per layer (a span name's
prefix before the first dot):

* ``layer_ns`` — time inside outermost calls into the layer, so a
  layer that calls itself is not counted twice;
* ``self_ns`` — span time minus the time its child spans cover;
* ``name_ns`` / ``calls`` — inclusive time and call count per span name.
"""

from __future__ import annotations

import functools
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterator

from repro.analysis import optimizer, verifier
from repro.assembly import pipeline
from repro.assembly.debruijn import DeBruijnGraph
from repro.assembly.hashmap import PimKmerCounter
from repro.core.platform import PimAssembler
from repro.core.scheduler import BatchedAapScheduler
from repro.mapping import adjacency
from repro.observability.session import ObservabilitySession
from repro.runtime.checkpoint import JobJournal

#: (owner, attribute, span name).  Module-level functions the pipeline
#: imports by name are patched at both bindings.
TARGETS: tuple[tuple[object, str, str], ...] = (
    (PimKmerCounter, "add_sequence", "hashmap.round"),
    (PimKmerCounter, "add_sequences", "hashmap.round"),
    (PimKmerCounter, "counts", "hashmap.readback"),
    (BatchedAapScheduler, "charge", "scheduler.charge"),
    (BatchedAapScheduler, "flush", "scheduler.flush"),
    (DeBruijnGraph, "from_counts", "debruijn.build"),
    (adjacency, "degree_vectors_pim", "adjacency.degrees"),
    (pipeline, "degree_vectors_pim", "adjacency.degrees"),
    (adjacency, "adjacency_rows_for_chunk", "adjacency.rows"),
    (adjacency, "wallace_column_sum", "adjacency.wallace"),
    (pipeline, "assemble_contigs", "contigs.assemble"),
    (PimAssembler, "integrity_sync", "integrity.sync"),
    (JobJournal, "append", "journal.append"),
    (ObservabilitySession, "on_command", "telemetry.on_command"),
    (verifier, "verify_document", "analysis.verify"),
    (optimizer, "optimize_document", "analysis.optimize"),
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


@dataclass
class SpanSummary:
    """Per-name and per-layer folds of one traced job's spans."""

    calls: Counter = field(default_factory=Counter)
    name_ns: Counter = field(default_factory=Counter)
    self_ns: Counter = field(default_factory=Counter)
    layer_ns: Counter = field(default_factory=Counter)
    #: durations of outermost ``hashmap.round`` calls, in call order
    round_ns: list[int] = field(default_factory=list)


class LayerTracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.names: list[str] = []
        self._code: dict[str, int] = {}
        # one entry per span, in start order; parent -1 marks a root
        self._codes = array("q")
        self._parents = array("q")
        self._starts = array("q")
        self._ends = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self._codes)

    def _intern(self, name: str) -> int:
        if name not in self._code:
            self._code[name] = len(self.names)
            self.names.append(name)
        return self._code[name]

    # ----- recording --------------------------------------------------------

    def _opener(self, name: str) -> tuple[Callable[[], None], Callable[[], None]]:
        code = self._intern(name)
        codes, parents = self._codes, self._parents
        starts, ends, stack = self._starts, self._ends, self._stack
        clock = time.perf_counter_ns

        def enter() -> None:
            parents.append(stack[-1] if stack else -1)
            stack.append(len(codes))
            codes.append(code)
            ends.append(0)
            starts.append(clock())

        def leave() -> None:
            ends[stack.pop()] = clock()

        return enter, leave

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A span opened by the benchmark itself (e.g. the job root)."""
        enter, leave = self._opener(name)
        enter()
        try:
            yield
        finally:
            leave()

    def _wrap(self, raw: object, name: str) -> object:
        if isinstance(raw, classmethod):
            return classmethod(self._wrap(raw.__func__, name))
        func: Callable = raw  # type: ignore[assignment]
        enter, leave = self._opener(name)

        @functools.wraps(func)
        def timed(*args, **kwargs):
            enter()
            try:
                return func(*args, **kwargs)
            finally:
                leave()

        return timed

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        """Wrap every target for the duration of the block."""
        try:
            for owner, attr, name in TARGETS:
                raw = vars(owner)[attr]
                self._saved.append((owner, attr, raw))
                setattr(owner, attr, self._wrap(raw, name))
            yield self
        finally:
            for owner, attr, raw in reversed(self._saved):
                setattr(owner, attr, raw)
            self._saved.clear()

    # ----- folding and output -----------------------------------------------

    def summary(self) -> SpanSummary:
        out = SpanSummary()
        layers = [layer_of(name) for name in self.names]
        n = len(self._codes)
        child_ns = [0] * n
        durations = [self._ends[i] - self._starts[i] for i in range(n)]
        for i in range(n):
            parent = self._parents[i]
            if parent >= 0:
                child_ns[parent] += durations[i]
        round_code = self._code.get("hashmap.round", -1)
        for i in range(n):
            code = self._codes[i]
            name, layer = self.names[code], layers[code]
            out.calls[name] += 1
            out.name_ns[name] += durations[i]
            out.self_ns[layer] += durations[i] - child_ns[i]
            parent = self._parents[i]
            while parent >= 0 and layers[self._codes[parent]] != layer:
                parent = self._parents[parent]
            if parent < 0:  # no enclosing span of the same layer
                out.layer_ns[layer] += durations[i]
                if code == round_code:
                    out.round_ns.append(durations[i])
        return out

    def dump(self, path: Path, **meta: object) -> None:
        """Write every span, start-relative, as compact JSON."""
        origin = self._starts[0] if len(self._starts) else 0
        payload = {
            "job_id": self.job_id,
            **meta,
            "fields": ["name", "start_ns", "end_ns", "parent"],
            "names": self.names,
            "spans": [
                [code, start - origin, end - origin, parent]
                for code, start, end, parent in zip(
                    self._codes, self._starts, self._ends, self._parents
                )
            ],
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
