"""Metrics registry: counters, gauges and histograms.

The registry is the quantitative half of the observability layer: while
spans (:mod:`repro.observability.spans`) answer *when*, metrics answer
*how much* — command counts per mnemonic, simulated time/energy per
mnemonic, batch sizes, resilience retries and remaps, checkpoint bytes,
sub-array occupancy.

Feeding paths
=============

Existing components never import this module's classes directly; they
feed metrics through two narrow, off-by-default channels:

* the :class:`Recorder` protocol — :class:`~repro.core.stats.StatsLedger`
  forwards every :meth:`~repro.core.stats.StatsLedger.record` call, and
  every ordered stream of :meth:`~repro.core.stats.StatsLedger.record_batch`,
  to an attached recorder (``None`` by default), preserving the ledger's
  additive-only functional/timed separation.  The recorder is the
  :class:`~repro.observability.session.ObservabilitySession`, which
  folds the stream into its power timeline; the timeline publishes the
  ``pim.*`` command/time/energy counters into the registry at export;
* the module-level :func:`inc` / :func:`observe` / :func:`set_gauge`
  helpers, which no-op unless a registry is activated — the same
  pattern the span tracer uses, so instrumented hot paths stay free
  when observability is off.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from itertools import repeat
from typing import Iterator, Protocol, Sequence, runtime_checkable

import numpy as np

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Recorder",
    "STORAGE_BYTES",
    "STORAGE_PACK_ROWS",
    "STORAGE_SLOTS",
    "STORAGE_UNPACK_ROWS",
    "active_registry",
    "inc",
    "observe",
    "running_sums",
    "set_gauge",
]

#: gauges/counters the packed bit-plane store feeds
#: (:class:`repro.core.storage.BitPlaneStore`): backing-tensor bytes,
#: claimed slots, and rows crossing the pack boundary in each
#: direction.  Per-bank variants append ``.<label>`` (e.g.
#: ``storage.pack_rows.bank0``) — boundary churn is the packed-era
#: performance bug class, so it gets first-class names.
STORAGE_BYTES = "storage.bytes"
STORAGE_SLOTS = "storage.slots"
STORAGE_PACK_ROWS = "storage.pack_rows"
STORAGE_UNPACK_ROWS = "storage.unpack_rows"

#: per-thread slot for the currently active registry — like the span
#: tracer, activation is thread-scoped so jobs run on concurrent threads
#: never interleave updates into one unsynchronized registry
_TLS = threading.local()


#: events per ``np.add.accumulate`` block of :func:`running_sums`: bounds
#: the temporary matrix a long stream needs
SUM_BLOCK = 4096
#: streams up to this many positions are summed by a Python loop, which
#: beats the fixed cost of the array calls on a hashmap read's handful
#: of cells
SHORT_SUM = 64


def running_sums(
    seeds: Sequence[float],
    addends: "Sequence[tuple[int | np.ndarray, np.ndarray]]",
) -> list[float]:
    """Running totals of ``seeds``, each extended left to right.

    Each ``(rows, values)`` pair of ``addends`` adds ``values[k]`` to
    total ``rows[k]`` (or to total ``rows`` when it is one int), in
    ``k`` order; a total takes its addends from one pair.  The result
    is bit for bit that of a ``total += value`` loop, which is how a
    stream of at most :data:`SHORT_SUM` positions is summed.  A longer
    one shares one ``np.add.accumulate`` per block of :data:`SUM_BLOCK`
    positions among all totals, with a zero where a total has no
    addend: accumulate adds in sequence (``np.sum`` adds pairwise and
    rounds differently), and zeros change no sum of non-negative
    values.  Every batched accumulator of the ledger stream goes
    through here.
    """
    width = max((len(values) for _, values in addends), default=0)
    if width <= SHORT_SUM:
        totals = [float(seed) for seed in seeds]
        for rows, values in addends:
            targets = (
                rows.tolist() if isinstance(rows, np.ndarray) else repeat(rows)
            )
            for row, value in zip(targets, values.tolist()):
                totals[row] += value
        return totals
    sums = np.array(seeds, dtype=float)
    for lo in range(0, width, SUM_BLOCK):
        hi = min(width, lo + SUM_BLOCK)
        block = np.zeros((sums.size, hi - lo + 1))
        block[:, 0] = sums
        for rows, values in addends:
            part = values[lo:hi]
            if not part.size:
                continue
            if isinstance(rows, np.ndarray):
                block[rows[lo:hi], np.arange(1, part.size + 1)] = part
            else:
                block[rows, 1 : part.size + 1] = part
        sums = np.add.accumulate(block, axis=1)[:, -1]
    return sums.tolist()


@runtime_checkable
class Recorder(Protocol):
    """What a :class:`~repro.core.stats.StatsLedger` forwards events to.

    The protocol is two methods wide and both carry the same raw command
    events: :meth:`on_command` one record, :meth:`on_batch` an ordered
    stream of them.  The stats path needs no knowledge of metric names
    or aggregation.
    """

    def on_command(
        self,
        command: str,
        count: int,
        time_ns: float,
        energy_nj: float,
        phase: "str | None",
    ) -> None:
        """One ledger record: ``count`` commands, combined time/energy."""

    def on_batch(
        self,
        names: Sequence[str],
        codes: np.ndarray,
        counts: np.ndarray,
        time_ns: np.ndarray,
        energy_nj: np.ndarray,
        phase: "str | None",
    ) -> None:
        """An ordered stream of ledger records, all in one phase.

        Record ``j`` is ``counts[j]`` commands of ``names[codes[j]]``
        with combined ``time_ns[j]`` and ``energy_nj[j]``; ``names``
        lists the stream's commands in order of first appearance.  The
        effect must equal :meth:`on_command` per record, in order.
        """


class Counter:
    """Monotonically increasing value (float-valued to carry ns/nJ)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self.value}


class Gauge:
    """Last-written value (occupancy, queue depth, configuration)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float | None = None

    def set(self, value: float) -> None:
        self.value = value

    def snapshot(self) -> dict:
        return {"type": "gauge", "value": self.value}


class Histogram:
    """Streaming distribution with power-of-two buckets.

    Tracks count/sum/min/max exactly plus a coarse shape: bucket ``i``
    counts observations in ``(2**(i-1), 2**i]`` (bucket 0 is ``<= 1``),
    enough to tell "many small batches" from "a few huge ones" without
    storing samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    #: highest bucket exponent; observations beyond 2**30 saturate
    MAX_BUCKET = 30

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.buckets = [0] * (self.MAX_BUCKET + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        index = 0
        bound = 1.0
        while value > bound and index < self.MAX_BUCKET:
            index += 1
            bound *= 2.0
        self.buckets[index] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile by upper-bound interpolation.

        Walks the cumulative bucket counts to the bucket holding the
        target rank, then interpolates linearly between the bucket's
        lower and upper bound by rank position, clamped to the exact
        tracked ``min``/``max``.  With power-of-two buckets the
        estimate is within a factor of two of the exact sample
        quantile for positive observations (the property the tests
        check); ``min``/``max`` clamping makes q=0 / q=1 exact.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        assert self.min is not None and self.max is not None
        # rank = ceil(q * count), with a tolerance so float noise on an
        # exact boundary (0.7 * 10 -> 7.000...01) cannot shift a rank
        rank = max(1, math.ceil(q * self.count - 1e-9))
        cumulative = 0
        for index, n in enumerate(self.buckets):
            if n == 0:
                continue
            below = cumulative
            cumulative += n
            if cumulative >= rank:
                lower = 0.0 if index == 0 else 2.0 ** (index - 1)
                upper = 2.0 ** index
                fraction = (rank - below) / n
                estimate = lower + (upper - lower) * fraction
                return min(max(estimate, self.min), self.max)
        return self.max

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "buckets": {
                f"le_2e{i}": n for i, n in enumerate(self.buckets) if n
            },
        }


class MetricsRegistry:
    """Named metric store."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # ----- creation / lookup ------------------------------------------------

    def _get(self, name: str, kind):
        metric = self._metrics.get(name)
        if metric is None:
            metric = kind(name)
            self._metrics[name] = metric
        elif not isinstance(metric, kind):
            raise TypeError(
                f"metric {name!r} already registered as "
                f"{type(metric).__name__}, not {kind.__name__}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram)

    def get(self, name: str):
        """The metric registered under ``name`` (``None`` when absent)."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        return sorted(self._metrics)

    # ----- export -----------------------------------------------------------

    def snapshot(self) -> dict:
        """JSON-serializable dump of every metric, sorted by name."""
        return {
            name: self._metrics[name].snapshot() for name in self.names()
        }

    # ----- activation -------------------------------------------------------

    @contextmanager
    def activate(self) -> Iterator["MetricsRegistry"]:
        """Install this registry as this thread's helpers' target."""
        previous = getattr(_TLS, "registry", None)
        _TLS.registry = self
        try:
            yield self
        finally:
            _TLS.registry = previous


def active_registry() -> "MetricsRegistry | None":
    """This thread's registry installed by :meth:`MetricsRegistry.activate`."""
    return getattr(_TLS, "registry", None)


def inc(name: str, amount: float = 1.0) -> None:
    """Bump a counter on the active registry (no-op when none)."""
    active = getattr(_TLS, "registry", None)
    if active is not None:
        active.counter(name).inc(amount)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry (no-op)."""
    active = getattr(_TLS, "registry", None)
    if active is not None:
        active.histogram(name).observe(value)


def set_gauge(name: str, value: float) -> None:
    """Write a gauge on the active registry (no-op when none)."""
    active = getattr(_TLS, "registry", None)
    if active is not None:
        active.gauge(name).set(value)
