"""The one metrics store: counters, gauges, fixed-bucket histograms.

A live :class:`~repro.observability.telemetry.Telemetry` hub owns a
:class:`MetricsRegistry` as ``hub.metrics`` (span and batch timings are
its histograms), and ``repro serve`` hands the daemon that same
registry.  The hub's ``flush()`` (JSONL summary events) and the
daemon's live ``stats`` query are two exporters of this one store.

The design follows the hub's zero-cost contract:

* :data:`NULL_METRICS` (a :class:`NullMetrics`) is the disabled
  registry; every method is a no-op and ``enabled`` is ``False``;
* hot paths guard on that one attribute and skip the clock reads and
  dict updates entirely, so a daemon started with ``--no-metrics``
  does *exactly zero* extra work per request
  (``tests/test_metrics_registry.py`` asserts this structurally and
  ``benchmarks/bench_matrix.py`` gates the enabled-mode overhead).

Latency histograms use **fixed bucket bounds** (:data:`LATENCY_BUCKETS`,
seconds) so an ``observe`` is one bisect plus two adds — no per-sample
allocation, no reservoir, and snapshots from different daemons are
directly comparable.  p50/p95/p99 are derived from the buckets by
linear interpolation at snapshot time (upper-bounded by the bucket
ceiling, so a quantile never exaggerates a latency).

Snapshots follow a **stable JSON schema** (:data:`METRICS_SCHEMA`,
documented in ``docs/OBSERVABILITY.md``): keys are emitted sorted, and
every wall-clock-dependent field is named with an ``_s`` / ``_unix``
suffix so :func:`normalize_snapshot` can strip timing noise — two
snapshots taken after identical request loads normalize to
byte-identical JSON, which is what the service tests assert.
"""

from __future__ import annotations

import json
from bisect import bisect_left

#: Version stamped into every snapshot (bump on layout change).
METRICS_SCHEMA = 1

#: Fixed histogram bucket upper bounds, in seconds.  Spans 100 µs to
#: 10 s — the daemon's request latencies sit in the low-millisecond
#: range, heavy ``report`` queries in the hundreds of milliseconds.
#: The implicit final bucket catches everything above the last bound.
LATENCY_BUCKETS = (0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
                   0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
                   10.0)


class Histogram:
    """One fixed-bucket latency histogram over :data:`LATENCY_BUCKETS`.

    ``counts`` has ``len(LATENCY_BUCKETS) + 1`` cells; the last is the
    overflow bucket (observations above the largest bound).
    """

    __slots__ = ("counts", "count", "sum_s")

    def __init__(self):
        self.counts = [0] * (len(LATENCY_BUCKETS) + 1)
        self.count = 0
        self.sum_s = 0.0

    def observe(self, seconds: float) -> None:
        self.counts[bisect_left(LATENCY_BUCKETS, seconds)] += 1
        self.count += 1
        self.sum_s += seconds

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1), linearly interpolated inside
        the bucket that crosses it; an overflow-bucket hit reports the
        largest finite bound (the histogram cannot resolve beyond it).
        Returns 0.0 for an empty histogram."""
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for index, cell in enumerate(self.counts):
            if cell == 0:
                continue
            if seen + cell >= rank:
                if index >= len(LATENCY_BUCKETS):
                    return LATENCY_BUCKETS[-1]
                low = LATENCY_BUCKETS[index - 1] if index else 0.0
                high = LATENCY_BUCKETS[index]
                return low + (high - low) * (rank - seen) / cell
            seen += cell
        return LATENCY_BUCKETS[-1]

    def snapshot(self) -> dict:
        return {
            "count": self.count,
            "sum_s": round(self.sum_s, 6),
            "buckets": {
                "le": [*LATENCY_BUCKETS, "inf"],
                "counts": list(self.counts),
            },
            "p50_s": round(self.quantile(0.50), 6),
            "p95_s": round(self.quantile(0.95), 6),
            "p99_s": round(self.quantile(0.99), 6),
        }


class NullMetrics:
    """The disabled registry: every operation is a no-op.

    Method-compatible with :class:`MetricsRegistry` so cold paths can
    call it unconditionally; hot paths must guard on ``enabled`` and
    skip the clock read *and* the call (the structural guard test
    counts calls on a subclass and requires exactly zero).
    """

    enabled = False

    def inc(self, name, delta=1):
        pass

    def gauge(self, name, value):
        pass

    def observe(self, name, seconds):
        pass

    def snapshot(self):
        return {"schema": METRICS_SCHEMA, "enabled": False}


NULL_METRICS = NullMetrics()


class MetricsRegistry:
    """Counters, gauges, and latency histograms with stable snapshots.

    Lock-cheap by construction: the daemon's event loop is single-
    threaded, so updates are plain dict operations — no lock at all.
    (Anything off-loop must confine itself to snapshots, which read
    atomically enough under the GIL for monitoring purposes.)
    """

    enabled = True

    def __init__(self):
        self.counters = {}
        self.gauges = {}
        self.histograms = {}

    def inc(self, name: str, delta=1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(seconds)

    def snapshot(self) -> dict:
        """The registry as a stable JSON-ready dict (sorted keys)."""
        return {
            "schema": METRICS_SCHEMA,
            "enabled": True,
            "counters": dict(sorted(self.counters.items())),
            "gauges": dict(sorted(self.gauges.items())),
            "histograms": {name: histogram.snapshot()
                           for name, histogram
                           in sorted(self.histograms.items())},
        }


# -- snapshot normalization ---------------------------------------------------

#: Key suffixes that mark wall-clock-dependent values.  Everything the
#: snapshot schema measures in wall time carries one of these, which is
#: what lets :func:`normalize_snapshot` strip timing without a schema-
#: specific field list.
TIMING_SUFFIXES = ("_s", "_unix")


def _is_timing_key(key) -> bool:
    return isinstance(key, str) and key.endswith(TIMING_SUFFIXES)


def normalize_snapshot(doc):
    """A deep copy of ``doc`` with every timing field zeroed.

    * any key ending in ``_s`` or ``_unix`` (latencies, uptimes,
      timestamps) becomes ``0``;
    * histogram bucket ``counts`` are zeroed too — *which* bucket a
      request lands in is wall-clock noise even though the total
      ``count`` is deterministic.

    Two stats responses taken after identical request loads normalize
    to equal documents; ``stable_json`` of each is byte-identical.
    """
    return _normalize(doc)


def _normalize(value, key=None):
    if isinstance(value, dict):
        if set(value) == {"le", "counts"}:   # a histogram bucket table
            return {"le": list(value["le"]),
                    "counts": [0] * len(value["counts"])}
        return {k: _normalize(v, k) for k, v in value.items()}
    if isinstance(value, list):
        return [_normalize(item, key) for item in value]
    if _is_timing_key(key) and isinstance(value, (int, float)) \
            and not isinstance(value, bool):
        return 0
    return value


def stable_json(doc) -> str:
    """Canonical serialization for byte-for-byte snapshot comparison."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
