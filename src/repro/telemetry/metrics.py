"""Metrics registry: the process's one store of counters, gauges and histograms.

Every process-wide count lives here, under a ``<layer>/`` prefix:

* ``health/<name>`` — reliability events (guard trips, restarts, shed
  requests), written through :mod:`repro.reliability.health`;
* ``runtime/inference_plans/*``, ``runtime/train_plans/*`` and
  ``runtime/buffer_pools/*`` — plan-cache hits, misses and evictions and
  recycled vs freshly allocated pool bytes, bumped by the engines, train
  steps and pools as they count;
* ``serving/*`` — requests, batches and queue depth over every
  :class:`~repro.serving.PolicyServer`, plus its latency and occupancy
  histograms.

The instruments:

* :class:`Counter` — monotonically increasing totals (requests served,
  guard trips);
* :class:`Gauge` — instantaneous values (queue depth);
* :class:`Histogram` — fixed-bucket distributions with percentile
  summaries (request latency, batch occupancy).  Buckets are chosen at
  construction and never reallocated, so ``observe`` is an index increment
  — safe on warm paths.

:func:`registry` returns the process-wide :class:`MetricsRegistry`
(get-or-create semantics, so every site naming ``health/guard_trips``
shares one counter).  Counters are never dropped, so totals only grow and
per-update deltas never go negative; :meth:`MetricsRegistry.view` reads
one prefix back as a plain dict, which is how ``health.stats()``,
``repro.runtime.cache_stats()`` and :func:`repro.telemetry.snapshot` are
built.
"""

from __future__ import annotations

import bisect
import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "DEFAULT_LATENCY_BUCKETS",
    "FRACTION_BUCKETS",
]

#: Default histogram buckets, tuned for request/step latencies in seconds:
#: 100 us .. 10 s, roughly x2.5 per step (Prometheus-style upper bounds).
DEFAULT_LATENCY_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Buckets for [0, 1] ratios (batch occupancy, utilisation).
FRACTION_BUCKETS = (0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0)


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount=1):
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for {}".format(amount))
        with self._lock:
            self._value += amount

    def reset(self):
        """Zero the total (tests)."""
        with self._lock:
            self._value = 0

    @property
    def value(self):
        return self._value

    def collect(self):
        return {"type": "counter", "value": self._value}


class Gauge:
    """An instantaneous value that moves both ways."""

    __slots__ = ("name", "help", "_value", "_lock")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value):
        self._value = float(value)

    def inc(self, amount=1.0):
        with self._lock:
            self._value += amount

    def dec(self, amount=1.0):
        with self._lock:
            self._value -= amount

    @property
    def value(self):
        return self._value

    def collect(self):
        return {"type": "gauge", "value": self._value}


class Histogram:
    """Fixed-bucket distribution with percentile summaries.

    ``buckets`` are ascending upper bounds; values above the last bound land
    in an implicit ``+Inf`` bucket.  ``observe`` is a binary search plus two
    increments — no allocation, safe to call once per request on the serving
    hot path.  Percentiles interpolate linearly within the winning bucket
    (clamped by the observed min/max), which is exact enough for the p50/p95/
    p99 reporting this exists for while never retaining raw samples.
    """

    __slots__ = ("name", "help", "buckets", "_counts", "_count", "_sum",
                 "_min", "_max", "_lock")

    def __init__(self, name, buckets=DEFAULT_LATENCY_BUCKETS, help=""):
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        if not self.buckets or list(self.buckets) != sorted(self.buckets):
            raise ValueError("histogram buckets must be ascending and non-empty")
        self._counts = [0] * (len(self.buckets) + 1)  # trailing +Inf bucket
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value):
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self):
        return self._count

    @property
    def sum(self):
        return self._sum

    @property
    def mean(self):
        return self._sum / self._count if self._count else 0.0

    def percentile(self, q):
        """Approximate ``q``-th percentile (``q`` in [0, 100])."""
        with self._lock:
            count = self._count
            counts = list(self._counts)
            lo, hi = self._min, self._max
        if not count:
            return 0.0
        rank = (q / 100.0) * count
        cumulative = 0
        for index, bucket_count in enumerate(counts):
            if not bucket_count:
                continue
            previous = cumulative
            cumulative += bucket_count
            if cumulative >= rank:
                lower = self.buckets[index - 1] if index > 0 else lo
                upper = self.buckets[index] if index < len(self.buckets) else hi
                lower = max(lower, lo)
                upper = min(upper, hi)
                if upper <= lower:
                    return float(upper)
                fraction = (rank - previous) / bucket_count
                return float(lower + fraction * (upper - lower))
        return float(hi)

    def summary(self):
        """The fixed percentile report every surface exposes."""
        return {
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self._min if self._count else 0.0,
            "max": self._max if self._count else 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def collect(self):
        out = {"type": "histogram", "buckets": {}, **self.summary()}
        for bound, bucket_count in zip(self.buckets, self._counts):
            out["buckets"][repr(bound)] = bucket_count
        out["buckets"]["+Inf"] = self._counts[-1]
        return out


class MetricsRegistry:
    """Named metric instruments with get-or-create semantics.

    Re-requesting a name returns the existing instrument (so independent
    subsystems share totals, Prometheus-client style); requesting an
    existing name as a *different* type raises.
    """

    def __init__(self):
        self._metrics = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name, cls, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name, **kwargs)
            elif not isinstance(metric, cls):
                raise TypeError(
                    "metric {!r} already registered as {}".format(
                        name, type(metric).__name__
                    )
                )
            return metric

    def counter(self, name, help=""):
        return self._get_or_create(name, Counter, help=help)

    def gauge(self, name, help=""):
        return self._get_or_create(name, Gauge, help=help)

    def histogram(self, name, buckets=DEFAULT_LATENCY_BUCKETS, help=""):
        return self._get_or_create(name, Histogram, buckets=buckets, help=help)

    def get(self, name):
        return self._metrics.get(name)

    def names(self):
        with self._lock:
            return sorted(self._metrics)

    def collect(self):
        """``{name: {"type": ..., ...}}`` snapshot of every instrument."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.collect() for name, metric in sorted(metrics)}

    def view(self, prefix):
        """``{name without prefix: value}`` of the counters and gauges under ``prefix``."""
        with self._lock:
            metrics = [(name, metric) for name, metric in self._metrics.items()
                       if name.startswith(prefix) and not isinstance(metric, Histogram)]
        return {name[len(prefix):]: metric.value for name, metric in sorted(metrics)}


_REGISTRY = MetricsRegistry()


def registry():
    """The process-wide default registry."""
    return _REGISTRY
