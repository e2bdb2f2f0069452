"""Metrics registry: counters, gauges, fixed-bucket histograms, exporters.

One uniform vocabulary for every number the system already produces —
reliability ``health`` counters, plan-cache hit rates, kernel selections,
serving latencies, trainer loss curves — so dashboards read **one** schema
instead of four ad-hoc dicts:

* :class:`Counter` — monotonically increasing totals (requests served,
  guard trips);
* :class:`Gauge` — last-write-wins instantaneous values (queue depth,
  learning rate);
* :class:`Histogram` — fixed-bucket distributions with percentile
  summaries (request latency, batch occupancy).  Buckets are chosen at
  construction and never reallocated, so ``observe`` is an index increment
  — safe on warm paths.

A :class:`MetricsRegistry` names them; :func:`registry` returns the
process-wide default (get-or-create semantics, so two subsystems recording
``serving_shed`` share one counter).  :class:`JsonlExporter` appends
snapshots as JSON lines; :func:`prometheus_text` renders the Prometheus
text exposition format.  :class:`Reporter` is the periodic hook trainers
and searchers call once per update to sample
:func:`repro.telemetry.snapshot` into a JSONL stream.
"""

from __future__ import annotations

import bisect
import json
import math
import threading
import time

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "DEFAULT_LATENCY_BUCKETS",
    "FRACTION_BUCKETS",
    "JsonlExporter",
    "prometheus_text",
    "Reporter",
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
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount=1.0):
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge for {}".format(amount))
        with self._lock:
            self._value += amount

    @property
    def value(self):
        return self._value

    def collect(self):
        return {"type": "counter", "value": self._value}


class Gauge:
    """An instantaneous value (last write wins)."""

    __slots__ = ("name", "help", "_value")

    def __init__(self, name, help=""):
        self.name = name
        self.help = help
        self._value = 0.0

    def set(self, value):
        self._value = float(value)

    def inc(self, amount=1.0):
        self._value += amount

    def dec(self, amount=1.0):
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
        metric = self._get_or_create(name, Histogram, buckets=buckets, help=help)
        return metric

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

    def reset(self):
        """Drop every instrument (tests)."""
        with self._lock:
            self._metrics.clear()


_REGISTRY = MetricsRegistry()


def registry():
    """The process-wide default registry."""
    return _REGISTRY


# --------------------------------------------------------------------- #
# Exporters
# --------------------------------------------------------------------- #
class JsonlExporter:
    """Appends snapshots as JSON lines (one object per line).

    JSONL keeps the export append-only and crash-tolerant: a killed run
    loses at most the line being written, and consumers stream the file
    without loading it whole.
    """

    def __init__(self, path):
        self.path = str(path)
        self.lines_written = 0

    def write(self, snapshot):
        """Append one snapshot; stamps ``time`` if absent.  Returns it."""
        if "time" not in snapshot:
            snapshot = dict(snapshot)
            snapshot["time"] = time.time()
        with open(self.path, "a") as handle:
            handle.write(json.dumps(snapshot, default=_json_default))
            handle.write("\n")
        self.lines_written += 1
        return snapshot

    @staticmethod
    def read(path):
        """Load every snapshot line back (skipping blank lines)."""
        out = []
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    out.append(json.loads(line))
        return out


def _json_default(value):
    """Serialise the NumPy scalars that ride along in stats dicts."""
    item = getattr(value, "item", None)
    if callable(item):
        return item()
    return str(value)


def _sanitize(name):
    """Prometheus metric names: ``[a-zA-Z_:][a-zA-Z0-9_:]*``."""
    out = []
    for index, char in enumerate(name):
        if char.isalnum() or char in "_:":
            out.append(char)
        else:
            out.append("_")
        if index == 0 and char.isdigit():
            out[0] = "_" + char
    return "".join(out)


def prometheus_text(metrics=None):
    """Render metrics in the Prometheus text exposition format (0.0.4).

    ``metrics`` is a ``{name: collected}`` dict (as returned by
    :meth:`MetricsRegistry.collect`); ``None`` collects the default
    registry.  Counters render as ``<name>_total``, histograms as
    cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``.
    """
    if metrics is None:
        metrics = _REGISTRY.collect()
    lines = []
    for name, data in sorted(metrics.items()):
        kind = data.get("type")
        metric_name = _sanitize(name)
        if kind == "counter":
            lines.append("# TYPE {} counter".format(metric_name))
            lines.append("{}_total {}".format(metric_name, _format_value(data["value"])))
        elif kind == "gauge":
            lines.append("# TYPE {} gauge".format(metric_name))
            lines.append("{} {}".format(metric_name, _format_value(data["value"])))
        elif kind == "histogram":
            lines.append("# TYPE {} histogram".format(metric_name))
            cumulative = 0
            for bound, bucket_count in data["buckets"].items():
                if bound == "+Inf":
                    continue
                cumulative += bucket_count
                lines.append(
                    '{}_bucket{{le="{}"}} {}'.format(metric_name, bound, cumulative)
                )
            cumulative += data["buckets"].get("+Inf", 0)
            lines.append('{}_bucket{{le="+Inf"}} {}'.format(metric_name, cumulative))
            lines.append("{}_sum {}".format(metric_name, _format_value(data["sum"])))
            lines.append("{}_count {}".format(metric_name, data["count"]))
    return "\n".join(lines) + ("\n" if lines else "")


def _format_value(value):
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


# --------------------------------------------------------------------- #
# Periodic reporting hook
# --------------------------------------------------------------------- #
class Reporter:
    """Samples :func:`repro.telemetry.snapshot` every N ``tick`` calls.

    Trainers and searchers call :meth:`tick` once per update; every
    ``interval``-th call takes a unified snapshot, optionally appends it to
    a JSONL file, and returns it (``None`` on the off-ticks), so loops log
    telemetry at a bounded cadence without owning any schema themselves.
    """

    def __init__(self, interval=25, path=None):
        self.interval = int(interval)
        self.exporter = JsonlExporter(path) if path else None
        self.ticks = 0
        self.reports = 0

    def tick(self, step=None, extra=None):
        """One update happened; report if the interval elapsed."""
        self.ticks += 1
        if self.interval <= 0 or self.ticks % self.interval != 0:
            return None
        from . import snapshot

        snap = snapshot()
        if step is not None:
            snap["step"] = int(step)
        if extra:
            snap.update(extra)
        if self.exporter is not None:
            self.exporter.write(snap)
        self.reports += 1
        return snap
