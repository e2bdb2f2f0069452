"""Unified telemetry: span tracing, metrics registry, profile reports.

Three pieces, one schema:

* :mod:`repro.telemetry.trace` — nested spans into a preallocated ring
  buffer with Chrome trace-event export (``REPRO_TRACE=1`` to opt in);
* :mod:`repro.telemetry.metrics` — counters / gauges / histograms with
  percentile summaries, JSONL and Prometheus-text exporters, and the
  periodic :class:`~repro.telemetry.metrics.Reporter` hook;
* :mod:`repro.telemetry.report` — per-span self-time aggregation ("where
  did the milliseconds go").

:func:`snapshot` is the single entry point observers poll: it merges the
metrics registry with every pre-existing surface — reliability ``health``
counters, runtime plan-cache/pool stats (kernel selections included), and
serving stats — into one dict, so dashboards and the training loops'
reporters never need to know which subsystem owns which number.
"""

from __future__ import annotations

from . import metrics, report, trace
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    JsonlExporter,
    MetricsRegistry,
    Reporter,
    prometheus_text,
    registry,
)
from .report import ProfileReport, profile
from .trace import export_chrome, span

__all__ = [
    "trace",
    "metrics",
    "report",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "registry",
    "JsonlExporter",
    "prometheus_text",
    "Reporter",
    "ProfileReport",
    "profile",
    "span",
    "export_chrome",
    "snapshot",
]


def snapshot():
    """One merged view of every observability surface in the process.

    Keys:

    * ``metrics`` — the telemetry registry (counters/gauges/histograms);
    * ``health`` — reliability counters (guard trips, shed, restarts);
    * ``plan_cache`` — compiled-plan caches, buffer pools and the
      per-signature kernel selections (from :func:`repro.runtime.cache_stats`);
    * ``serving`` — live policy-server stats (empty dict when no server
      has been constructed);
    * ``trace`` — ring-buffer occupancy and the enabled flag.

    Imports of the runtime/serving layers happen lazily inside the call so
    ``repro.telemetry`` stays importable from anywhere (including inside
    those layers) without cycles.
    """
    from repro.reliability import health as _health
    from repro.runtime import cache_stats as _cache_stats

    stats = _cache_stats()
    snap = {
        "metrics": registry().collect(),
        "health": stats.get("health", _health.snapshot()),
        "plan_cache": {
            key: stats[key]
            for key in ("inference_plans", "train_plans", "buffer_pools", "kernels")
            if key in stats
        },
        "serving": stats.get("serving", {}),
        "trace": trace.stats(),
    }
    return snap

