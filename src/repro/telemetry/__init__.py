"""Unified telemetry: span tracing, one metrics registry, profile reports.

Three pieces, one schema:

* :mod:`repro.telemetry.trace` — nested spans into a preallocated ring
  buffer with Chrome trace-event export (``REPRO_TRACE=1`` to opt in);
* :mod:`repro.telemetry.metrics` — the process's only counter store:
  counters, gauges and histograms under ``health/``, ``runtime/`` and
  ``serving/`` prefixes;
* :mod:`repro.telemetry.report` — per-span self-time aggregation ("where
  did the milliseconds go").

:func:`snapshot` is the single entry point observers poll: every key but
``trace`` is a view of the metrics registry, so dashboards never need to
know which subsystem owns which number.
"""

from __future__ import annotations

from . import metrics, report, trace
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, registry
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
    "ProfileReport",
    "profile",
    "span",
    "export_chrome",
    "snapshot",
]


def snapshot():
    """One merged view of every observability surface in the process.

    Keys:

    * ``metrics`` — every registry instrument, histograms included;
    * ``health`` — the ``health/`` counters (guard trips, shed, restarts);
    * ``plan_cache`` — the ``runtime/`` plan-cache and buffer-pool counters
      plus the per-signature kernel selections (everything
      :func:`repro.runtime.cache_stats` reports but ``health``);
    * ``serving`` — the ``serving/`` counters and queue-depth gauge, summed
      over every policy server the process ran;
    * ``trace`` — ring-buffer occupancy and the enabled flag.

    The runtime is imported lazily inside the call so ``repro.telemetry``
    stays importable from anywhere (including inside that layer) without
    cycles.
    """
    from repro.runtime import cache_stats

    plan_cache = cache_stats()
    return {
        "metrics": registry().collect(),
        "health": plan_cache.pop("health"),
        "plan_cache": plan_cache,
        "serving": registry().view("serving/"),
        "trace": trace.stats(),
    }
