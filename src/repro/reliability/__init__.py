"""Fault tolerance: fault injection, retry policies, and health counters.

Long search runs are only as reliable as their weakest worker: a crashed env
process, a hung pipe, a NaN gradient, or a kernel that segfault-adjacently
raises at its first bind must not take down an hour of co-search.  This
package holds the three primitives the env / runtime / training layers wire
through:

* :mod:`repro.reliability.faults` — a seeded, deterministic fault injector
  configured via the ``REPRO_FAULTS`` environment variable, so every
  recovery path is testable on demand (and exercised by CI under two
  standing fault profiles);
* :mod:`repro.reliability.retry` — reusable :class:`RetryPolicy` objects
  (max attempts, exponential backoff, deadline) shared by the env worker
  supervisor and anything else that restarts things;
* :mod:`repro.reliability.health` — process-wide counters (worker restarts,
  step timeouts, guard trips, eager fallbacks, quarantined kernels)
  surfaced through ``repro.runtime.cache_stats()["health"]`` and logged per
  update by the search loop.

With ``REPRO_FAULTS`` unset the injector is ``None`` and every
instrumentation site reduces to one ``is None`` branch — the fault harness
costs nothing on clean runs.
"""

from .faults import FaultInjector, get_injector, reset_injector
from .health import KNOWN_COUNTERS
from .health import delta as health_delta
from .health import get as health_get
from .health import record as health_record
from .health import reset as health_reset
from .health import snapshot as health_snapshot
from .health import stats as health_stats
from .retry import RetryError, RetryPolicy

__all__ = [
    "FaultInjector",
    "get_injector",
    "reset_injector",
    "RetryPolicy",
    "RetryError",
    "KNOWN_COUNTERS",
    "health_record",
    "health_get",
    "health_stats",
    "health_reset",
    "health_snapshot",
    "health_delta",
]
