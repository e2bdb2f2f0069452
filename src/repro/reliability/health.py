"""Process-wide reliability counters.

The env supervisor, the runtime guards, the checkpoint layer and the policy
server record events here, and observability surfaces read them back —
``repro.runtime.cache_stats()`` and ``repro.telemetry.snapshot()`` expose
them under ``"health"`` and the training loop logs them per update.  Each
counter is the ``health/<name>`` :class:`~repro.telemetry.metrics.Counter`
of the process-wide metrics registry; these functions read and write it as
ints (forked env workers get an independent copy-on-write copy that
nothing reads).

Well-known counter names (always present in :func:`stats`, so dashboards and
tests can rely on the keys):

``worker_restarts``
    Async env workers respawned after a crash or a step deadline.
``step_timeouts``
    Async env steps that exceeded their per-worker deadline.
``env_degraded``
    Vector envs that exhausted their restart budget and fell back to the
    in-process sync backend.
``guard_trips``
    Updates skipped because the loss or gradient norm went non-finite.
``checkpoint_rollbacks``
    Trainer state rolled back to the last autosave after K consecutive
    guard trips.
``eager_fallbacks``
    Compiled-runtime calls (train or inference) that fell back to the eager
    tape on :class:`~repro.runtime.compiler.CompileError`.
``quarantined_kernels``
    Kernels excluded for the session after their first-bind smoke call
    raised or produced non-finite output.
``autosaves``
    Periodic checkpoints written by the training / search loops.
``faults_injected``
    Faults actually fired by the :mod:`repro.reliability.faults` injector.
``serving_shed``
    Policy-server requests rejected at admission because the intake queue
    was full (the typed load-shed path, never silent queue growth).
``serving_batch_failures``
    Policy-server batches whose model call raised; every request in the
    batch had the error set on its future and the server kept serving.
``serving_restarts``
    Policy-server worker loops restarted after an unexpected crash outside
    the per-batch guard.

Counters only ever grow, which is the right shape for a training run but
useless for a long-lived server that wants per-window rates.
:func:`snapshot` freezes the current totals and :func:`delta` reports what
accumulated since, with wall-clock seconds and per-second rates — dashboards
poll ``delta(window)`` and re-snapshot instead of diffing totals by hand.
"""

from __future__ import annotations

import time

from ..telemetry.metrics import registry

__all__ = ["KNOWN_COUNTERS", "PREFIX", "record", "get", "stats", "reset", "snapshot",
           "delta", "Snapshot", "Window"]

#: Counter names guaranteed to appear in :func:`stats` (with value 0 when
#: never recorded), so consumers can key on them unconditionally.
KNOWN_COUNTERS = (
    "worker_restarts",
    "step_timeouts",
    "env_degraded",
    "guard_trips",
    "checkpoint_rollbacks",
    "eager_fallbacks",
    "quarantined_kernels",
    "autosaves",
    "faults_injected",
    "serving_shed",
    "serving_batch_failures",
    "serving_restarts",
)

#: Registry name prefix of the health counters.
PREFIX = "health/"

for _name in KNOWN_COUNTERS:
    registry().counter(PREFIX + _name)


def record(name, count=1):
    """Add ``count`` to counter ``name`` (created on first use)."""
    counter = registry().counter(PREFIX + name)
    counter.inc(int(count))
    return counter.value


def get(name):
    """Current value of counter ``name`` (0 if never recorded)."""
    counter = registry().get(PREFIX + name)
    return counter.value if counter is not None else 0


def stats():
    """Snapshot of every counter, known names always included."""
    return registry().view(PREFIX)


def reset():
    """Zero every health counter (tests); other registry instruments stay."""
    for name in stats():
        registry().get(PREFIX + name).reset()


class Snapshot:
    """Frozen counter totals at one instant, the base of a reporting window."""

    __slots__ = ("counters", "taken_at")

    def __init__(self, counters, taken_at):
        self.counters = counters
        self.taken_at = taken_at

    def __repr__(self):
        nonzero = {k: v for k, v in self.counters.items() if v}
        return "Snapshot({})".format(nonzero)


class Window:
    """What accumulated between a :class:`Snapshot` and now.

    ``counters`` holds per-counter increments (never negative: a counter
    reset mid-window clamps to 0 rather than reporting a phantom decrease),
    ``seconds`` the wall-clock width of the window, and :attr:`rates` the
    per-second view a long-lived server reports instead of lifetime totals.
    """

    __slots__ = ("counters", "seconds")

    def __init__(self, counters, seconds):
        self.counters = counters
        self.seconds = seconds

    @property
    def rates(self):
        """Per-second rate of every counter over this window."""
        seconds = max(self.seconds, 1e-9)
        return {name: count / seconds for name, count in self.counters.items()}

    def __repr__(self):
        nonzero = {k: v for k, v in self.counters.items() if v}
        return "Window({}, seconds={:.3f})".format(nonzero, self.seconds)


def snapshot():
    """Freeze the current totals as the base of a reporting window."""
    return Snapshot(stats(), time.monotonic())


def delta(since):
    """The :class:`Window` of counter increments since ``since``.

    Counters that first appeared after the snapshot report their full value;
    known counters that never moved report 0, so window consumers can key on
    the same names as :func:`stats`.
    """
    current = stats()
    counters = {
        name: max(0, value - since.counters.get(name, 0))
        for name, value in current.items()
    }
    return Window(counters, time.monotonic() - since.taken_at)
