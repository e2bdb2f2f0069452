"""Span tracer: nested start/stop timing with a preallocated ring buffer.

The tracer answers "where did this rollout's milliseconds go?" without a
profiler attached: hot paths (plan execution, kernel dispatch, rollout
phases, serving batches) emit *spans* — named, nested intervals — into a
fixed-size ring of preallocated event slots, and :func:`export_chrome`
writes them as Chrome trace-event JSON loadable in ``chrome://tracing`` or
`Perfetto <https://ui.perfetto.dev>`_.

Cost model, because this rides the hottest loops in the repository:

* **Disabled (the default), the instrumented code must stay free.**  Every
  instrumented hot path guards on the module-level :data:`enabled` flag —
  one attribute load and a branch, no function call, no allocation — and
  the biggest loops (plan step execution) hoist the check out of the loop
  entirely: a disabled tracer costs one branch per *plan run*, not per
  step.  The telemetry-overhead benchmark asserts this stays within noise.
* **Enabled, spans are two ``perf_counter_ns`` reads plus slot writes.**
  Begin pushes onto a preallocated thread-local frame stack (slots mutated
  in place, no allocation at steady state); end computes the duration and
  writes one ring slot under the tracer lock.  The ring never grows: when
  it wraps, the oldest events are overwritten and counted as dropped.

Spans nest per thread (thread-local frame stacks), so the serving worker
thread and client threads trace concurrently without interleaving frames.
Opt in via ``REPRO_TRACE=1`` (any value that is not ``0``/``false``/empty;
an integer > 1 also sets the ring capacity) or :func:`enable` at runtime.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = [
    "ENV_VAR",
    "DEFAULT_CAPACITY",
    "enabled",
    "enable",
    "disable",
    "Tracer",
    "span",
    "begin",
    "end",
    "complete",
    "events",
    "clear",
    "stats",
    "export_chrome",
]

ENV_VAR = "REPRO_TRACE"

#: Default ring capacity: at ~15 spans per plan run and ~5 plan runs per
#: rollout, 64k events hold several hundred rollouts of history.
DEFAULT_CAPACITY = 1 << 16

#: The opt-in flag every instrumented hot path guards on.  Read it as
#: ``trace.enabled`` (module attribute), never ``from ... import enabled``
#: — a from-import freezes the value at import time.
enabled = False

# Per-event slot layout (lists mutated in place, never reallocated):
_NAME, _CAT, _START, _DUR, _TID, _DEPTH = range(6)


class Tracer:
    """A fixed-capacity ring of completed span events.

    Recording is thread-safe (one short critical section per event);
    reading (:meth:`events`) snapshots the ring in chronological order,
    oldest surviving event first.
    """

    def __init__(self, capacity=DEFAULT_CAPACITY):
        self.capacity = int(capacity)
        if self.capacity < 1:
            raise ValueError("capacity must be >= 1, got {}".format(capacity))
        self._slots = [[None, None, 0, 0, 0, 0] for _ in range(self.capacity)]
        self._count = 0
        self._lock = threading.Lock()

    def record(self, name, cat, start_ns, dur_ns, tid, depth):
        """Append one completed span to the ring (overwrites the oldest)."""
        with self._lock:
            slot = self._slots[self._count % self.capacity]
            self._count += 1
            slot[_NAME] = name
            slot[_CAT] = cat
            slot[_START] = start_ns
            slot[_DUR] = dur_ns
            slot[_TID] = tid
            slot[_DEPTH] = depth

    def events(self):
        """Chronological snapshot: list of event dicts (ns timestamps)."""
        with self._lock:
            count = self._count
            if count <= self.capacity:
                raw = [list(slot) for slot in self._slots[:count]]
            else:
                head = count % self.capacity
                raw = [list(slot) for slot in self._slots[head:]]
                raw += [list(slot) for slot in self._slots[:head]]
        return [
            {
                "name": slot[_NAME],
                "cat": slot[_CAT],
                "ts": slot[_START],
                "dur": slot[_DUR],
                "tid": slot[_TID],
                "depth": slot[_DEPTH],
            }
            for slot in raw
        ]

    def clear(self):
        """Drop every recorded event (capacity unchanged)."""
        with self._lock:
            self._count = 0

    def stats(self):
        """Ring occupancy: total recorded, retained, and overwritten counts."""
        with self._lock:
            count = self._count
        return {
            "capacity": self.capacity,
            "recorded": count,
            "retained": min(count, self.capacity),
            "dropped": max(0, count - self.capacity),
        }


_TRACER = Tracer(DEFAULT_CAPACITY)

#: Thread-local frame stacks for nested begin/end pairs.
_TLS = threading.local()


def _frames():
    frames = getattr(_TLS, "frames", None)
    if frames is None:
        frames = _TLS.frames = [[None, None, 0] for _ in range(64)]
        _TLS.depth = 0
    return frames


def begin(name, cat="app"):
    """Open a span on this thread (no-op while disabled)."""
    if not enabled:
        return
    frames = _frames()
    depth = _TLS.depth
    if depth >= len(frames):
        frames.append([None, None, 0])
    frame = frames[depth]
    frame[0] = name
    frame[1] = cat
    frame[2] = time.perf_counter_ns()
    _TLS.depth = depth + 1


def end():
    """Close the innermost open span on this thread and record it.

    Tolerates unbalanced calls (tracing toggled mid-span): an ``end``
    without a matching ``begin`` is a silent no-op, so instrumented code
    never has to defend against runtime enable/disable races.
    """
    if not enabled:
        return
    now = time.perf_counter_ns()
    depth = getattr(_TLS, "depth", 0) - 1
    if depth < 0:
        return
    _TLS.depth = depth
    frame = _TLS.frames[depth]
    _TRACER.record(
        frame[0], frame[1], frame[2], now - frame[2], threading.get_ident(), depth
    )


def complete(name, cat, start_ns, dur_ns, depth=0):
    """Record an already-timed interval (e.g. a request's enqueue→complete).

    For lifecycles whose endpoints live on different threads (a serving
    request arrives on a client thread and completes on the worker), where
    the thread-local begin/end stack cannot carry the frame.
    """
    if not enabled:
        return
    _TRACER.record(name, cat, int(start_ns), int(dur_ns), threading.get_ident(), depth)


class span:
    """Reusable context manager: ``with trace.span("rollout/act"): ...``.

    Cheaper than ``contextlib.contextmanager`` (no generator frame); still
    only for warm paths — the truly hot loops call :func:`begin`/:func:`end`
    behind their own ``trace.enabled`` guard so the disabled cost is a
    single branch.
    """

    __slots__ = ("name", "cat")

    def __init__(self, name, cat="app"):
        self.name = name
        self.cat = cat

    def __enter__(self):
        begin(self.name, self.cat)
        return self

    def __exit__(self, *exc_info):
        end()
        return False


def enable(capacity=None):
    """Turn tracing on (optionally resizing the ring, which clears it)."""
    global enabled, _TRACER
    if capacity is not None and int(capacity) != _TRACER.capacity:
        _TRACER = Tracer(int(capacity))
    enabled = True


def disable():
    """Turn tracing off; recorded events stay readable."""
    global enabled
    enabled = False


def events():
    """Chronological snapshot of every retained event (ns timestamps)."""
    return _TRACER.events()


def clear():
    """Drop all recorded events (and reset this thread's open-frame stack)."""
    _TRACER.clear()
    _TLS.depth = 0


def stats():
    """Ring occupancy plus the enabled flag."""
    out = _TRACER.stats()
    out["enabled"] = enabled
    return out


def export_chrome(path, events_list=None):
    """Write retained spans as Chrome trace-event JSON (Perfetto-loadable).

    Uses the *complete-event* form (``"ph": "X"``) with microsecond
    ``ts``/``dur``, one row per span; thread ids map to trace rows, so the
    serving worker and client threads land on separate tracks.  Returns
    ``path``.
    """
    if events_list is None:
        events_list = events()
    pid = os.getpid()
    trace_events = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    for event in events_list:
        trace_events.append(
            {
                "name": event["name"],
                "cat": event["cat"],
                "ph": "X",
                "ts": event["ts"] / 1e3,
                "dur": event["dur"] / 1e3,
                "pid": pid,
                "tid": event["tid"],
            }
        )
    with open(path, "w") as handle:
        json.dump({"traceEvents": trace_events, "displayTimeUnit": "ms"}, handle)
    return path


def _init_from_env():
    """Honour ``REPRO_TRACE`` at import: truthy enables, ints size the ring."""
    raw = os.environ.get(ENV_VAR, "").strip().lower()
    if raw in ("", "0", "false", "off", "no"):
        return
    try:
        capacity = int(raw)
    except ValueError:
        capacity = None
    enable(capacity if capacity is not None and capacity > 1 else None)


_init_from_env()
