"""The persistent in-process policy server.

:class:`PolicyServer` turns the compiled runtime into long-lived serving
infrastructure: many concurrent clients (episodes, evaluation loops, other
threads) submit single observations against a *named model* and get a
future; a dedicated scheduler thread coalesces waiting requests into
batch-bucketed groups (:class:`~repro.serving.batching.BucketPolicy`), pads
partial buckets, executes them on the model's
:meth:`~repro.drl.agent.ActorCriticAgent.policy_value` fast path — one
compiled plan per (model, bucket), cached by the engine underneath — and
fans the rows back out to the per-request futures.

Design points, in the order they matter operationally:

* **Single inference thread.**  All model execution happens on the server's
  worker thread, which is what the engine layer's no-locking contracts
  (plan cache, :class:`~repro.runtime.plan.BufferPool`, scratch arenas)
  require.  Client threads only touch the intake queue under a lock.
* **Admission control.**  The intake queue is bounded (``max_queue``); a
  submit against a full queue raises
  :class:`~repro.serving.errors.ServerOverloadedError` *synchronously* and
  bumps the ``serving_shed`` health counter.  Overload therefore degrades
  into typed, observable load-shedding instead of unbounded memory growth
  and unbounded latency.
* **Supervised worker loop.**  Model-call failures are contained per batch
  (the error lands on that batch's futures; the loop keeps serving).  A
  crash of the loop itself restarts it under the server's
  :class:`~repro.reliability.retry.RetryPolicy` (backoff between restarts,
  budget of consecutive crashes); exhausting the budget fails every queued
  request with a typed error rather than leaving clients hanging.
* **Graceful shutdown.**  ``close()`` mirrors ``AsyncVectorEnv.close()``
  drain semantics: the in-flight batch completes and resolves normally,
  queued-but-unscheduled requests resolve with
  :class:`~repro.serving.errors.ServerClosedError` (or are drained to
  completion with ``finish_backlog=True``), and later submits raise.  A
  client blocked on ``future.result()`` never hangs on server exit.
* **Observability.**  Per-server counters via :meth:`PolicyServer.stats`;
  each per-server count also adds to one process-wide counter of the
  metrics registry (``serving/*``, or ``health/serving_*`` for shed
  requests, failed batches and restarts), read back through
  ``repro.telemetry.snapshot()``; per-window rates via
  :meth:`PolicyServer.health_window` (built on
  ``reliability.health.snapshot()/delta()``).

Numerics contract: within one bucket size, responses are bitwise-identical
to evaluating the same observations directly at that batch size — padding
rows and co-batched traffic cannot perturb a request's answer (eval-mode
plans have no cross-row reductions).  Across *different* bucket sizes,
float32 results agree only to reassociation (~1e-7: BLAS reduction order
changes with the GEMM batch dimension); deployments that need one bitwise
answer per observation regardless of traffic should use a single-bucket
policy.  Registered models must be in eval mode — training-mode batch-norm
derives statistics from the whole batch and would couple co-batched
requests.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future, InvalidStateError
from collections import deque

import numpy as np

from ..reliability import health
from ..reliability.retry import RetryPolicy
from ..telemetry import metrics, trace
from .batching import BucketPolicy
from .errors import ServerClosedError, ServerOverloadedError, ServingError, UnknownModelError

__all__ = ["PolicyServer"]

#: Idle poll interval of the worker loop: bounds how stale a close() can be
#: observed, without busy-waiting an empty queue.
_IDLE_WAIT = 0.05

# Process-wide serving metrics (summed over every server; per-server
# percentiles live on the server's private histograms and surface through
# stats()).
_M_LATENCY = metrics.registry().histogram(
    "serving/request_latency_seconds", help="submit -> future-resolved latency"
)
_M_OCCUPANCY = metrics.registry().histogram(
    "serving/batch_occupancy",
    buckets=metrics.FRACTION_BUCKETS,
    help="valid rows / bucket size per executed batch",
)
_M_QUEUE_DEPTH = metrics.registry().gauge(
    "serving/queue_depth", help="waiting requests over every server"
)
#: The one process-wide counter each per-server count adds to: shed
#: requests, failed batches and worker restarts are reliability events
#: (``health/serving_*``), the rest are ``serving/*`` counters.
_TOTALS = {
    key: metrics.registry().counter("serving/" + key)
    for key in ("requests", "completed", "failed", "batches", "padded_slots")
}
_TOTALS.update(
    (key, metrics.registry().counter(health.PREFIX + "serving_" + key))
    for key in ("shed", "batch_failures", "restarts")
)


class _Request:
    """One queued inference request."""

    __slots__ = ("model", "observation", "future", "arrived", "arrived_ns")

    def __init__(self, model, observation, future, arrived, arrived_ns=0):
        self.model = model
        self.observation = observation
        self.future = future
        self.arrived = arrived
        #: ``perf_counter_ns`` arrival stamp, captured only while tracing
        #: (the trace clock; ``arrived`` stays on ``monotonic`` for the
        #: batching deadlines).
        self.arrived_ns = arrived_ns


class _Model:
    """A registered model: the agent plus per-model bookkeeping."""

    __slots__ = ("name", "agent", "obs_shape", "served")

    def __init__(self, name, agent, obs_shape):
        self.name = name
        self.agent = agent
        self.obs_shape = None if obs_shape is None else tuple(int(d) for d in obs_shape)
        self.served = 0


def _resolve(future, result=None, error=None):
    """Set a future's outcome, tolerating client-side cancellation."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class PolicyServer:
    """Persistent policy-inference service with dynamic cross-session batching.

    Parameters
    ----------
    policy:
        The :class:`~repro.serving.batching.BucketPolicy` (defaults to the
        1/2/4/8/16/32 ladder with a 2 ms coalescing deadline).
    max_queue:
        Admission bound on waiting requests; submits beyond it shed with
        :class:`~repro.serving.errors.ServerOverloadedError`.
    restart:
        :class:`~repro.reliability.retry.RetryPolicy` governing worker-loop
        restarts: ``delay(k)`` paces the k-th consecutive restart and
        ``max_attempts`` is the consecutive-crash budget before the server
        aborts (failing all queued requests with a typed error).
    start:
        Spawn the worker thread immediately.  ``start=False`` leaves the
        server in manual mode — call :meth:`step` to pump batches
        synchronously (deterministic tests, single-threaded embedding).
    """

    def __init__(self, policy=None, max_queue=256, restart=None, start=True):
        self.policy = policy if policy is not None else BucketPolicy()
        self.max_queue = int(max_queue)
        if self.max_queue < 1:
            raise ValueError("max_queue must be >= 1, got {}".format(max_queue))
        self.restart = restart if restart is not None else RetryPolicy(
            max_attempts=3, backoff=0.05
        )
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        self._queue = deque()
        self._models = {}
        self._closed = False
        self._degraded = False
        self._thread = None
        self._counts = dict.fromkeys(_TOTALS, 0)
        self._bucket_counts = {}
        # Private per-server distributions (the process-wide registry copies
        # aggregate across servers and would blur per-server percentiles).
        self._latency = metrics.Histogram("request_latency_seconds")
        self._occupancy = metrics.Histogram(
            "batch_occupancy", buckets=metrics.FRACTION_BUCKETS
        )
        self._started_at = health.snapshot()
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # Registration and intake
    # ------------------------------------------------------------------ #
    def register_model(self, name, agent, obs_shape=None, warm=False):
        """Register ``agent`` under ``name`` for request routing.

        The agent must be in eval mode: training-mode batch-norm computes
        statistics over the whole batch, which would couple co-batched
        requests and break the server's response-independence guarantee.
        ``obs_shape`` (without the batch axis) enables per-submit shape
        validation; with ``warm=True`` it also precompiles the plan for
        every bucket size now (via
        :meth:`~repro.drl.agent.ActorCriticAgent.warm`), so the first live
        request never pays compile latency.
        """
        if getattr(agent, "training", False):
            raise ValueError(
                "model {!r} is in training mode; call .eval() first — "
                "train-mode batch norm couples co-batched requests".format(name)
            )
        if warm and obs_shape is None:
            raise ValueError("warm=True requires obs_shape")
        entry = _Model(str(name), agent, obs_shape)
        with self._lock:
            if self._closed:
                raise ServerClosedError("cannot register models on a closed server")
            if entry.name in self._models:
                raise ValueError("model {!r} already registered".format(entry.name))
            self._models[entry.name] = entry
        if warm:
            agent.warm(entry.obs_shape, self.policy.buckets)
        return entry.name

    def model_names(self):
        """Names of every registered model."""
        with self._lock:
            return sorted(self._models)

    def submit(self, model, observation):
        """Queue one observation for ``model``; returns its response future.

        The future resolves to ``(probs, value)`` — the action distribution
        row and scalar value estimate for this observation, both fresh
        arrays safe to keep.  Raises (synchronously) on a closed server, an
        unknown model name, a shape mismatch, or a full queue.
        """
        obs = np.asarray(observation)
        with self._ready:
            if self._closed:
                raise ServerClosedError("server is closed")
            entry = self._models.get(model)
            if entry is None:
                raise UnknownModelError(
                    "unknown model {!r}; registered: {}".format(model, sorted(self._models))
                )
            if entry.obs_shape is not None and tuple(obs.shape) != entry.obs_shape:
                raise ValueError(
                    "observation shape {} does not match model {!r} shape {}".format(
                        obs.shape, model, entry.obs_shape
                    )
                )
            if len(self._queue) >= self.max_queue:
                self._count("shed")
                raise ServerOverloadedError(
                    "intake queue full ({} waiting); request shed".format(self.max_queue)
                )
            future = Future()
            arrived_ns = time.perf_counter_ns() if trace.enabled else 0
            self._queue.append(_Request(model, obs, future, time.monotonic(), arrived_ns))
            self._count("requests")
            _M_QUEUE_DEPTH.inc()
            self._ready.notify()
        return future

    def policy_value(self, model, observation, timeout=None):
        """Blocking convenience: submit one observation and wait for its row."""
        return self.submit(model, observation).result(timeout=timeout)

    def _count(self, key, amount=1):
        """Add to a per-server count and its process-wide counter (lock held)."""
        self._counts[key] += amount
        _TOTALS[key].inc(amount)

    # ------------------------------------------------------------------ #
    # Scheduling and execution
    # ------------------------------------------------------------------ #
    def _take_batch(self):
        """Extract (FIFO) up to ``max_batch`` requests of the head's model.

        Caller holds the lock.  Requests for other models keep their place
        (and their arrival deadlines) at the front of the queue.
        """
        if not self._queue:
            return []
        head_model = self._queue[0].model
        taken, kept = [], []
        for request in self._queue:
            if request.model == head_model and len(taken) < self.policy.max_batch:
                taken.append(request)
            else:
                kept.append(request)
        self._queue.clear()
        self._queue.extend(kept)
        _M_QUEUE_DEPTH.dec(len(taken))
        return taken

    def _pending_for(self, model):
        """Queued request count for ``model`` (caller holds the lock)."""
        return sum(1 for request in self._queue if request.model == model)

    def _next_batch(self):
        """Block until a batch is due; ``None`` when closed and drained."""
        with self._ready:
            while not self._queue:
                if self._closed:
                    return None
                self._ready.wait(_IDLE_WAIT)
            head = self._queue[0]
            deadline = head.arrived + self.policy.max_wait
            while not self._closed:
                if self._pending_for(head.model) >= self.policy.max_batch:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._ready.wait(remaining)
            return self._take_batch()

    def _execute(self, batch):
        """Run one coalesced batch and fan results out to the futures."""
        entry = self._models[batch[0].model]
        trace.begin("serve/batch", "serving")
        padded, valid = self.policy.pad([request.observation for request in batch])
        try:
            trace.begin("serve/infer", "serving")
            try:
                probs, values = entry.agent.policy_value(padded)
            finally:
                trace.end()
        except Exception as error:  # noqa: BLE001 — contained per batch
            trace.end()
            with self._lock:
                self._count("batch_failures")
                self._count("failed", len(batch))
            for request in batch:
                _resolve(request.future, error=error)
            return
        done = time.monotonic()
        done_ns = time.perf_counter_ns() if trace.enabled else 0
        for row, request in enumerate(batch):
            _resolve(request.future, result=(probs[row].copy(), values[row].copy()))
            latency = done - request.arrived
            self._latency.observe(latency)
            _M_LATENCY.observe(latency)
            if done_ns and request.arrived_ns:
                # The full request lifecycle (enqueue -> coalesce -> infer ->
                # resolve) as one cross-thread interval on the worker track.
                trace.complete(
                    "serve/request", "serving",
                    request.arrived_ns, done_ns - request.arrived_ns, depth=1,
                )
        occupancy = valid / padded.shape[0]
        self._occupancy.observe(occupancy)
        _M_OCCUPANCY.observe(occupancy)
        trace.end()
        with self._lock:
            entry.served += len(batch)
            self._count("completed", len(batch))
            self._count("batches")
            self._count("padded_slots", padded.shape[0] - valid)
            bucket = int(padded.shape[0])
            self._bucket_counts[bucket] = self._bucket_counts.get(bucket, 0) + 1

    def step(self):
        """Synchronously process one waiting batch (manual / test mode).

        Returns ``True`` if a batch executed.  Only valid while no worker
        thread is running — the engine layer is single-threaded by contract.
        """
        with self._lock:
            batch = self._take_batch()
        if not batch:
            return False
        self._execute(batch)
        return True

    def _serve_forever(self):
        """The supervised worker loop."""
        consecutive_failures = 0
        while True:
            batch = None
            try:
                batch = self._next_batch()
                if batch is None:
                    return
                if batch:
                    self._execute(batch)
                consecutive_failures = 0
            except Exception as error:  # noqa: BLE001 — the supervisor IS the point
                # At-most-once execution: a batch the crash orphaned fails
                # now (its requests left the queue; nothing retries them).
                if batch:
                    with self._lock:
                        self._count("failed", len(batch))
                    for request in batch:
                        _resolve(request.future, error=error)
                consecutive_failures += 1
                with self._lock:
                    self._count("restarts")
                if consecutive_failures >= self.restart.max_attempts:
                    self._abort(
                        ServingError(
                            "policy-server worker crashed {} times in a row "
                            "(last: {!r}); server degraded".format(
                                consecutive_failures, error
                            )
                        )
                    )
                    return
                self.restart._sleep(self.restart.delay(consecutive_failures))

    def start(self):
        """Spawn the worker thread (no-op if already running)."""
        with self._lock:
            if self._closed:
                raise ServerClosedError("cannot start a closed server")
            if self._thread is not None and self._thread.is_alive():
                return self
            self._thread = threading.Thread(
                target=self._serve_forever, name="policy-server", daemon=True
            )
            self._thread.start()
        return self

    # ------------------------------------------------------------------ #
    # Shutdown
    # ------------------------------------------------------------------ #
    def _abort(self, error):
        """Restart budget exhausted: fail every queued request, go degraded."""
        with self._ready:
            self._closed = True
            self._degraded = True
            pending = self._drop_queue()
            self._ready.notify_all()
        for request in pending:
            _resolve(request.future, error=error)

    def _drop_queue(self):
        """Empty the queue, counting its requests as failed (lock held)."""
        pending = list(self._queue)
        self._queue.clear()
        _M_QUEUE_DEPTH.dec(len(pending))
        self._count("failed", len(pending))
        return pending

    def close(self, finish_backlog=False, timeout=5.0):
        """Shut down, guaranteeing every accepted future resolves.

        Mirrors ``AsyncVectorEnv.close()`` drain semantics: the batch the
        worker is executing right now always completes and resolves
        normally.  Queued-but-unscheduled requests resolve with
        :class:`~repro.serving.errors.ServerClosedError` — or, with
        ``finish_backlog=True``, are executed to completion before the
        worker exits (the coalescing deadline is skipped while draining);
        a server without a worker thread (``start=False``) drains them
        through :meth:`step` on the calling thread.  Submits after
        ``close`` raise.  Idempotent.
        """
        with self._ready:
            self._closed = True
            pending = [] if finish_backlog else self._drop_queue()
            self._ready.notify_all()
            thread = self._thread
        shutdown = ServerClosedError("server closed before the request was scheduled")
        for request in pending:
            _resolve(request.future, error=shutdown)
        if thread is None:
            while finish_backlog and self.step():
                pass
        elif thread is not threading.current_thread():
            thread.join(timeout)
        return self

    @property
    def closed(self):
        return self._closed

    @property
    def degraded(self):
        """True when the worker-restart budget was exhausted."""
        return self._degraded

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #
    def stats(self):
        """Counters plus request-latency and batch-occupancy distributions.

        ``latency`` carries the per-server p50/p95/p99 (seconds, submit to
        future-resolved) from a fixed-bucket histogram — percentiles, not
        just aggregates, because tail latency is what the coalescing
        deadline trades against.
        """
        with self._lock:
            out = dict(self._counts)
            out.update({
                "avg_batch": out["completed"] / out["batches"] if out["batches"] else 0.0,
                "batch_sizes": dict(self._bucket_counts),
                "queue_depth": len(self._queue),
                "models": {name: m.served for name, m in self._models.items()},
                "closed": self._closed,
                "degraded": self._degraded,
            })
        out["latency"] = self._latency.summary()
        out["occupancy"] = self._occupancy.summary()
        return out

    def health_window(self, reset=False):
        """Reliability-counter increments since server start (or last reset).

        Returns a :class:`repro.reliability.health.Window`; ``reset=True``
        re-bases the window at now, turning repeated calls into per-interval
        rate reports — the long-lived-server view the lifetime totals of
        ``health.stats()`` cannot give.
        """
        window = health.delta(self._started_at)
        if reset:
            self._started_at = health.snapshot()
        return window

    def __repr__(self):
        stats = self.stats()
        return "PolicyServer(models={}, requests={}, queue={}, closed={})".format(
            sorted(stats["models"]), stats["requests"], stats["queue_depth"], stats["closed"]
        )
