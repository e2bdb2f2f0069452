"""Plan caches, inference engines and the policy fast path.

:class:`PlanCache` is the one LRU of compiled plans that every engine owns:
:class:`InferenceEngine` and :class:`~repro.runtime.train.CompiledTrainStep`
each key it by their own signature.  It recycles evicted plans' buffers
through its :class:`BufferPool`, remembers signatures that failed to compile,
and counts hits, misses and evictions in the metrics registry only.

:class:`InferenceEngine` wraps one module and lazily compiles a :class:`Plan`
per input shape, so changing the rollout batch size transparently triggers
re-compilation and buffer re-allocation while steady-state execution is
allocation-free.  A supernet's plan holds every candidate branch, so a new
sampled path only re-selects which branches run; it never recompiles.

:class:`RuntimePolicy` specialises the engine for
:class:`~repro.drl.agent.ActorCriticAgent`: one plan evaluates backbone,
policy head, softmax and value head, returning ``(probs, values)`` NumPy
arrays — the exact contract of ``ActorCriticAgent.policy_value`` — without
ever touching the autograd tape.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..reliability.faults import get_injector
from ..telemetry import trace
from ..telemetry.metrics import registry
from .compiler import CompileError, compile_plan
from .plan import BufferPool

__all__ = ["PlanCache", "InferenceEngine", "RuntimePolicy"]

#: ``(hits, misses, evictions)`` registry counters per plan-cache kind,
#: registered at import so ``repro.runtime.cache_stats()`` always lists them.
_COUNTERS = {
    kind: tuple(
        registry().counter("runtime/{}/{}".format(kind, key))
        for key in ("cache_hits", "cache_misses", "cache_evictions")
    )
    for kind in ("inference_plans", "train_plans")
}


class PlanCache:
    """LRU of compiled plans keyed by signature, for one engine.

    Evicted plans hand their buffers back to :attr:`pool`, so later compiles
    reuse warm pages.  A signature whose compile raised
    :class:`CompileError` raises again at once, without another graph walk,
    until :meth:`invalidate`.  Hits, misses and evictions are counted only
    in the registry's ``runtime/<kind>/cache_*`` counters, which
    ``repro.runtime.cache_stats()[kind]`` reads; ``kind`` is
    ``"inference_plans"`` or ``"train_plans"``.
    """

    def __init__(self, kind, max_plans):
        self.max_plans = int(max_plans)
        self.pool = BufferPool()
        self._plans = OrderedDict()
        self._failed = set()
        self._hits, self._misses, self._evictions = _COUNTERS[kind]

    def get(self, key, build):
        """The plan cached under ``key``, else ``build()``'s, now cached."""
        injector = get_injector()
        if injector is not None and injector.should_fire("compile_error"):
            # Injected before the lookup so a fault neither shadows a good
            # cached plan nor enters the negative cache: the next call
            # compiles normally.
            raise CompileError("injected compile_error fault")
        plan = self._plans.get(key)
        if plan is not None:
            self._hits.inc()
            self._plans.move_to_end(key)
            return plan
        if key in self._failed:
            raise CompileError("signature previously failed to compile; using the eager tape")
        self._misses.inc()
        try:
            plan = build()
        except CompileError:
            self._failed.add(key)
            raise
        self._plans[key] = plan
        while len(self._plans) > self.max_plans:
            self._plans.popitem(last=False)[1].release()
            self._evictions.inc()
        return plan

    def invalidate(self):
        """Release every plan and forget failed signatures."""
        for plan in self._plans.values():
            plan.release()
        self._plans.clear()
        self._failed.clear()
        self.pool.clear()

    def __len__(self):
        return len(self._plans)

    def __iter__(self):
        """The cached plans, least recently used first."""
        return iter(self._plans.values())


class InferenceEngine:
    """Tape-free executor for one module.

    Parameters
    ----------
    module:
        The source module; parameters are read live on every run, so the
        module can keep training between calls.
    dtype:
        Compute dtype.  ``np.float64`` (default) reproduces the autograd
        engine's numerics to a few ulps; ``np.float32`` is the production
        fast path.
    max_plans:
        Number of compiled ``(shape, supernet)`` signatures kept in the LRU
        cache.  Rollout collection alternates over a handful of batch shapes.
    quantize:
        Optional :class:`~repro.runtime.quantize.QuantCalibration` (or an
        iterable of them, e.g. one per batch size) forwarded to every
        compile: signatures with a matching calibration run the quantized
        inference path, everything else stays float.
    """

    def __init__(self, module, dtype=np.float64, max_plans=32, quantize=None):
        self.module = module
        self.dtype = np.dtype(dtype)
        self.quantize = quantize
        self.plans = PlanCache("inference_plans", max_plans)

    def plan_for(self, input_shape, path=None):
        """Fetch (or compile) the plan for ``input_shape``, selecting ``path``.

        Every supernet path shares one plan per input shape; the returned
        plan runs ``path``'s branches until the next selection.
        """
        path = tuple(int(i) for i in path) if path is not None else None
        key = (tuple(input_shape), path is not None)
        plan = self.plans.get(key, lambda: compile_plan(
            self.module, key[0], dtype=self.dtype, path=path, pool=self.plans.pool,
            quantize=self.quantize,
        ))
        if path is not None:
            try:
                plan.set_path(path)
            except ValueError as exc:
                raise CompileError(str(exc)) from None
        return plan

    def run(self, x, path=None):
        """Execute the module on ``x``.

        Returns the plan's output buffer(s): valid only until the next call
        on this engine — a later ``run`` on the same signature overwrites
        them, and a new-signature compile may evict the plan and recycle its
        backing memory through the buffer pool.  Copy before storing.
        """
        x = np.asarray(x)
        if trace.enabled:
            # One span over lookup + execution, so plan-cache misses show up
            # as compile time attributed to the engine call that paid it.
            with trace.span("engine/run", "engine"):
                return self.plan_for(x.shape, path=path).run(x)
        return self.plan_for(x.shape, path=path).run(x)

    def invalidate(self):
        """Drop every compiled plan (e.g. after structural module surgery)."""
        self.plans.invalidate()

    @property
    def num_plans(self):
        """Number of currently cached compiled plans."""
        return len(self.plans)

    def __repr__(self):
        return "{}({}, dtype={}, plans={})".format(
            type(self).__name__, type(self.module).__name__, self.dtype.name, len(self.plans)
        )


class RuntimePolicy(InferenceEngine):
    """Batched ``(probs, values)`` inference for an actor-critic agent.

    This is what rollout collection, evaluation and teacher-target queries
    call instead of the autograd forward.  Sampled supernet paths are passed
    as ``op_indices`` and select branches of one cached plan; gated multi-path forwards
    (which need gradients anyway) are rejected with :class:`CompileError` so
    callers can fall back to the eager engine.
    """

    def policy_value(self, observations, op_indices=None, **unsupported):
        """Mirror ``ActorCriticAgent.policy_value`` on the runtime engine.

        Returns fresh ``(probs, values)`` arrays (safe to store across
        calls).  Raises :class:`CompileError` for forward arguments the
        runtime cannot serve (e.g. ``gates``), signalling eager fallback.
        """
        if unsupported:
            raise CompileError(
                "runtime policy cannot serve forward kwargs {}".format(sorted(unsupported))
            )
        probs, values = self.run(observations, path=op_indices)
        return probs.copy(), values.copy()
