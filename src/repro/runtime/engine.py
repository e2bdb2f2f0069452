"""Inference engines: plan caching, buffer reuse, and the policy fast path.

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

__all__ = ["InferenceEngine", "RuntimePolicy"]

#: Plan-cache totals over every engine
#: (``repro.runtime.cache_stats()["inference_plans"]``).
_HITS, _MISSES, _EVICTIONS = (
    registry().counter("runtime/inference_plans/" + key)
    for key in ("cache_hits", "cache_misses", "cache_evictions")
)


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
        self.max_plans = int(max_plans)
        self.quantize = quantize
        self._plans = OrderedDict()
        #: Evicted plans hand their buffers back here, so later compiles reuse
        #: warm pages.
        self.pool = BufferPool()
        self.cache_hits = 0
        self.cache_misses = 0
        self.cache_evictions = 0

    def plan_for(self, input_shape, path=None):
        """Fetch (or compile) the plan for ``input_shape``, selecting ``path``.

        Every supernet path shares one plan per input shape; the returned
        plan runs ``path``'s branches until the next selection.
        """
        injector = get_injector()
        if injector is not None and injector.should_fire("compile_error"):
            # Injected before the cache lookup so a fault never replaces (or
            # shadows) a good cached plan — the next call compiles normally.
            raise CompileError("injected compile_error fault")
        path = tuple(int(i) for i in path) if path is not None else None
        key = (tuple(input_shape), path is not None)
        plan = self._plans.get(key)
        if plan is None:
            self.cache_misses += 1
            _MISSES.inc()
            plan = compile_plan(self.module, key[0], dtype=self.dtype, path=path,
                                pool=self.pool, quantize=self.quantize)
            self._plans[key] = plan
            while len(self._plans) > self.max_plans:
                _, evicted = self._plans.popitem(last=False)
                evicted.release()
                self.cache_evictions += 1
                _EVICTIONS.inc()
        else:
            self.cache_hits += 1
            _HITS.inc()
            self._plans.move_to_end(key)
            if path is not None:
                try:
                    plan.set_path(path)
                except ValueError as exc:
                    raise CompileError(str(exc)) from None
        return plan

    def cache_stats(self):
        """Plan-cache and buffer-pool counters for observability."""
        return {
            "plans": len(self._plans),
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "evictions": self.cache_evictions,
            "pool": self.pool.stats(),
        }

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
        for plan in self._plans.values():
            plan.release()
        self._plans.clear()
        self.pool.clear()

    @property
    def num_plans(self):
        """Number of currently cached compiled plans."""
        return len(self._plans)

    def __repr__(self):
        return "InferenceEngine({}, dtype={}, plans={})".format(
            type(self.module).__name__, self.dtype.name, len(self._plans)
        )


class RuntimePolicy:
    """Batched ``(probs, values)`` inference for an actor-critic agent.

    This is what rollout collection, evaluation and teacher-target queries
    call instead of the autograd forward.  Sampled supernet paths are passed
    as ``op_indices`` and select branches of one cached plan; gated multi-path forwards
    (which need gradients anyway) are rejected with :class:`CompileError` so
    callers can fall back to the eager engine.
    """

    def __init__(self, agent, dtype=np.float64, max_plans=32, quantize=None):
        self.agent = agent
        self.engine = InferenceEngine(
            agent, dtype=dtype, max_plans=max_plans, quantize=quantize
        )

    @property
    def dtype(self):
        return self.engine.dtype

    @property
    def quantize(self):
        return self.engine.quantize

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
        probs, values = self.engine.run(observations, path=op_indices)
        return probs.copy(), values.copy()

    def invalidate(self):
        """Drop compiled plans (e.g. after loading a different state dict)."""
        self.engine.invalidate()

    def __repr__(self):
        return "RuntimePolicy(dtype={}, plans={})".format(
            self.engine.dtype.name, self.engine.num_plans
        )
