"""Actor-critic agent: a shared feature backbone with policy and value heads.

This is the DRL model structure of the paper (Sec. III): the policy
``pi(a|s; theta_pi)`` and the value function ``V(s; theta_v)`` are DNNs that
share a convolutional feature extractor (the *backbone*, which is what A3C-S
searches over), followed by small fully-connected heads.
"""

from __future__ import annotations

import numpy as np

from ..nn import Linear, Module, Tensor, no_grad
from ..nn import functional as F

__all__ = ["ActorCriticAgent", "PolicyOutput"]


class PolicyOutput:
    """Bundle of everything a forward pass of the agent produces.

    Attributes
    ----------
    logits:
        Unnormalised action scores, shape ``(batch, num_actions)``.
    log_probs:
        Log of the policy distribution.
    probs:
        Policy distribution.
    value:
        State-value estimates, shape ``(batch,)``.
    """

    def __init__(self, logits, log_probs, probs, value):
        self.logits = logits
        self.log_probs = log_probs
        self.probs = probs
        self.value = value


class ActorCriticAgent(Module):
    """Actor-critic agent with a pluggable backbone.

    Parameters
    ----------
    backbone:
        Any module mapping ``(batch, C, H, W)`` observations to
        ``(batch, feature_dim)`` features (Vanilla, ResNet, supernet-derived).
    num_actions:
        Size of the discrete action space.
    feature_dim:
        Backbone output dimensionality (defaults to ``backbone.feature_dim``).
    use_runtime:
        Serve inference on the tape-free :mod:`repro.runtime` engine (the
        eager forward stays the per-call fallback).
    runtime_dtype:
        Compute dtype of :attr:`runtime`, which serves evaluation, serving
        and direct ``act``/``policy_value`` calls (float64 by default).
        Training rollouts do not use it: the training loop infers on its own
        runtime at ``compiled_train_dtype``.
    """

    def __init__(self, backbone, num_actions, feature_dim=None, rng=None, use_runtime=True,
                 runtime_dtype=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        feature_dim = feature_dim if feature_dim is not None else backbone.feature_dim
        self.backbone = backbone
        self.num_actions = int(num_actions)
        self.feature_dim = int(feature_dim)
        # Orthogonal init with small policy gain is the standard RL head setup.
        self.policy_head = Linear(self.feature_dim, self.num_actions, rng=rng, init_scheme="orthogonal")
        self.policy_head.weight.data *= 0.01
        self.value_head = Linear(self.feature_dim, 1, rng=rng, init_scheme="orthogonal")
        self.use_runtime = bool(use_runtime)
        self.runtime_dtype = runtime_dtype if runtime_dtype is not None else np.float64
        #: Optional :class:`~repro.runtime.quantize.QuantCalibration` (or an
        #: iterable of them) enabling the quantized inference path on the
        #: lazily-built runtime; assign and the next ``runtime`` access
        #: rebuilds the policy with it.
        self.runtime_quantize = None
        self._runtime = None

    @property
    def runtime(self):
        """The lazily-built tape-free :class:`~repro.runtime.RuntimePolicy`."""
        if (
            self._runtime is None
            or self._runtime.dtype != np.dtype(self.runtime_dtype)
            or self._runtime.quantize is not self.runtime_quantize
        ):
            from ..runtime import RuntimePolicy

            self._runtime = RuntimePolicy(
                self, dtype=self.runtime_dtype, quantize=self.runtime_quantize
            )
        return self._runtime

    def warm(self, obs_shape, batch_sizes=(1,)):
        """Precompile the inference plan for each batch size, ahead of traffic.

        The runtime's plan cache keys by input shape, so the first request at
        a new batch size pays compile latency inline.  A serving
        tier that promises a p99 cannot pay that on a live request:
        ``warm(obs_shape, policy.buckets)`` runs one throwaway batch of zeros
        per size, leaving every bucket's plan (and its kernel selections and
        buffers) hot.  ``obs_shape`` is a single observation's shape, without
        the batch axis.  Returns ``self``.
        """
        obs_shape = tuple(int(dim) for dim in obs_shape)
        compute_dtype = np.dtype(self.runtime_dtype) if self.use_runtime else np.float32
        for size in batch_sizes:
            zeros = np.zeros((int(size),) + obs_shape, dtype=compute_dtype)
            self.policy_value(zeros)
        return self

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #
    def forward(self, observations, **backbone_kwargs):
        """Full forward pass returning a :class:`PolicyOutput`."""
        obs = observations if isinstance(observations, Tensor) else Tensor(observations)
        features = self.backbone(obs, **backbone_kwargs)
        logits = self.policy_head(features)
        log_probs = F.log_softmax(logits, axis=-1)
        probs = F.softmax(logits, axis=-1)
        value = self.value_head(features).reshape(-1)
        return PolicyOutput(logits, log_probs, probs, value)

    def policy_value(self, observations, runtime=None, **backbone_kwargs):
        """Convenience wrapper returning ``(probs, value)`` NumPy arrays without grads.

        This is the inference chokepoint (``act``, evaluation, teacher
        targets, co-search rollouts all land here); when ``use_runtime`` is
        set it executes on the tape-free :mod:`repro.runtime` engine instead
        of the autograd graph, falling back to the eager path for forward
        arguments the runtime cannot compile (e.g. gated supernet forwards).
        ``runtime`` is the :class:`~repro.runtime.RuntimePolicy` that serves
        the call, :attr:`runtime` (at ``runtime_dtype``) by default; the
        training loop passes its own, at the dtype it trains in.
        """
        if self.use_runtime:
            from ..reliability import health
            from ..runtime.compiler import CompileError

            try:
                runtime = runtime if runtime is not None else self.runtime
                return runtime.policy_value(observations, **backbone_kwargs)
            except CompileError:
                health.record("eager_fallbacks")
        with no_grad():
            output = self.forward(observations, **backbone_kwargs)
        return output.probs.data, output.value.data

    # ------------------------------------------------------------------ #
    # Acting
    # ------------------------------------------------------------------ #
    def act(self, observations, rng, greedy=False, runtime=None, **backbone_kwargs):
        """Sample actions from the current policy.

        Parameters
        ----------
        observations:
            Batch of observations ``(batch, C, H, W)``.
        rng:
            Generator used for sampling.
        greedy:
            If true, take the arg-max action instead of sampling (evaluation
            still samples in the paper's protocol, so the default is False).
        runtime:
            The runtime policy serving the forward (see :meth:`policy_value`).

        Returns
        -------
        actions, values:
            Integer actions ``(batch,)`` and value estimates ``(batch,)``.
        """
        probs, values = self.policy_value(observations, runtime=runtime, **backbone_kwargs)
        if greedy:
            actions = probs.argmax(axis=-1)
        else:
            cumulative = probs.cumsum(axis=-1)
            draws = rng.random((probs.shape[0], 1))
            actions = (draws < cumulative).argmax(axis=-1)
        return actions.astype(np.int64), values

    def evaluate_actions(self, observations, actions, **backbone_kwargs):
        """Recompute log-probabilities / entropy / values for stored rollout data.

        Returns
        -------
        chosen_log_probs:
            Log pi(a_t | s_t) for the stored actions, shape ``(batch,)``.
        entropy:
            Per-sample policy entropy, shape ``(batch,)``.
        value:
            Value estimates, shape ``(batch,)``.
        output:
            The full :class:`PolicyOutput` (used by distillation losses).
        """
        output = self.forward(observations, **backbone_kwargs)
        actions = np.asarray(actions, dtype=np.int64)
        batch = actions.shape[0]
        mask = np.zeros(output.log_probs.shape)
        mask[np.arange(batch), actions] = 1.0
        chosen_log_probs = (output.log_probs * Tensor(mask)).sum(axis=-1)
        entropy = F.entropy(output.probs, output.log_probs, reduction="none")
        return chosen_log_probs, entropy, output.value, output
