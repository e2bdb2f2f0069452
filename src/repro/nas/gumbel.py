"""Gumbel-Softmax sampling machinery for differentiable architecture search.

A3C-S relies on three pieces of Gumbel machinery (paper Eq. 6-9):

* **hard Gumbel-Softmax (straight-through)** sampling — the forward pass uses
  a one-hot sample (single-path forward, Eq. 6) while the backward pass flows
  gradients through the soft relaxation;
* **top-K multi-path backward** (Eq. 7) — only the K most probable paths
  participate in the gradient approximation, trading search stability (more
  paths) against cost (fewer paths), following ProxylessNAS [19];
* a **temperature schedule** — the paper initialises the temperature at 5 and
  decays it by 0.98 every 1e5 steps.

Each search step samples a *family* of logit vectors (the alpha cells, or the
3-11-choice DAS knobs): :class:`GumbelFamily` draws all its noise with one
``rng.random`` call and runs the softmax on rows stacked by choice count (not
padded: padding would change the summation order).  :func:`softmax_vjp` is the
straight-through gradient in closed form (Jang et al., arXiv:1611.01144).  Both
repeat the eager tape's expressions in its order, so they give the bytes and
the generator state of one ``softmax((logits + noise) / T)`` graph per vector.
"""

from __future__ import annotations

import numpy as np

from ..nn import Tensor

__all__ = ["sample_gumbel", "softmax", "softmax_vjp", "GumbelFamily", "GumbelDraw", "top_k_active",
           "TemperatureSchedule"]


def sample_gumbel(shape, rng, eps=1e-12):
    """Draw standard Gumbel(0, 1) noise of the given shape."""
    uniform = rng.random(shape)
    return -np.log(-np.log(uniform + eps) + eps)


def softmax(rows):
    """Row softmax of ``(..., n)`` logits as ``(exp, row sums)``."""
    exp = np.exp(rows - rows.max(axis=-1, keepdims=True))
    return exp, exp.sum(axis=-1, keepdims=True)


def softmax_vjp(grad, exp, total, temperature):
    """Logit gradient through ``soft = exp / total`` of ``(logits + noise) / temperature``."""
    grad_exp = grad / total + ((-grad) * exp / (total ** 2)).sum(axis=-1, keepdims=True)
    return grad_exp * exp / temperature


class GumbelFamily:
    """Logit vectors sampled together; flat arrays hold them end to end, and
    ``blocks`` the vectors of each length with their ``(rows, n)`` positions."""

    def __init__(self, params):
        self.params = list(params)
        sizes = [p.data.size for p in self.params]
        self.offsets = np.cumsum([0] + sizes)
        by_size = {}
        for vector, size in enumerate(sizes):
            by_size.setdefault(size, []).append(vector)
        self.blocks = [(np.array(vs), self.offsets[vs][:, None] + np.arange(n)) for n, vs in by_size.items()]

    def sample(self, temperature, rng):
        """One straight-through sample of every vector (a :class:`GumbelDraw`)."""
        temperature = float(temperature)
        logits = np.concatenate([p.data for p in self.params])
        perturbed = (logits + sample_gumbel(logits.shape, rng)) / temperature
        exp, soft = np.empty_like(perturbed), np.empty_like(perturbed)
        total, index = np.empty((len(self.params), 1)), np.empty(len(self.params), dtype=np.int64)
        for vectors, at in self.blocks:
            exp[at], total[vectors] = softmax(perturbed[at])
            soft[at] = exp[at] / total[vectors]
            index[vectors] = np.argmax(soft[at], axis=-1)
        return GumbelDraw(self, temperature, exp, total, soft, index)


class GumbelDraw:
    """One family sample: flat ``soft``, straight-through gates ``data`` (``soft +
    (one_hot - soft)``) and per-vector ``index``.  Tape-free callers pass gate
    gradients to :meth:`backward`; ``draw[i]`` is vector ``i``'s gate tensor for
    eager losses, one tape node running the same :func:`softmax_vjp`."""

    def __init__(self, family, temperature, exp, total, soft, index):
        self.family, self.temperature = family, temperature
        self.exp, self.total, self.soft, self.index = exp, total, soft, index
        one_hot = np.zeros_like(soft)
        one_hot[self.sampled_at] = 1.0
        self.data = soft + (one_hot - soft)
        self._gates = [None] * len(index)

    @property
    def sampled_at(self):
        """Flat positions of the sampled choices."""
        return self.family.offsets[:-1] + self.index

    def split(self, flat):
        """Per-vector views of a flat array."""
        offsets = self.family.offsets
        return [flat[start:stop] for start, stop in zip(offsets[:-1], offsets[1:])]

    def __len__(self):
        return len(self._gates)

    def __getitem__(self, i):
        i = range(len(self._gates))[i]  # IndexError ends iteration
        if self._gates[i] is None:
            param, at = self.family.params[i], slice(*self.family.offsets[i:i + 2])

            def backward(grad):
                param._accumulate(softmax_vjp(grad, self.exp[at], self.total[i], self.temperature))

            self._gates[i] = Tensor._make(self.data[at], (param,), backward)
        return self._gates[i]

    def backward(self, grad):
        """Add the logit gradients of a flat gate gradient into each vector's ``grad``."""
        out = np.empty_like(grad)
        for vectors, at in self.family.blocks:
            out[at] = softmax_vjp(grad[at], self.exp[at], self.total[vectors], self.temperature)
        for param, piece in zip(self.family.params, self.split(out)):
            param._accumulate(piece)


def top_k_active(soft_probs, k, always_include=None):
    """Indices of the top-``k`` probability paths (multi-path backward, Eq. 7).

    Parameters
    ----------
    soft_probs:
        Soft Gumbel probabilities (Tensor or array), shape ``(num_choices,)``.
    k:
        Number of activated paths, clipped to ``[1, num_choices]``.
    always_include:
        An index (typically the hard-sampled one) guaranteed to be active.
    """
    probs = soft_probs.data if isinstance(soft_probs, Tensor) else np.asarray(soft_probs)
    num_choices = probs.shape[-1]
    k = min(max(int(k), 1), num_choices)
    order = np.argsort(-probs)
    active = list(order[:k])
    if always_include is not None and always_include not in active:
        active[-1] = int(always_include)
    return sorted(int(i) for i in active)


class TemperatureSchedule:
    """Exponential temperature decay: ``tau = tau0 * decay^(step / interval)``.

    Defaults follow Sec. V-A: initial temperature 5, decayed by 0.98 every
    1e5 steps.  ``min_temperature`` keeps the relaxation numerically sane.
    """

    def __init__(self, initial=5.0, decay=0.98, decay_interval=int(1e5), min_temperature=0.1):
        self.initial = float(initial)
        self.decay = float(decay)
        self.decay_interval = int(decay_interval)
        self.min_temperature = float(min_temperature)

    def value(self, step):
        """Temperature at training step ``step``."""
        exponent = step // self.decay_interval
        return max(self.min_temperature, self.initial * (self.decay ** exponent))

    def __repr__(self):
        return "TemperatureSchedule(initial={}, decay={}, every={})".format(
            self.initial, self.decay, self.decay_interval
        )
