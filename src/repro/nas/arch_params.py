"""Architecture parameters (alpha) of the agent search.

One logit vector per searchable cell; sampling them through the hard
Gumbel-Softmax yields the per-cell gates used by
:class:`repro.networks.supernet.AgentSuperNet`, and the arg-max per cell
derives the final architecture (last line of Algorithm 1).
"""

from __future__ import annotations

import numpy as np

from ..nn import Parameter, Tensor
from ..nn import functional as F
from .gumbel import GumbelFamily, softmax, top_k_active

__all__ = ["ArchitectureParameters"]


class ArchitectureParameters:
    """Holds and samples the per-cell operator logits (alpha).

    Parameters
    ----------
    num_cells:
        Number of searchable cells (12 in the paper).
    num_choices:
        Number of candidate operators per cell (9 in the paper).
    init_scale:
        Standard deviation of the random logit initialisation (small values
        start the search near the uniform distribution).
    """

    def __init__(self, num_cells, num_choices, init_scale=1e-3, rng=None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_cells = int(num_cells)
        self.num_choices = int(num_choices)
        self.alphas = [
            Parameter(rng.normal(0.0, init_scale, size=num_choices)) for _ in range(num_cells)
        ]
        self._family = GumbelFamily(self.alphas)

    # ------------------------------------------------------------------ #
    # Optimiser plumbing
    # ------------------------------------------------------------------ #
    def parameters(self):
        """The list of alpha Parameters (for the architecture optimiser)."""
        return list(self.alphas)

    def zero_grad(self):
        """Clear gradients on every alpha."""
        for alpha in self.alphas:
            alpha.zero_grad()

    # ------------------------------------------------------------------ #
    # Sampling
    # ------------------------------------------------------------------ #
    def sample(self, temperature, rng, num_backward_paths=2):
        """Sample per-cell gates with single-path forward / multi-path backward.

        Returns
        -------
        gates:
            A :class:`~repro.nas.gumbel.GumbelDraw`; ``gates[c]`` is cell ``c``'s
            straight-through gate tensor (one-hot data).
        active_indices:
            List of per-cell activated path index lists (top-K probabilities,
            always containing the sampled path).
        sampled_indices:
            The hard-sampled operator index per cell.
        """
        gates = self._family.sample(temperature, rng)
        sampled = [int(i) for i in gates.index]
        active = [
            top_k_active(soft, num_backward_paths, always_include=index)
            for soft, index in zip(gates.split(gates.soft), sampled)
        ]
        return gates, active, sampled

    # ------------------------------------------------------------------ #
    # Inspection / derivation
    # ------------------------------------------------------------------ #
    def probabilities(self):
        """Softmax probabilities per cell, shape ``(num_cells, num_choices)``."""
        exp, total = softmax(np.stack([alpha.data for alpha in self.alphas]))
        return exp / total

    def derive(self):
        """Arg-max operator index per cell (the final derived architecture)."""
        return [int(np.argmax(alpha.data)) for alpha in self.alphas]

    def entropy(self):
        """Mean per-cell entropy of the operator distributions (search progress)."""
        probs = self.probabilities()
        logp = np.log(np.clip(probs, 1e-12, None))
        return float(-(probs * logp).sum(axis=-1).mean())

    def expected_cost(self, cost_table):
        """Differentiable expected cost ``sum_l sum_i p_l,i * cost_l,i``.

        ``cost_table`` has shape ``(num_cells, num_choices)``; used by the
        expected-cost variant of the hardware penalty ablation.
        """
        total = None
        for cell_index, alpha in enumerate(self.alphas):
            probs = F.softmax(alpha, axis=-1)
            contribution = (probs * Tensor(np.asarray(cost_table[cell_index], dtype=np.float64))).sum()
            total = contribution if total is None else total + contribution
        return total

    def state_dict(self):
        """Snapshot of the alpha values."""
        return {"alpha{}".format(i): alpha.data.copy() for i, alpha in enumerate(self.alphas)}

    def load_state_dict(self, state):
        """Restore alpha values from :meth:`state_dict` output."""
        for i, alpha in enumerate(self.alphas):
            key = "alpha{}".format(i)
            if key in state:
                alpha.data[...] = state[key]
                alpha.bump_version()
        return self
