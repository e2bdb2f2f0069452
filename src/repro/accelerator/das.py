"""Differentiable Accelerator Search (DAS) engine — paper Eq. 9.

Every accelerator design knob (PE array, NoC, dataflow, buffers, tiling, loop
order, layer allocation, chunk count) is a categorical choice.  DAS keeps one
logit vector ``phi_m`` per knob, samples a complete accelerator with hard
Gumbel-Softmax on every knob, evaluates the sampled accelerator with the
analytical cost model, and penalises each sampled choice with the *overall*
hardware cost through the Gumbel relaxation:

    L = Lcost(hw({GS_hard(phi_m)}), net) * sum_m GS(phi_m)[sampled_m]

so the gradient w.r.t. ``phi_m`` pushes probability away from choices that
participated in expensive accelerators and towards choices seen in cheap ones.
A moving-average cost baseline is subtracted to reduce the variance of this
estimator (the standard trick for score-function-style updates), which keeps
the search stable without changing its fixed points.  All knobs are sampled as
one :class:`~repro.nas.gumbel.GumbelFamily` and ``L``'s gradient is taken in
closed form, with the bytes the per-knob autograd graph gave.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nas.gumbel import GumbelFamily, TemperatureSchedule, softmax
from ..nn import Adam, Parameter
from .design_space import AcceleratorDesignSpace
from .fpga import ZC706
from .predictor import PerformancePredictor

__all__ = ["DASConfig", "DASResult", "DifferentiableAcceleratorSearch"]


@dataclass
class DASConfig:
    """Hyper-parameters of the differentiable accelerator search."""

    learning_rate: float = 0.05
    temperature_initial: float = 5.0
    temperature_decay: float = 0.98
    temperature_interval: int = 50
    max_chunks: int = 4
    objective: str = "fps"
    latency_weight: float = 1.0
    energy_weight: float = 0.0
    baseline_momentum: float = 0.9
    seed: int = 0


@dataclass
class DASResult:
    """Outcome of a DAS run."""

    best_config: object
    best_metrics: object
    best_cost: float
    cost_history: list
    steps: int

    @property
    def fps(self):
        """FPS of the best accelerator found."""
        return self.best_metrics.fps


class DifferentiableAcceleratorSearch:
    """Search the accelerator design space for a fixed network.

    Parameters
    ----------
    network:
        Backbone / layer-spec list / workload list to accelerate.
    device:
        FPGA resource budget (paper: ZC706, 900 DSPs).
    config:
        :class:`DASConfig` hyper-parameters.
    """

    def __init__(self, network, device=ZC706, config=None):
        self.workloads = PerformancePredictor._coerce(network)
        self.device = device
        self.config = config if config is not None else DASConfig()
        self.space = AcceleratorDesignSpace(
            num_layers=len(self.workloads), max_chunks=self.config.max_chunks
        )
        self.predictor = PerformancePredictor(device=device)
        self.rng = np.random.default_rng(self.config.seed)

        # One logit Parameter per categorical dimension.
        self.phi = {
            name: Parameter(np.zeros(len(choices)))
            for name, choices in self.space.dimensions()
        }
        self.optimizer = Adam(list(self.phi.values()), lr=self.config.learning_rate)
        self.temperature = TemperatureSchedule(
            initial=self.config.temperature_initial,
            decay=self.config.temperature_decay,
            decay_interval=self.config.temperature_interval,
        )
        self._baseline = None
        self._family = None
        self.steps_taken = 0

    # ------------------------------------------------------------------ #
    # Checkpointing (the co-search bundles this with the searcher state)
    # ------------------------------------------------------------------ #
    def state_dict(self):
        """Everything needed to resume the accelerator search bit-identically.

        Returns a flat ``{name: ndarray}`` dict: per-dimension logits
        (``phi.<name>``), the Adam state, the RNG stream (json-encoded, as a
        0-d unicode array), the step counter driving the temperature
        schedule, and the moving-average cost baseline when one exists.
        """
        import json

        state = {
            "steps_taken": np.int64(self.steps_taken),
            "rng": np.asarray(json.dumps(self.rng.bit_generator.state)),
        }
        if self._baseline is not None:
            state["baseline"] = np.float64(self._baseline)
        for name, logits in self.phi.items():
            state["phi." + name] = logits.data.copy()
        for key, value in self.optimizer.state_dict().items():
            state["optim." + key] = value
        return state

    def load_state_dict(self, state):
        """Restore :meth:`state_dict` output (in place)."""
        import json

        self.steps_taken = int(state["steps_taken"])
        self.rng = np.random.default_rng()
        self.rng.bit_generator.state = json.loads(str(np.asarray(state["rng"]).item()))
        self._baseline = float(state["baseline"]) if "baseline" in state else None
        for name, logits in self.phi.items():
            logits.data[...] = state["phi." + name]
            logits.bump_version()
        self.optimizer.load_state_dict(
            {k[len("optim."):]: v for k, v in state.items() if k.startswith("optim.")}
        )
        return self

    # ------------------------------------------------------------------ #
    # Sampling and evaluation
    # ------------------------------------------------------------------ #
    def sample(self, temperature):
        """Hard-Gumbel sample every dimension.

        Returns
        -------
        indices:
            ``{dimension: sampled index}``.
        draw:
            The :class:`~repro.nas.gumbel.GumbelDraw` of every dimension.
        """
        if self._family is None:
            self._family = GumbelFamily(self.phi.values())
        draw = self._family.sample(temperature, self.rng)
        return {name: int(i) for name, i in zip(self.phi, draw.index)}, draw

    def evaluate_indices(self, indices):
        """Decode ``indices`` into a configuration and run the predictor."""
        config = self.space.decode(indices)
        metrics = self.predictor.predict(self.workloads, config)
        cost = metrics.cost(
            latency_weight=self.config.latency_weight,
            energy_weight=self.config.energy_weight,
            objective=self.config.objective,
        )
        return config, metrics, cost

    # ------------------------------------------------------------------ #
    # One search step (usable standalone or inside the A3C-S co-search)
    # ------------------------------------------------------------------ #
    def step(self):
        """One DAS update: sample, evaluate, penalise the sampled choices.

        Returns ``(config, metrics, cost)`` of the accelerator sampled at this
        step, so the caller (the co-search loop) can use it as ``hw(phi*)``.
        """
        temperature = self.temperature.value(self.steps_taken)
        return self._apply_update(*self.sample(temperature))

    def _apply_update(self, indices, draw):
        """Evaluate the sampled design and apply the relaxed-penalty update."""
        config, metrics, cost = self.evaluate_indices(indices)

        # Variance-reduced score: (cost - baseline) * sum of sampled-path probabilities.
        if self._baseline is None:
            self._baseline = cost
        advantage = cost - self._baseline
        self._baseline = (
            self.config.baseline_momentum * self._baseline
            + (1.0 - self.config.baseline_momentum) * cost
        )

        # The loss is advantage * sum of the sampled choices' soft probabilities.
        grad = np.zeros_like(draw.soft)
        grad[draw.sampled_at] += float(advantage)
        self.optimizer.zero_grad()
        draw.backward(grad)
        self.optimizer.step()
        self.steps_taken += 1
        return config, metrics, cost

    # ------------------------------------------------------------------ #
    # Full search
    # ------------------------------------------------------------------ #
    def search(self, steps=200, track_best=True, refine=True, refine_passes=2, warm_start=True):
        """Run ``steps`` DAS updates and return a :class:`DASResult`.

        The best configuration is tracked by evaluated cost over all sampled
        accelerators plus the final arg-max derivation.  When ``refine`` is
        true, the derived design point is additionally polished with a greedy
        per-knob sweep (coordinate descent) using the analytical predictor —
        the sampled-gradient phase navigates the joint space, the sweep
        removes residual sampling noise from the final design.  ``warm_start``
        additionally evaluates a small set of uniform seed designs up front.
        """
        best_cost = np.inf
        best_config = None
        best_metrics = None
        best_indices = None
        history = []
        if warm_start:
            for indices in self.warm_start_candidates():
                config, metrics, cost = self.evaluate_indices(indices)
                if metrics.feasible and cost < best_cost:
                    best_cost, best_config, best_metrics = cost, config, metrics
                    best_indices = dict(indices)
        for _ in range(steps):
            temperature = self.temperature.value(self.steps_taken)
            indices, draw = self.sample(temperature)
            config, metrics, cost = self._apply_update(indices, draw)
            history.append(cost)
            if track_best and metrics.feasible and cost < best_cost:
                best_cost, best_config, best_metrics = cost, config, metrics
                best_indices = dict(indices)
        # Always consider the arg-max derivation too.
        derived_indices = self.derive_indices()
        config, metrics, cost = self.evaluate_indices(derived_indices)
        if best_config is None or (metrics.feasible and cost < best_cost):
            best_cost, best_config, best_metrics = cost, config, metrics
            best_indices = dict(derived_indices)
        if refine and best_indices is not None:
            best_indices, best_config, best_metrics, best_cost = self.refine(
                best_indices, max_passes=refine_passes
            )
        return DASResult(
            best_config=best_config,
            best_metrics=best_metrics,
            best_cost=float(best_cost),
            cost_history=history,
            steps=self.steps_taken,
        )

    def refine(self, indices, max_passes=2):
        """Greedy coordinate-descent sweep over the design knobs.

        Starting from ``indices``, every dimension is swept through all of its
        choices (holding the others fixed) and the best feasible choice is
        kept; passes repeat until no knob changes or ``max_passes`` is hit.

        The ``num_chunks`` knob additionally gets a *replication* macro move:
        when proposing more pipeline chunks than are currently active, the
        newly enabled chunks inherit chunk 0's parameters.  Without this, the
        parameters of currently unused chunks are "don't care" values that
        make deeper pipelines look spuriously bad and trap the sweep in
        shallow-pipeline local optima.
        """
        best_indices = dict(indices)
        best_config, best_metrics, best_cost = self.evaluate_indices(best_indices)
        for _ in range(max_passes):
            improved = False
            for name, choices in self.space.dimensions():
                current_choice = best_indices[name]
                for choice_index in range(len(choices)):
                    if choice_index == current_choice:
                        continue
                    candidates = [dict(best_indices)]
                    candidates[0][name] = choice_index
                    if name == "num_chunks":
                        candidates.append(
                            self._replicate_chunk0(dict(best_indices), choice_index)
                        )
                    for candidate in candidates:
                        config, metrics, cost = self.evaluate_indices(candidate)
                        if cost < best_cost:
                            best_indices, best_config, best_metrics, best_cost = (
                                candidate,
                                config,
                                metrics,
                                cost,
                            )
                            improved = True
            if not improved:
                break
        return best_indices, best_config, best_metrics, best_cost

    def _replicate_chunk0(self, indices, num_chunks_choice):
        """Candidate with ``num_chunks`` changed and chunk 0 copied to all chunks."""
        indices = dict(indices)
        indices["num_chunks"] = num_chunks_choice
        chunk0 = {
            name.split(".", 1)[1]: indices[name]
            for name in indices
            if name.startswith("chunk0.")
        }
        for chunk_index in range(1, self.space.max_chunks):
            for param, value in chunk0.items():
                indices["chunk{}.{}".format(chunk_index, param)] = value
        return indices

    def warm_start_candidates(self):
        """Heuristic seed designs evaluated before the gradient phase.

        For every pipeline depth and every PE-array shape, a uniform design
        (all chunks identical, MAC-balanced contiguous layer assignment) is
        proposed.  These seeds are ordinary members of the design space; they
        simply ensure the tracked best never starts worse than a sensible
        hand design, which mirrors how accelerator searches are warm-started
        in practice.
        """
        from .template import balanced_layer_assignment

        lookup = dict(self.space.dimensions())
        pe_choices = lookup["chunk0.pe_array"]
        chunk_choices = lookup["num_chunks"]
        candidates = []
        for chunk_choice_index, num_chunks in enumerate(chunk_choices):
            assignment = balanced_layer_assignment(self.workloads, num_chunks)
            for pe_index in range(len(pe_choices)):
                indices = self.space.default_indices()
                indices["num_chunks"] = chunk_choice_index
                for chunk_index in range(self.space.max_chunks):
                    indices["chunk{}.pe_array".format(chunk_index)] = pe_index
                for layer_index, chunk in enumerate(assignment):
                    indices["layer{}.chunk".format(layer_index)] = chunk
                candidates.append(indices)
        return candidates

    def derive_indices(self):
        """Arg-max choice per dimension (the final derived accelerator)."""
        return {name: int(np.argmax(logits.data)) for name, logits in self.phi.items()}

    def derive_config(self):
        """Decode the arg-max accelerator configuration."""
        return self.space.decode(self.derive_indices())

    def probabilities(self):
        """Softmax probabilities per dimension (for inspection / tests)."""
        return {name: np.divide(*softmax(logits.data)) for name, logits in self.phi.items()}
