"""Hardware-cost coupling between the agent search and the accelerator search.

Two pieces live here:

* :class:`UnitGranularityDAS` — a DAS engine whose layer-allocation knobs are
  defined at the granularity of the supernet's *units* (stem, the 12
  searchable cells, final FC) instead of individual conv layers.  Different
  sampled architectures expand a cell into different numbers of conv layers
  (an inverted-residual cell has up to three), so unit granularity keeps the
  accelerator parameters ``phi`` well-defined across the whole agent search,
  exactly like the paper's chunk template assigns "multiple but not
  necessarily consecutive layers" to each chunk.

* :class:`HardwarePenalty` — the Eq. 8 layer-wise hardware-cost penalty: the
  activated operator of every cell is charged the latency its layers incur on
  the current optimal accelerator ``hw(phi*)``; the searcher weights these
  per-cell costs by the cell's Gumbel gate so the gradient reaches alpha.
"""

from __future__ import annotations

import numpy as np

from ..accelerator.das import DifferentiableAcceleratorSearch
from ..accelerator.design_space import AcceleratorDesignSpace
from ..accelerator.fpga import ZC706
from ..accelerator.workload import extract_workload
from ..nn import Adam, Parameter

__all__ = ["UnitGranularityDAS", "HardwarePenalty", "unit_of_layer_map"]


def unit_of_layer_map(layer_specs, num_cells):
    """Map each layer-spec index to its supernet unit index.

    Units: ``0`` = stem, ``1..num_cells`` = searchable cells, ``num_cells+1`` = FC head.
    """
    mapping = []
    for spec in layer_specs:
        name = spec["name"]
        if name == "stem":
            mapping.append(0)
        elif name == "fc":
            mapping.append(num_cells + 1)
        elif name.startswith("cell"):
            cell_index = int(name.split(".")[0][len("cell"):])
            mapping.append(cell_index + 1)
        else:
            raise ValueError("cannot map layer {!r} to a supernet unit".format(name))
    return mapping


class UnitGranularityDAS(DifferentiableAcceleratorSearch):
    """DAS over a fixed set of *units* that expands to the current network.

    Parameters
    ----------
    num_units:
        Number of allocation units (stem + cells + FC for the supernet).
    device, config:
        As for :class:`DifferentiableAcceleratorSearch`.

    The bound network is changed with :meth:`set_network` whenever the agent
    search samples a new single-path architecture; ``phi`` (and therefore the
    accumulated accelerator-search state) persists across those changes.
    """

    def __init__(self, num_units, device=ZC706, config=None):
        self.num_units = int(num_units)
        # Initialise the parent against a placeholder single-unit workload;
        # the real workloads are installed by set_network().
        placeholder = [
            {
                "name": "unit{}".format(i),
                "type": "fc",
                "in_features": 16,
                "out_features": 16,
            }
            for i in range(self.num_units)
        ]
        super().__init__(placeholder, device=device, config=config)
        # Rebuild the design space so layer-allocation knobs index units.
        self.space = AcceleratorDesignSpace(num_layers=self.num_units, max_chunks=self.config.max_chunks)
        self.phi = {name: Parameter(np.zeros(len(choices))) for name, choices in self.space.dimensions()}
        self.optimizer = Adam(list(self.phi.values()), lr=self.config.learning_rate)
        self._unit_of_layer = list(range(self.num_units))

    def set_network(self, layer_specs, unit_of_layer):
        """Bind the DAS evaluation to a concrete single-path network."""
        self.workloads = extract_workload(layer_specs)
        if len(unit_of_layer) != len(self.workloads):
            raise ValueError("unit_of_layer must have one entry per layer")
        self._unit_of_layer = list(unit_of_layer)
        return self

    def evaluate_indices(self, indices):
        """Decode unit-level indices, expand to layer level, and evaluate."""
        config = self.space.decode(indices)
        # Expand the unit-level assignment onto the bound network's layers.
        expanded = [config.layer_assignment[unit] for unit in self._unit_of_layer]
        config.layer_assignment = expanded
        metrics = self.predictor.predict(self.workloads, config)
        cost = metrics.cost(
            latency_weight=self.config.latency_weight,
            energy_weight=self.config.energy_weight,
            objective=self.config.objective,
        )
        return config, metrics, cost

    def warm_start_candidates(self):
        """Unit-granularity warm starts (balanced contiguous unit assignment)."""
        lookup = dict(self.space.dimensions())
        pe_choices = lookup["chunk0.pe_array"]
        chunk_choices = lookup["num_chunks"]
        candidates = []
        for chunk_choice_index, num_chunks in enumerate(chunk_choices):
            for pe_index in range(len(pe_choices)):
                indices = self.space.default_indices()
                indices["num_chunks"] = chunk_choice_index
                for chunk_index in range(self.space.max_chunks):
                    indices["chunk{}.pe_array".format(chunk_index)] = pe_index
                for unit in range(self.num_units):
                    indices["layer{}.chunk".format(unit)] = int(unit * num_chunks / self.num_units)
                candidates.append(indices)
        return candidates


class HardwarePenalty:
    """Eq. 8: activated-path hardware-cost penalty for the architecture parameters.

    Parameters
    ----------
    supernet:
        The agent supernet (provides ``layer_specs(op_indices)``).
    das:
        A :class:`UnitGranularityDAS` instance holding the accelerator
        parameters ``phi``.
    das_steps_per_call:
        How many DAS updates to run per co-search iteration (Algorithm 1
        updates ``phi`` once per iteration before the agent update).
    normalize:
        Divide per-cell latencies by the total network latency so the penalty
        magnitude is architecture-scale independent.
    """

    def __init__(self, supernet, das, das_steps_per_call=1, normalize=True):
        self.supernet = supernet
        self.das = das
        self.das_steps_per_call = int(das_steps_per_call)
        self.normalize = bool(normalize)
        self.last_metrics = None
        self.last_config = None
        self.history = []

    def layer_path(self, op_indices):
        """``(layer specs, unit of each layer)`` of the single-path network."""
        specs = self.supernet.layer_specs(op_indices)
        return specs, unit_of_layer_map(specs, self.supernet.num_cells)

    def update_accelerator(self, op_indices, path=None):
        """Run the DAS updates for the current single-path network (phi step of Alg. 1).

        ``path`` is ``layer_path(op_indices)`` if the caller has built it.
        """
        self.das.set_network(*(path or self.layer_path(op_indices)))
        config, metrics, cost = None, None, None
        for _ in range(max(1, self.das_steps_per_call)):
            config, metrics, cost = self.das.step()
        self.last_config = config
        self.last_metrics = metrics
        self.history.append(cost)
        return config, metrics

    def cell_latencies(self, op_indices, config, metrics=None, path=None):
        """Per-cell latency on ``config``, in accelerator cost-model cycles.

        ``metrics`` is ``config``'s evaluation on this path if the caller has
        it (the DAS step's), and ``path`` its :meth:`layer_path`.  With
        ``normalize`` (the default) each cell's cycles are a fraction of the
        whole network's.
        """
        specs, units = path or self.layer_path(op_indices)
        if metrics is None:
            metrics = self.das.predictor.cost_model.evaluate(specs, config)
        table = {cost.name: cost.latency_cycles for cost in metrics.layer_costs}
        per_unit = np.zeros(self.supernet.num_cells + 2)
        for spec, unit in zip(specs, units):
            per_unit[unit] += table[spec["name"]]
        cell_latency = per_unit[1 : self.supernet.num_cells + 1]
        if self.normalize and per_unit.sum() > 0:
            cell_latency = cell_latency / per_unit.sum()
        return cell_latency

    def __call__(self, sampled_indices):
        """Eq. 8 cost of each cell on ``hw(phi*)`` after this iteration's DAS
        step; the searcher's penalty is ``sum_c cost_c * gate_c[sampled_c]``."""
        path = self.layer_path(sampled_indices)
        config, metrics = self.update_accelerator(sampled_indices, path)
        return self.cell_latencies(sampled_indices, config, metrics, path)
