"""Accelerator analysis utilities: rooflines, bottleneck reports, comparisons.

These helpers sit on top of the cost model and are what an accelerator
designer would use to understand *why* one searched design beats another:
where each layer sits relative to the device roofline, which pipeline stage
limits throughput, and how two candidate designs differ layer by layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost_model import AcceleratorCostModel
from .fpga import ZC706
from .predictor import PerformancePredictor

__all__ = ["RooflinePoint", "roofline_analysis", "bottleneck_report", "compare_accelerators", "dataflow_sweep"]


@dataclass(frozen=True)
class RooflinePoint:
    """One layer's position on the device roofline.

    Attributes
    ----------
    name:
        Layer name.
    arithmetic_intensity:
        MACs per DRAM byte actually moved by the chosen dataflow.
    achieved_macs_per_cycle:
        MACs per cycle the layer reaches on its assigned chunk.
    peak_macs_per_cycle:
        Compute roof of the assigned chunk (PEs x NoC efficiency).
    bandwidth_roof:
        Memory-bound roof at this intensity (bytes/cycle x intensity).
    bound:
        ``"compute"`` or ``"memory"``.
    """

    name: str
    arithmetic_intensity: float
    achieved_macs_per_cycle: float
    peak_macs_per_cycle: float
    bandwidth_roof: float
    bound: str

    @property
    def efficiency(self):
        """Achieved fraction of the applicable roof."""
        roof = min(self.peak_macs_per_cycle, self.bandwidth_roof)
        return self.achieved_macs_per_cycle / max(roof, 1e-12)


def roofline_analysis(network_or_workloads, config, device=ZC706):
    """Roofline placement of every layer of a network on an accelerator config."""
    model = AcceleratorCostModel(device=device)
    workloads = PerformancePredictor._coerce(network_or_workloads)
    metrics = model.evaluate(workloads, config)
    bandwidth_share = 1.0 / config.num_chunks
    bytes_per_cycle = device.bytes_per_cycle * bandwidth_share

    points = []
    for workload, cost in zip(workloads, metrics.layer_costs):
        chunk = config.chunks[cost.chunk_index]
        from .dataflow import noc_efficiency

        peak = chunk.num_pes * noc_efficiency(chunk.noc, chunk.num_pes)
        intensity = workload.macs / max(cost.dram_bytes, 1e-12)
        achieved = workload.macs / max(cost.latency_cycles, 1e-12)
        points.append(
            RooflinePoint(
                name=workload.name,
                arithmetic_intensity=intensity,
                achieved_macs_per_cycle=achieved,
                peak_macs_per_cycle=peak,
                bandwidth_roof=bytes_per_cycle * intensity,
                bound=cost.bound,
            )
        )
    return points


def bottleneck_report(network_or_workloads, config, device=ZC706, top_k=5):
    """The ``top_k`` layers contributing most to the bottleneck chunk's latency.

    Returns a dict with the bottleneck chunk index, its share of the pipeline
    interval, and the dominating layers (name, cycles, fraction of the chunk).
    """
    model = AcceleratorCostModel(device=device)
    workloads = PerformancePredictor._coerce(network_or_workloads)
    metrics = model.evaluate(workloads, config)
    chunk_index = metrics.bottleneck_chunk
    chunk_cycles = metrics.chunk_cycles[chunk_index]
    layers = [cost for cost in metrics.layer_costs if cost.chunk_index == chunk_index]
    layers.sort(key=lambda cost: cost.latency_cycles, reverse=True)
    return {
        "bottleneck_chunk": chunk_index,
        "chunk_cycles": chunk_cycles,
        "fps": metrics.fps,
        "dominant_layers": [
            {
                "name": cost.name,
                "cycles": cost.latency_cycles,
                "fraction_of_chunk": cost.latency_cycles / max(chunk_cycles, 1e-12),
                "bound": cost.bound,
            }
            for cost in layers[:top_k]
        ],
    }


def compare_accelerators(network_or_workloads, configs, device=ZC706, labels=None):
    """Evaluate several accelerator configs on one network, side by side.

    Parameters
    ----------
    configs:
        List of :class:`AcceleratorConfig`.
    labels:
        Optional names (defaults to ``config0``, ``config1``, ...).

    Returns
    -------
    rows:
        One dict per config with FPS, latency, resources and feasibility,
        plus the FPS ratio relative to the first config.
    """
    model = AcceleratorCostModel(device=device)
    workloads = PerformancePredictor._coerce(network_or_workloads)
    labels = list(labels) if labels is not None else ["config{}".format(i) for i in range(len(configs))]
    if len(labels) != len(configs):
        raise ValueError("labels and configs must have the same length")
    rows = []
    reference_fps = None
    for label, config in zip(labels, configs):
        metrics = model.evaluate(workloads, config)
        if reference_fps is None:
            reference_fps = metrics.fps
        rows.append(
            {
                "label": label,
                "fps": metrics.fps,
                "latency_ms": metrics.latency_ms,
                "dsp": metrics.dsp_used,
                "bram_kb": metrics.bram_kb_used,
                "energy_mj": metrics.energy_mj,
                "feasible": metrics.feasible,
                "fps_vs_first": metrics.fps / max(reference_fps, 1e-12),
            }
        )
    return rows


def dataflow_sweep(network_or_workloads, base_config, device=ZC706):
    """Evaluate the same accelerator with each of the three dataflows.

    Keeps everything else in ``base_config`` fixed and swaps the dataflow of
    every chunk, returning ``{dataflow: fps}`` — the classic dataflow study
    the chunk template is designed to expose.
    """
    import dataclasses

    from .design_space import DATAFLOW_CHOICES

    model = AcceleratorCostModel(device=device)
    workloads = PerformancePredictor._coerce(network_or_workloads)
    results = {}
    for dataflow in DATAFLOW_CHOICES:
        chunks = [dataclasses.replace(chunk, dataflow=dataflow) for chunk in base_config.chunks]
        config = dataclasses.replace(base_config, chunks=chunks)
        results[dataflow] = model.evaluate(workloads, config).fps
    return results
