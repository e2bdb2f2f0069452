"""Accelerator substrate: design space, cost model, DAS engine, baselines."""

from .cost_model import AcceleratorCostModel, AcceleratorMetrics, LayerCost
from .das import DASConfig, DASResult, DifferentiableAcceleratorSearch
from .dataflow import TrafficEstimate, estimate_layer_traffic, noc_efficiency, pe_utilization, tile_counts
from .design_space import (
    AcceleratorConfig,
    AcceleratorDesignSpace,
    BUFFER_KB_CHOICES,
    BUFFER_SPLIT_CHOICES,
    ChunkConfig,
    DATAFLOW_CHOICES,
    LOOP_ORDER_CHOICES,
    NOC_CHOICES,
    NUM_CHUNK_CHOICES,
    PE_ARRAY_CHOICES,
    TILE_CHANNEL_CHOICES,
    TILE_SPATIAL_CHOICES,
)
from .dnnbuilder import DNNBuilderAccelerator, build_dnnbuilder_config
from .fpga import DEVICES, FPGADevice, ULTRA96, ZC706, ZCU102, get_device
from .predictor import PerformancePredictor, config_fingerprint, workload_fingerprint
from .template import ChunkPipelineAccelerator, balanced_layer_assignment
from .workload import LayerWorkload, extract_workload, total_macs, total_weight_bytes

__all__ = [
    "AcceleratorCostModel",
    "AcceleratorMetrics",
    "LayerCost",
    "DASConfig",
    "DASResult",
    "DifferentiableAcceleratorSearch",
    "TrafficEstimate",
    "estimate_layer_traffic",
    "noc_efficiency",
    "pe_utilization",
    "tile_counts",
    "AcceleratorConfig",
    "AcceleratorDesignSpace",
    "ChunkConfig",
    "PE_ARRAY_CHOICES",
    "NOC_CHOICES",
    "DATAFLOW_CHOICES",
    "BUFFER_KB_CHOICES",
    "BUFFER_SPLIT_CHOICES",
    "TILE_CHANNEL_CHOICES",
    "TILE_SPATIAL_CHOICES",
    "LOOP_ORDER_CHOICES",
    "NUM_CHUNK_CHOICES",
    "DNNBuilderAccelerator",
    "build_dnnbuilder_config",
    "FPGADevice",
    "ZC706",
    "ZCU102",
    "ULTRA96",
    "DEVICES",
    "get_device",
    "PerformancePredictor",
    "workload_fingerprint",
    "config_fingerprint",
    "ChunkPipelineAccelerator",
    "balanced_layer_assignment",
    "LayerWorkload",
    "extract_workload",
    "total_macs",
    "total_weight_bytes",
]
