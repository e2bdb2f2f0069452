"""Differentiable NAS machinery: Gumbel sampling, architecture parameters, search loops."""

from .arch_params import ArchitectureParameters
from .gumbel import GumbelFamily, TemperatureSchedule, sample_gumbel, top_k_active
from .search import DRLArchitectureSearch, OptimizationScheme, SearchConfig, SearchResult

__all__ = [
    "ArchitectureParameters",
    "GumbelFamily",
    "TemperatureSchedule",
    "sample_gumbel",
    "top_k_active",
    "DRLArchitectureSearch",
    "OptimizationScheme",
    "SearchConfig",
    "SearchResult",
]
