"""Candidate operators of the A3C-S agent search space.

Sec. V-A of the paper: the supernet has 12 sequential searchable cells whose
candidate operators are

* standard convolution with kernel size 3 or 5,
* inverted residual blocks with kernel size 3 or 5 and channel expansion
  1, 3 or 5 (six combinations),
* a skip connection,

i.e. 9 choices per cell and a search space of 9^12 networks.
"""

from __future__ import annotations

import numpy as np

from ..nn import ConvBNReLU, InvertedResidual, SkipConnection

__all__ = ["OperatorSpec", "CANDIDATE_OPERATORS", "build_operator", "operator_macs", "operator_params"]


class OperatorSpec:
    """A named, parameter-free description of one candidate operator."""

    def __init__(self, name, kind, kernel_size=3, expansion=1):
        self.name = name
        self.kind = kind  # "conv", "inverted_residual", or "skip"
        self.kernel_size = kernel_size
        self.expansion = expansion

    def __repr__(self):
        return "OperatorSpec({!r})".format(self.name)

    def __eq__(self, other):
        return isinstance(other, OperatorSpec) and other.name == self.name

    def __hash__(self):
        return hash(self.name)


#: The 9 candidate operators of the paper, in a stable order (index == choice id).
CANDIDATE_OPERATORS = (
    OperatorSpec("conv_k3", "conv", kernel_size=3),
    OperatorSpec("conv_k5", "conv", kernel_size=5),
    OperatorSpec("ir_k3_e1", "inverted_residual", kernel_size=3, expansion=1),
    OperatorSpec("ir_k3_e3", "inverted_residual", kernel_size=3, expansion=3),
    OperatorSpec("ir_k3_e5", "inverted_residual", kernel_size=3, expansion=5),
    OperatorSpec("ir_k5_e1", "inverted_residual", kernel_size=5, expansion=1),
    OperatorSpec("ir_k5_e3", "inverted_residual", kernel_size=5, expansion=3),
    OperatorSpec("ir_k5_e5", "inverted_residual", kernel_size=5, expansion=5),
    OperatorSpec("skip", "skip"),
)


def build_operator(spec, in_channels, out_channels, stride=1, rng=None):
    """Instantiate the :class:`~repro.nn.Module` for an operator spec.

    Parameters
    ----------
    spec:
        An :class:`OperatorSpec` (or its name).
    in_channels, out_channels, stride:
        Cell-level shape configuration shared by every candidate in the cell.
    """
    if isinstance(spec, str):
        by_name = {s.name: s for s in CANDIDATE_OPERATORS}
        spec = by_name[spec]
    rng = rng if rng is not None else np.random.default_rng(0)
    if spec.kind == "conv":
        return ConvBNReLU(in_channels, out_channels, spec.kernel_size, stride=stride, rng=rng)
    if spec.kind == "inverted_residual":
        return InvertedResidual(
            in_channels,
            out_channels,
            kernel_size=spec.kernel_size,
            stride=stride,
            expansion=spec.expansion,
            rng=rng,
        )
    if spec.kind == "skip":
        return SkipConnection(in_channels, out_channels, stride=stride, rng=rng)
    raise ValueError("unknown operator kind {!r}".format(spec.kind))


def operator_macs(spec, in_channels, out_channels, input_size, stride=1):
    """Multiply-accumulate count of one candidate operator at a given shape.

    Used both for the FLOPs-proportional part of the hardware-cost penalty and
    by tests asserting the expected cost ordering of the candidates.
    """
    if isinstance(spec, str):
        spec = {s.name: s for s in CANDIDATE_OPERATORS}[spec]
    out_size = (input_size + 2 * (spec.kernel_size // 2) - spec.kernel_size) // stride + 1 \
        if spec.kind != "skip" else (input_size + stride - 1) // stride
    if spec.kind == "conv":
        return int(out_size ** 2 * out_channels * in_channels * spec.kernel_size ** 2)
    if spec.kind == "inverted_residual":
        hidden = max(1, int(round(in_channels * spec.expansion)))
        macs = 0
        if spec.expansion != 1:
            macs += input_size ** 2 * hidden * in_channels  # 1x1 expansion
        macs += out_size ** 2 * hidden * spec.kernel_size ** 2  # depthwise
        macs += out_size ** 2 * out_channels * hidden  # 1x1 projection
        return int(macs)
    if spec.kind == "skip":
        if stride == 1 and in_channels == out_channels:
            return 0
        return int(out_size ** 2 * out_channels * in_channels)  # 1x1 projection
    raise ValueError("unknown operator kind {!r}".format(spec.kind))


def operator_params(spec, in_channels, out_channels):
    """Parameter count of one candidate operator (ignoring batch-norm scales)."""
    if isinstance(spec, str):
        spec = {s.name: s for s in CANDIDATE_OPERATORS}[spec]
    if spec.kind == "conv":
        return int(out_channels * in_channels * spec.kernel_size ** 2)
    if spec.kind == "inverted_residual":
        hidden = max(1, int(round(in_channels * spec.expansion)))
        params = 0
        if spec.expansion != 1:
            params += hidden * in_channels
        params += hidden * spec.kernel_size ** 2
        params += out_channels * hidden
        return int(params)
    if spec.kind == "skip":
        if in_channels == out_channels:
            return 0
        return int(out_channels * in_channels)
    raise ValueError("unknown operator kind {!r}".format(spec.kind))
