"""Composite building blocks: ConvBNReLU, residual blocks, inverted residuals.

These are the operator primitives from which the ResNet baselines
(ResNet-14/20/38/74) and the A3C-S supernet candidate operators
(standard conv k3/k5, inverted residual blocks k3/k5 with expansion 1/3/5,
and skip connections) are assembled.
"""

from __future__ import annotations

from .modules import BatchNorm2d, Conv2d, Identity, Module, ReLU, Sequential

__all__ = ["ConvBNReLU", "BasicResBlock", "InvertedResidual", "SkipConnection", "count_conv_flops"]


def count_conv_flops(in_channels, out_channels, kernel_size, out_h, out_w, groups=1):
    """Multiply-accumulate count of one conv layer (used by the cost model)."""
    return int(out_h * out_w * out_channels * (in_channels // groups) * kernel_size * kernel_size)


class ConvBNReLU(Module):
    """Convolution + batch norm + ReLU, the standard CNN building unit."""

    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1, groups=1, rng=None,
                 use_relu=True):
        super().__init__()
        padding = kernel_size // 2
        self.conv = Conv2d(
            in_channels,
            out_channels,
            kernel_size,
            stride=stride,
            padding=padding,
            groups=groups,
            bias=False,
            rng=rng,
        )
        self.bn = BatchNorm2d(out_channels)
        self.act = ReLU() if use_relu else Identity()
        self.stride = stride
        self.kernel_size = kernel_size
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.groups = groups

    def forward(self, x):
        return self.act(self.bn(self.conv(x)))


class BasicResBlock(Module):
    """The two-conv residual block used by the ResNet-14/20/38/74 baselines.

    When the stride is larger than one or the channel count changes, a 1x1
    projection shortcut is inserted, exactly as in the original ResNet.
    """

    def __init__(self, in_channels, out_channels, stride=1, kernel_size=3, rng=None):
        super().__init__()
        self.conv1 = ConvBNReLU(in_channels, out_channels, kernel_size, stride=stride, rng=rng)
        self.conv2 = ConvBNReLU(out_channels, out_channels, kernel_size, stride=1, rng=rng,
                                use_relu=False)
        if stride != 1 or in_channels != out_channels:
            self.shortcut = ConvBNReLU(in_channels, out_channels, 1, stride=stride, rng=rng,
                                       use_relu=False)
        else:
            self.shortcut = Identity()
        self.act = ReLU()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride

    def forward(self, x):
        residual = self.shortcut(x)
        out = self.conv2(self.conv1(x))
        return self.act(out + residual)


class InvertedResidual(Module):
    """MobileNetV2-style inverted residual block (candidate NAS operator).

    Structure: 1x1 expansion conv -> depthwise kxk conv -> 1x1 projection.
    A residual connection is added when the block preserves shape.
    """

    def __init__(self, in_channels, out_channels, kernel_size=3, stride=1, expansion=3, rng=None):
        super().__init__()
        hidden = max(1, int(round(in_channels * expansion)))
        layers = []
        if expansion != 1:
            layers.append(ConvBNReLU(in_channels, hidden, 1, stride=1, rng=rng))
        layers.append(ConvBNReLU(hidden, hidden, kernel_size, stride=stride, groups=hidden, rng=rng))
        layers.append(ConvBNReLU(hidden, out_channels, 1, stride=1, rng=rng, use_relu=False))
        self.body = Sequential(*layers)
        self.use_residual = stride == 1 and in_channels == out_channels
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.expansion = expansion
        self.hidden_channels = hidden

    def forward(self, x):
        out = self.body(x)
        if self.use_residual:
            out = out + x
        return out


class SkipConnection(Module):
    """Skip / identity candidate operator.

    When the operator must change resolution or channel count (stride > 1 or
    ``in_channels != out_channels``), the skip degenerates to a 1x1 strided
    projection so the supernet cell remains shape-consistent; otherwise it is
    a true identity with zero compute cost.
    """

    def __init__(self, in_channels, out_channels, stride=1, rng=None):
        super().__init__()
        self.is_identity = stride == 1 and in_channels == out_channels
        if self.is_identity:
            self.op = Identity()
        else:
            self.op = ConvBNReLU(in_channels, out_channels, 1, stride=stride, rng=rng,
                                 use_relu=False)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.stride = stride

    def forward(self, x):
        return self.op(x)
