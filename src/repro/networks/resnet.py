"""ResNet-14/20/38/74 feature extractors adapted for DRL agents.

The paper evaluates the AC-based DRL agent with ResNet backbones of four
depths.  Following Sec. V-A, the stride of the first convolution is set to 2
(so the 84x84 Atari observation is downsampled early) and the output
dimension of the final FC layer is 256.

The depth convention matches CIFAR-style ResNets: three stages of ``n`` basic
blocks each, total depth ``6 n + 2``:

* ResNet-14 -> n = 2
* ResNet-20 -> n = 3
* ResNet-38 -> n = 6
* ResNet-74 -> n = 12
"""

from __future__ import annotations

import numpy as np

from ..nn import BasicResBlock, ConvBNReLU, GlobalAvgPool2d, Linear, Module, ReLU, Sequential

__all__ = ["ResNet", "resnet14", "resnet20", "resnet38", "resnet74", "RESNET_BLOCKS", "build_backbone"]

RESNET_BLOCKS = {14: 2, 20: 3, 38: 6, 74: 12}


class ResNet(Module):
    """CIFAR-style ResNet adapted to Atari observations.

    Parameters
    ----------
    depth:
        One of 14 / 20 / 38 / 74.
    in_channels:
        Number of stacked input frames.
    input_size:
        Observation resolution (84 in the paper).
    feature_dim:
        Dimensionality of the output feature (256 in the paper).
    base_width:
        Channel width of the first stage (doubled at each later stage).
    """

    def __init__(self, depth=20, in_channels=4, input_size=84, feature_dim=256, base_width=16, rng=None):
        super().__init__()
        if depth not in RESNET_BLOCKS:
            raise ValueError("unsupported ResNet depth {}; choose from {}".format(depth, sorted(RESNET_BLOCKS)))
        rng = rng if rng is not None else np.random.default_rng(0)
        self.depth = depth
        self.name = "ResNet-{}".format(depth)
        self.in_channels = in_channels
        self.input_size = input_size
        self.feature_dim = feature_dim
        blocks_per_stage = RESNET_BLOCKS[depth]

        # Paper: stride of the first convolution modified to 2.
        self.stem = ConvBNReLU(in_channels, base_width, 3, stride=2, rng=rng)

        stages = []
        widths = [base_width, base_width * 2, base_width * 4]
        in_width = base_width
        for stage_index, width in enumerate(widths):
            for block_index in range(blocks_per_stage):
                stride = 2 if (block_index == 0 and stage_index > 0) else 1
                stages.append(BasicResBlock(in_width, width, stride=stride, rng=rng))
                in_width = width
        self.stages = Sequential(*stages)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(widths[-1], feature_dim, rng=rng)
        self.relu = ReLU()
        self._widths = widths
        self._blocks_per_stage = blocks_per_stage

    def forward(self, x):
        x = self.stem(x)
        x = self.stages(x)
        x = self.pool(x)
        return self.relu(self.fc(x))

    # ------------------------------------------------------------------ #
    # Workload description for the accelerator cost model
    # ------------------------------------------------------------------ #
    def layer_specs(self):
        """Flattened per-layer conv/FC workload list for the accelerator model."""
        specs = []
        size = self.input_size

        def add_conv(name, conv, in_size):
            out_size = conv.output_spatial(in_size)
            specs.append(
                {
                    "name": name,
                    "type": "conv",
                    "in_channels": conv.in_channels,
                    "out_channels": conv.out_channels,
                    "kernel_size": conv.kernel_size,
                    "stride": conv.stride,
                    "input_size": in_size,
                    "output_size": out_size,
                    "groups": conv.groups,
                }
            )
            return out_size

        size = add_conv("stem", self.stem.conv, size)
        for i, block in enumerate(self.stages):
            block_in = size
            size = add_conv("block{}.conv1".format(i), block.conv1.conv, block_in)
            size = add_conv("block{}.conv2".format(i), block.conv2.conv, size)
            if hasattr(block.shortcut, "conv"):  # projection shortcut present
                add_conv("block{}.shortcut".format(i), block.shortcut.conv, block_in)
        specs.append(
            {
                "name": "fc",
                "type": "fc",
                "in_features": self.fc.in_features,
                "out_features": self.fc.out_features,
            }
        )
        return specs

    def flops(self):
        """Total MAC count of one forward pass (batch size 1)."""
        total = 0
        for spec in self.layer_specs():
            if spec["type"] == "conv":
                total += (
                    spec["output_size"] ** 2
                    * spec["out_channels"]
                    * (spec["in_channels"] // spec["groups"])
                    * spec["kernel_size"] ** 2
                )
            else:
                total += spec["in_features"] * spec["out_features"]
        return int(total)


def resnet14(**kwargs):
    """ResNet-14 backbone (2 blocks per stage)."""
    return ResNet(depth=14, **kwargs)


def resnet20(**kwargs):
    """ResNet-20 backbone (3 blocks per stage); the paper's teacher agent."""
    return ResNet(depth=20, **kwargs)


def resnet38(**kwargs):
    """ResNet-38 backbone (6 blocks per stage)."""
    return ResNet(depth=38, **kwargs)


def resnet74(**kwargs):
    """ResNet-74 backbone (12 blocks per stage)."""
    return ResNet(depth=74, **kwargs)


def build_backbone(name, **kwargs):
    """Build a backbone by its paper name: ``Vanilla`` or ``ResNet-<depth>``.

    This is the factory used by the Table I / Fig. 1 experiment harness.
    """
    from .vanilla import VanillaNet

    if name.lower() == "vanilla":
        return VanillaNet(**kwargs)
    if name.lower().startswith("resnet-"):
        depth = int(name.split("-")[1])
        return ResNet(depth=depth, **kwargs)
    raise ValueError("unknown backbone name: {!r}".format(name))
