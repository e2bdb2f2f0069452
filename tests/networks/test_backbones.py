"""Backbone tests: Vanilla CNN and the ResNet family."""

import pytest

from repro.networks import RESNET_BLOCKS, ResNet, VanillaNet, build_backbone, resnet14, resnet20, resnet38, resnet74
from repro.nn import Tensor


class TestVanillaNet:
    def test_forward_shape_at_paper_resolution(self, rng):
        net = VanillaNet(in_channels=4, input_size=84, feature_dim=256, rng=rng)
        out = net(Tensor(rng.standard_normal((2, 4, 84, 84))))
        assert out.shape == (2, 256)

    def test_forward_shape_small(self, rng):
        net = VanillaNet(in_channels=2, input_size=42, feature_dim=64, rng=rng)
        assert net(Tensor(rng.standard_normal((1, 2, 42, 42)))).shape == (1, 64)

    def test_features_nonnegative(self, rng):
        net = VanillaNet(in_channels=2, input_size=42, feature_dim=32, rng=rng)
        out = net(Tensor(rng.standard_normal((3, 2, 42, 42))))
        assert (out.data >= 0).all()

    def test_layer_specs_structure(self, rng):
        net = VanillaNet(in_channels=4, input_size=84, rng=rng)
        specs = net.layer_specs()
        assert [s["name"] for s in specs] == ["conv1", "conv2", "conv3", "fc"]
        assert specs[0]["kernel_size"] == 8 and specs[0]["stride"] == 4
        assert specs[-1]["type"] == "fc"

    def test_flops_positive_and_consistent(self, rng):
        net = VanillaNet(in_channels=4, input_size=84, rng=rng)
        assert net.flops() > 1e6


class TestResNets:
    @pytest.mark.parametrize("depth,blocks", list(RESNET_BLOCKS.items()))
    def test_depth_block_mapping(self, depth, blocks, rng):
        net = ResNet(depth=depth, in_channels=2, input_size=28, feature_dim=32, base_width=4, rng=rng)
        assert len(list(net.stages)) == 3 * blocks

    def test_invalid_depth_raises(self):
        with pytest.raises(ValueError):
            ResNet(depth=18)

    def test_forward_shape(self, rng):
        net = resnet14(in_channels=2, input_size=42, feature_dim=64, base_width=8, rng=rng)
        assert net(Tensor(rng.standard_normal((2, 2, 42, 42)))).shape == (2, 64)

    def test_stem_uses_stride_two(self, rng):
        # Paper: "we modify the stride of the first convolution to be 2".
        net = resnet20(in_channels=2, input_size=42, base_width=4, rng=rng)
        assert net.stem.conv.stride == 2

    def test_flops_increase_with_depth(self, rng):
        kwargs = {"in_channels": 2, "input_size": 42, "feature_dim": 64, "base_width": 8}
        flops = [factory(**kwargs).flops() for factory in (resnet14, resnet20, resnet38, resnet74)]
        assert flops[0] < flops[1] < flops[2] < flops[3]

    def test_params_increase_with_depth(self, rng):
        kwargs = {"in_channels": 2, "input_size": 28, "feature_dim": 32, "base_width": 4}
        params = [resnet14(**kwargs).num_parameters(), resnet20(**kwargs).num_parameters(),
                  resnet38(**kwargs).num_parameters(), resnet74(**kwargs).num_parameters()]
        assert params == sorted(params)

    def test_layer_specs_cover_all_convs(self, rng):
        net = resnet14(in_channels=2, input_size=28, base_width=4, rng=rng)
        specs = net.layer_specs()
        conv_specs = [s for s in specs if s["type"] == "conv"]
        # stem + 2 convs per block (6 blocks) + 2 projection shortcuts = 15.
        assert len(conv_specs) == 1 + 12 + 2
        assert specs[-1]["type"] == "fc"

    def test_layer_specs_output_sizes_consistent(self, rng):
        net = resnet20(in_channels=2, input_size=42, base_width=4, rng=rng)
        for spec in net.layer_specs():
            if spec["type"] == "conv":
                assert spec["output_size"] >= 1
                assert spec["output_size"] <= spec["input_size"]


class TestBuildBackbone:
    def test_build_by_name(self, rng):
        assert isinstance(build_backbone("Vanilla", in_channels=2, input_size=42), VanillaNet)
        net = build_backbone("ResNet-20", in_channels=2, input_size=42, base_width=4)
        assert isinstance(net, ResNet) and net.depth == 20

    def test_case_insensitive(self):
        assert isinstance(build_backbone("vanilla", in_channels=2, input_size=42), VanillaNet)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            build_backbone("AlexNet")

    def test_paper_flops_ratio_resnet38_vs_vanilla(self):
        """Sec. V-B mentions ResNet-38 costs ~13.7x the vanilla network; at the
        paper's full geometry the ResNet family must indeed be far more
        expensive than Vanilla (we only check the ordering, not the factor)."""
        vanilla = VanillaNet(in_channels=4, input_size=84, feature_dim=256)
        resnet = resnet38(in_channels=4, input_size=84, feature_dim=256, base_width=16)
        assert resnet.flops() > vanilla.flops()
