"""Workload extraction and design-space tests."""

import numpy as np
import pytest

from repro.accelerator import (
    AcceleratorConfig,
    AcceleratorDesignSpace,
    ChunkConfig,
    extract_workload,
    total_macs,
    total_weight_bytes,
)
from repro.networks import VanillaNet, resnet14


@pytest.fixture
def vanilla_workloads():
    return extract_workload(VanillaNet(in_channels=4, input_size=84, feature_dim=256))


class TestWorkloadExtraction:
    def test_one_workload_per_layer_spec(self, vanilla_workloads):
        assert len(vanilla_workloads) == 4  # 3 convs + fc

    def test_conv_macs_formula(self, vanilla_workloads):
        conv1 = vanilla_workloads[0]
        # 84x84 input, 8x8 kernel stride 4 -> 20x20 output, 4->32 channels.
        assert conv1.macs == 20 * 20 * 32 * 4 * 64

    def test_fc_macs_formula(self, vanilla_workloads):
        fc = vanilla_workloads[-1]
        assert fc.kind == "fc"
        assert fc.macs == fc.in_channels * fc.out_channels

    def test_byte_footprints_positive(self, vanilla_workloads):
        for workload in vanilla_workloads:
            assert workload.input_bytes > 0
            assert workload.weight_bytes > 0
            assert workload.output_bytes > 0
            assert workload.total_bytes == workload.input_bytes + workload.weight_bytes + workload.output_bytes

    def test_arithmetic_intensity_positive(self, vanilla_workloads):
        assert all(w.arithmetic_intensity > 0 for w in vanilla_workloads)

    def test_accepts_spec_dicts_and_objects(self):
        net = resnet14(in_channels=2, input_size=28, base_width=4)
        from_net = extract_workload(net)
        from_specs = extract_workload(net.layer_specs())
        assert len(from_net) == len(from_specs)
        assert total_macs(from_net) == total_macs(from_specs)

    def test_unknown_layer_type_raises(self):
        with pytest.raises(ValueError):
            extract_workload([{"name": "x", "type": "attention"}])

    def test_totals(self, vanilla_workloads):
        assert total_macs(vanilla_workloads) == sum(w.macs for w in vanilla_workloads)
        assert total_weight_bytes(vanilla_workloads) == sum(w.weight_bytes for w in vanilla_workloads)

    def test_depthwise_groups_reduce_macs(self):
        dense = extract_workload([
            {"name": "a", "type": "conv", "in_channels": 8, "out_channels": 8, "kernel_size": 3,
             "stride": 1, "input_size": 10, "output_size": 10, "groups": 1}
        ])[0]
        depthwise = extract_workload([
            {"name": "b", "type": "conv", "in_channels": 8, "out_channels": 8, "kernel_size": 3,
             "stride": 1, "input_size": 10, "output_size": 10, "groups": 8}
        ])[0]
        assert depthwise.macs == dense.macs // 8


class TestChunkConfig:
    def test_num_pes(self):
        chunk = ChunkConfig(pe_rows=8, pe_cols=16)
        assert chunk.num_pes == 128

    def test_buffer_partitions(self):
        chunk = ChunkConfig(buffer_kb=100, input_buffer_fraction=0.25, weight_buffer_fraction=0.5,
                            output_buffer_fraction=0.25)
        assert chunk.input_buffer_kb == pytest.approx(25)
        assert chunk.weight_buffer_kb == pytest.approx(50)
        assert chunk.output_buffer_kb == pytest.approx(25)

    def test_from_choices(self):
        chunk = ChunkConfig.from_choices(
            pe_array=(8, 16), noc="systolic", dataflow="row_stationary", buffer_kb=128,
            buffer_split=(0.3, 0.4, 0.3), tile_oc=8, tile_ic=16, tile_spatial=4,
            loop_order=("ic", "oc", "sp"),
        )
        assert chunk.pe_rows == 8 and chunk.pe_cols == 16
        assert chunk.dataflow == "row_stationary"
        assert chunk.loop_order == ("ic", "oc", "sp")


class TestAcceleratorConfig:
    def test_layer_to_chunk_mapping(self):
        config = AcceleratorConfig(chunks=[ChunkConfig(), ChunkConfig()], layer_assignment=[0, 1, 1, 0])
        assert config.chunk_of_layer(0) == 0
        assert config.chunk_of_layer(2) == 1
        assert config.layers_of_chunk(1) == [1, 2]

    def test_empty_assignment_defaults_to_chunk_zero(self):
        config = AcceleratorConfig(chunks=[ChunkConfig()])
        assert config.chunk_of_layer(5) == 0

    def test_describe_mentions_chunks(self):
        config = AcceleratorConfig(chunks=[ChunkConfig(), ChunkConfig()], layer_assignment=[0, 1])
        text = config.describe()
        assert "2 chunk" in text
        assert "dataflow" in text


class TestDesignSpace:
    def test_space_exceeds_paper_claim(self):
        space = AcceleratorDesignSpace(num_layers=16, max_chunks=4)
        assert space.space_size() > 10 ** 27

    def test_dimension_count(self):
        space = AcceleratorDesignSpace(num_layers=5, max_chunks=4)
        # 1 (num_chunks) + 4 chunks * 9 params + 5 layer assignments.
        assert space.num_dimensions() == 1 + 36 + 5

    def test_invalid_num_layers(self):
        with pytest.raises(ValueError):
            AcceleratorDesignSpace(num_layers=0)

    def test_decode_roundtrip_valid(self, rng):
        space = AcceleratorDesignSpace(num_layers=6, max_chunks=3)
        indices = space.sample_indices(rng)
        config = space.decode(indices)
        assert 1 <= config.num_chunks <= 3
        assert len(config.layer_assignment) == 6
        assert all(0 <= c < config.num_chunks for c in config.layer_assignment)

    def test_default_indices_decode(self):
        space = AcceleratorDesignSpace(num_layers=4)
        config = space.decode(space.default_indices())
        assert isinstance(config, AcceleratorConfig)

    def test_random_config_respects_seed(self):
        space = AcceleratorDesignSpace(num_layers=4)
        a = space.random_config(np.random.default_rng(3))
        b = space.random_config(np.random.default_rng(3))
        assert a.layer_assignment == b.layer_assignment
        assert a.num_chunks == b.num_chunks

    def test_uniform_logits_cover_every_dimension(self):
        space = AcceleratorDesignSpace(num_layers=3)
        logits = space.encode_uniform_logits()
        assert set(logits) == {name for name, _ in space.dimensions()}
        sizes = space.dimension_sizes()
        assert all(len(logits[name]) == size for (name, _), size in zip(space.dimensions(), sizes))
