"""Candidate-operator tests: the 9-way search space of each supernet cell."""

import pytest

from repro.networks import CANDIDATE_OPERATORS, build_operator, operator_macs, operator_params
from repro.nn import Tensor


class TestOperatorCatalogue:
    def test_nine_candidates_as_in_paper(self):
        assert len(CANDIDATE_OPERATORS) == 9

    def test_catalogue_contents(self):
        names = {spec.name for spec in CANDIDATE_OPERATORS}
        assert {"conv_k3", "conv_k5", "skip"} <= names
        assert {"ir_k3_e1", "ir_k3_e3", "ir_k3_e5", "ir_k5_e1", "ir_k5_e3", "ir_k5_e5"} <= names

    def test_search_space_is_9_to_the_12(self):
        assert len(CANDIDATE_OPERATORS) ** 12 == 9 ** 12

    def test_spec_equality_and_hash(self):
        a, b = CANDIDATE_OPERATORS[0], CANDIDATE_OPERATORS[0]
        assert a == b and hash(a) == hash(b)
        assert CANDIDATE_OPERATORS[0] != CANDIDATE_OPERATORS[1]


class TestBuildOperator:
    @pytest.mark.parametrize("spec", CANDIDATE_OPERATORS, ids=lambda s: s.name)
    def test_every_candidate_builds_and_runs(self, spec, rng):
        op = build_operator(spec, 8, 8, stride=1, rng=rng)
        out = op(Tensor(rng.standard_normal((2, 8, 7, 7))))
        assert out.shape == (2, 8, 7, 7)

    @pytest.mark.parametrize("spec", CANDIDATE_OPERATORS, ids=lambda s: s.name)
    def test_every_candidate_handles_stride_and_channel_change(self, spec, rng):
        op = build_operator(spec, 8, 16, stride=2, rng=rng)
        out = op(Tensor(rng.standard_normal((1, 8, 8, 8))))
        assert out.shape == (1, 16, 4, 4)

    def test_build_by_name(self, rng):
        op = build_operator("conv_k5", 4, 4, rng=rng)
        assert op.kernel_size == 5

    def test_unknown_kind_raises(self):
        bad = type(CANDIDATE_OPERATORS[0])("weird", "unknown_kind")
        with pytest.raises(ValueError):
            build_operator(bad, 4, 4)


class TestOperatorCosts:
    def test_skip_identity_is_free(self):
        assert operator_macs("skip", 16, 16, input_size=8, stride=1) == 0
        assert operator_params("skip", 16, 16) == 0

    def test_skip_projection_costs_when_shape_changes(self):
        assert operator_macs("skip", 16, 32, input_size=8, stride=2) > 0
        assert operator_params("skip", 16, 32) > 0

    def test_conv_k5_costs_more_than_k3(self):
        k3 = operator_macs("conv_k3", 16, 16, input_size=8)
        k5 = operator_macs("conv_k5", 16, 16, input_size=8)
        assert k5 > k3

    def test_expansion_increases_cost(self):
        e1 = operator_macs("ir_k3_e1", 16, 16, input_size=8)
        e3 = operator_macs("ir_k3_e3", 16, 16, input_size=8)
        e5 = operator_macs("ir_k3_e5", 16, 16, input_size=8)
        assert e1 < e3 < e5

    def test_inverted_residual_cheaper_than_conv_at_scale(self):
        # Depthwise factorisation should beat the dense conv for wide layers.
        conv = operator_macs("conv_k3", 64, 64, input_size=16)
        ir = operator_macs("ir_k3_e1", 64, 64, input_size=16)
        assert ir < conv

    def test_macs_match_conv_formula(self):
        macs = operator_macs("conv_k3", 8, 16, input_size=10, stride=1)
        assert macs == 10 * 10 * 16 * 8 * 9

    def test_params_formulas(self):
        assert operator_params("conv_k3", 8, 16) == 16 * 8 * 9
        assert operator_params("ir_k3_e1", 8, 8) == 8 * 9 + 8 * 8
