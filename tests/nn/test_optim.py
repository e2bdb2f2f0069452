"""Optimiser and learning-rate-schedule tests."""

import numpy as np
import pytest

from repro.nn import (
    Adam,
    ConstantSchedule,
    LinearDecaySchedule,
    Parameter,
    RMSProp,
    SGD,
    StepDecaySchedule,
    Tensor,
    clip_grad_norm,
)


def quadratic_loss(param, target):
    diff = param - Tensor(target)
    return (diff * diff).sum()


def run_optimizer(optimizer_cls, steps=300, **kwargs):
    """Minimise ||x - target||^2 and return the final distance."""
    target = np.array([1.0, -2.0, 3.0])
    param = Parameter(np.zeros(3))
    optimizer = optimizer_cls([param], **kwargs)
    for _ in range(steps):
        optimizer.zero_grad()
        loss = quadratic_loss(param, target)
        loss.backward()
        optimizer.step()
    return float(np.abs(param.data - target).max())


class TestOptimizers:
    def test_sgd_converges(self):
        assert run_optimizer(SGD, lr=0.1) < 1e-3

    def test_sgd_momentum_converges(self):
        assert run_optimizer(SGD, lr=0.05, momentum=0.9) < 1e-3

    def test_rmsprop_converges(self):
        assert run_optimizer(RMSProp, lr=0.05) < 1e-2

    def test_adam_converges(self):
        assert run_optimizer(Adam, lr=0.1) < 1e-3

    def test_adam_bias_correction_first_step(self):
        param = Parameter(np.array([1.0]))
        optimizer = Adam([param], lr=0.1)
        optimizer.zero_grad()
        quadratic_loss(param, np.array([0.0])).backward()
        optimizer.step()
        # With bias correction the very first step is ~lr in magnitude.
        assert param.data[0] == pytest.approx(0.9, abs=1e-6)

    def test_weight_decay_shrinks_parameters(self):
        param = Parameter(np.array([5.0]))
        optimizer = SGD([param], lr=0.1, weight_decay=0.5)
        optimizer.zero_grad()
        # Zero task gradient: only decay acts.
        param.grad = np.zeros(1)
        optimizer.step()
        assert param.data[0] < 5.0

    def test_skips_parameters_without_grad(self):
        param = Parameter(np.array([1.0]))
        other = Parameter(np.array([2.0]))
        optimizer = SGD([param, other], lr=0.1)
        param.grad = np.array([1.0])
        optimizer.step()
        assert other.data[0] == 2.0

    def test_set_lr(self):
        param = Parameter(np.array([1.0]))
        optimizer = SGD([param], lr=0.1)
        optimizer.set_lr(0.5)
        assert optimizer.lr == 0.5

    def test_zero_grad_clears(self):
        param = Parameter(np.array([1.0]))
        optimizer = SGD([param], lr=0.1)
        param.grad = np.array([3.0])
        optimizer.zero_grad()
        assert param.grad is None


class TestGradClipping:
    def test_norm_reported(self):
        param = Parameter(np.array([1.0]))
        param.grad = np.array([3.0, 4.0][:1]) * 0 + 3.0
        norm = clip_grad_norm([param], max_norm=None)
        assert norm == pytest.approx(3.0)

    def test_clipping_rescales(self):
        a = Parameter(np.zeros(2))
        a.grad = np.array([3.0, 4.0])
        norm = clip_grad_norm([a], max_norm=1.0)
        assert norm == pytest.approx(5.0)
        assert np.linalg.norm(a.grad) == pytest.approx(1.0, rel=1e-6)

    def test_no_clipping_below_threshold(self):
        a = Parameter(np.zeros(2))
        a.grad = np.array([0.3, 0.4])
        clip_grad_norm([a], max_norm=1.0)
        np.testing.assert_allclose(a.grad, [0.3, 0.4])

    def test_empty_gradients(self):
        a = Parameter(np.zeros(2))
        assert clip_grad_norm([a], max_norm=1.0) == 0.0


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(1e-3)
        assert schedule.value(0) == schedule.value(10 ** 9) == 1e-3

    def test_linear_decay_holds_then_decays(self):
        schedule = LinearDecaySchedule(initial_lr=1e-3, final_lr=1e-4, hold_steps=100, total_steps=400)
        assert schedule.value(50) == 1e-3
        assert schedule.value(100) == 1e-3
        mid = schedule.value(250)
        assert 1e-4 < mid < 1e-3
        assert schedule.value(400) == pytest.approx(1e-4)
        assert schedule.value(10 ** 6) == pytest.approx(1e-4)

    def test_linear_decay_paper_defaults(self):
        schedule = LinearDecaySchedule()
        assert schedule.value(int(1e7)) == pytest.approx(1e-3)
        assert schedule.value(int(3e7)) == pytest.approx(1e-4)

    def test_linear_decay_invalid_config(self):
        with pytest.raises(ValueError):
            LinearDecaySchedule(hold_steps=100, total_steps=100)

    def test_linear_decay_apply_sets_lr(self):
        param = Parameter(np.array([1.0]))
        optimizer = SGD([param], lr=1e-3)
        schedule = LinearDecaySchedule(hold_steps=10, total_steps=20)
        lr = schedule.apply(optimizer, 20)
        assert optimizer.lr == lr == pytest.approx(1e-4)

    def test_step_decay(self):
        schedule = StepDecaySchedule(initial_lr=1.0, step_size=10, gamma=0.5, min_lr=0.2)
        assert schedule.value(0) == 1.0
        assert schedule.value(10) == 0.5
        assert schedule.value(25) == 0.25
        assert schedule.value(1000) == 0.2


class TestFusedApplyGradients:
    """apply_gradients (compiled runtime path) must match zero_grad+step."""

    @pytest.mark.parametrize("optimizer_cls,kwargs", [
        (SGD, {"lr": 0.05, "momentum": 0.9}),
        (RMSProp, {"lr": 1e-3}),
        (Adam, {"lr": 1e-3}),
    ])
    def test_matches_eager_step(self, optimizer_cls, kwargs):
        rng = np.random.default_rng(0)
        shapes = [(4, 3), (3,), (2, 2, 2)]

        def build():
            params = [Parameter(rng_init.standard_normal(s)) for s in shapes]
            return params, optimizer_cls(params, **kwargs)

        rng_init = np.random.default_rng(1)
        eager_params, eager_opt = build()
        rng_init = np.random.default_rng(1)
        fused_params, fused_opt = build()

        for _ in range(5):
            grads = [rng.standard_normal(s) for s in shapes]
            for param, grad in zip(eager_params, grads):
                param.grad = grad.copy()
            eager_opt.step()
            fused_opt.apply_gradients([g.copy() for g in grads])
            for eager, fused in zip(eager_params, fused_params):
                np.testing.assert_allclose(fused.data, eager.data, atol=1e-12)

    def test_clipping_matches_clip_grad_norm(self):
        rng = np.random.default_rng(2)
        shapes = [(5,), (3, 3)]
        grads = [rng.standard_normal(s) * 10.0 for s in shapes]

        params = [Parameter(np.zeros(s)) for s in shapes]
        for param, grad in zip(params, grads):
            param.grad = grad.copy()
        expected_norm = clip_grad_norm(params, 0.5)
        eager_opt = RMSProp(params, lr=1e-3)
        eager_opt.step()

        fused_params = [Parameter(np.zeros(s)) for s in shapes]
        fused_opt = RMSProp(fused_params, lr=1e-3)
        norm = fused_opt.apply_gradients([g.copy() for g in grads], max_norm=0.5)
        assert abs(norm - expected_norm) <= 1e-9
        for eager, fused in zip(params, fused_params):
            np.testing.assert_allclose(fused.data, eager.data, atol=1e-12)

    def test_none_gradients_skip_parameters(self):
        params = [Parameter(np.ones(3)), Parameter(np.ones(2))]
        optimizer = RMSProp(params, lr=0.1)
        before = params[1].data.copy()
        optimizer.apply_gradients([np.ones(3), None])
        assert not np.allclose(params[0].data, 1.0)
        np.testing.assert_array_equal(params[1].data, before)

    def test_mismatched_length_rejected(self):
        optimizer = RMSProp([Parameter(np.ones(2))], lr=0.1)
        with pytest.raises(ValueError):
            optimizer.apply_gradients([])


class TestOptimizerStateDict:
    @pytest.mark.parametrize("optimizer_cls", [SGD, RMSProp, Adam])
    def test_round_trip_restores_state_exactly(self, optimizer_cls):
        rng = np.random.default_rng(3)
        params = [Parameter(rng.standard_normal((3, 2)))]
        optimizer = optimizer_cls(params, lr=0.01)
        for _ in range(3):
            params[0].grad = rng.standard_normal((3, 2))
            optimizer.step()
        optimizer.set_lr(0.005)
        snapshot = optimizer.state_dict()

        fresh = optimizer_cls([Parameter(params[0].data.copy())], lr=0.01)
        fresh.load_state_dict(snapshot)
        assert fresh.lr == optimizer.lr
        assert fresh.steps == optimizer.steps
        grad = rng.standard_normal((3, 2))
        params[0].grad = grad.copy()
        fresh.parameters[0].grad = grad.copy()
        optimizer.step()
        fresh.step()
        np.testing.assert_array_equal(fresh.parameters[0].data, params[0].data)


def per_parameter_adam_step(optimizer):
    """``Adam.step`` as one update per parameter: the flat pass's reference."""
    optimizer.steps += 1
    bias1 = 1.0 - optimizer.beta1 ** optimizer.steps
    bias2 = 1.0 - optimizer.beta2 ** optimizer.steps
    for param, m, v in zip(optimizer.parameters, optimizer._m, optimizer._v):
        if param.grad is None:
            continue
        grad = param.grad
        if optimizer.weight_decay:
            grad = grad + optimizer.weight_decay * param.data
        m *= optimizer.beta1
        m += (1.0 - optimizer.beta1) * grad
        v *= optimizer.beta2
        v += (1.0 - optimizer.beta2) * grad * grad
        m_hat = m / bias1
        v_hat = v / bias2
        param.data -= optimizer.lr * m_hat / (np.sqrt(v_hat) + optimizer.eps)


class TestAdamFlatStep:
    """``Adam.step`` runs one pass over flat moments with the per-parameter bytes."""

    @staticmethod
    def das():
        from repro.accelerator.das import DASConfig
        from repro.cosearch.hardware import UnitGranularityDAS, unit_of_layer_map
        from repro.networks import AgentSuperNet

        supernet = AgentSuperNet(in_channels=2, input_size=16, feature_dim=16, base_width=4,
                                 rng=np.random.default_rng(0))
        das = UnitGranularityDAS(num_units=supernet.num_cells + 2, config=DASConfig(seed=0))
        specs = supernet.layer_specs([0] * supernet.num_cells)
        return das.set_network(specs, unit_of_layer_map(specs, supernet.num_cells))

    def test_five_das_steps_match_the_per_parameter_reference(self, monkeypatch):
        flat, reference = self.das(), self.das()
        versions = [param.version for param in flat.phi.values()]
        for _ in range(5):
            flat.step()
        monkeypatch.setattr(Adam, "step", per_parameter_adam_step)
        for _ in range(5):
            reference.step()
        state = {key: np.asarray(value).tobytes() for key, value in flat.state_dict().items()}
        assert state == {key: np.asarray(value).tobytes()
                         for key, value in reference.state_dict().items()}
        assert len(flat.phi) == 51
        # Every phi vector's data was written once per step.
        assert [param.version for param in flat.phi.values()] == [v + 5 for v in versions]

    def test_skipped_parameters_and_weight_decay_match_the_reference(self, monkeypatch):
        rng = np.random.default_rng(4)
        shapes = [(3,), (2, 2), (5,), (1,)]

        def run(step):
            params = [Parameter(np.random.default_rng(1).standard_normal(s)) for s in shapes]
            optimizer = Adam(params, lr=0.01, weight_decay=0.1)
            for i in range(4):
                for j, param in enumerate(params):
                    # A parameter the loss did not reach keeps grad None.
                    param.grad = None if (i + j) % 3 == 0 else grads[i][j]
                step(optimizer)
            return [p.data.tobytes() for p in params] + [
                np.asarray(v).tobytes() for v in optimizer.state_dict().values()]

        grads = [[rng.standard_normal(s) for s in shapes] for _ in range(4)]
        assert run(Adam.step) == run(per_parameter_adam_step)
