"""AC-distillation mechanism tests (paper Eq. 10-11, Table II strategies)."""

import numpy as np
import pytest

from repro.drl import (
    ACDistiller,
    DistillationMode,
    actor_distillation_loss,
    critic_distillation_loss,
    make_agent,
)
from repro.nn import Tensor
from repro.nn import functional as F


@pytest.fixture
def teacher(rng):
    agent = make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=1)
    agent.eval()
    return agent


@pytest.fixture
def student(rng):
    return make_agent("Vanilla", obs_size=28, frame_stack=2, feature_dim=32, seed=2)


class TestDistillationLosses:
    def test_actor_loss_zero_for_identical_policies(self, rng):
        logits = rng.standard_normal((4, 6))
        loss = actor_distillation_loss(F.softmax(Tensor(logits)), F.log_softmax(Tensor(logits)))
        assert loss.item() == pytest.approx(0.0, abs=1e-10)

    def test_actor_loss_positive_for_different_policies(self, rng):
        teacher_probs = F.softmax(Tensor(rng.standard_normal((4, 6))))
        student_log = F.log_softmax(Tensor(rng.standard_normal((4, 6))))
        assert actor_distillation_loss(teacher_probs, student_log).item() > 0

    def test_actor_loss_gradient_reaches_student_only(self, rng):
        student_logits = Tensor(rng.standard_normal((2, 6)), requires_grad=True)
        teacher_probs = Tensor(np.full((2, 6), 1 / 6))
        actor_distillation_loss(teacher_probs, F.log_softmax(student_logits)).backward()
        assert student_logits.grad is not None

    def test_critic_loss_half_mse(self):
        loss = critic_distillation_loss(Tensor(np.array([1.0, 3.0])), np.array([0.0, 1.0]))
        assert loss.item() == pytest.approx(0.5 * (1 + 4) / 2)

    def test_critic_loss_teacher_detached(self, rng):
        student_values = Tensor(rng.standard_normal(4), requires_grad=True)
        teacher_values = Tensor(rng.standard_normal(4), requires_grad=True)
        critic_distillation_loss(student_values, teacher_values).backward()
        assert student_values.grad is not None
        assert teacher_values.grad is None


class TestDistillationMode:
    def test_validation(self):
        assert DistillationMode.validate("ac") == "ac"
        with pytest.raises(ValueError):
            DistillationMode.validate("everything")

    def test_all_modes_listed(self):
        assert set(DistillationMode.ALL) == {"none", "policy", "ac"}


class TestACDistiller:
    def test_disabled_without_teacher(self):
        distiller = ACDistiller(None, mode=DistillationMode.NONE)
        assert not distiller.enabled
        assert distiller.teacher_targets(np.zeros((1, 2, 28, 28))) == (None, None)

    def test_teacher_targets_shapes(self, teacher, rng):
        distiller = ACDistiller(teacher, mode=DistillationMode.AC)
        probs, values = distiller.teacher_targets(rng.standard_normal((3, 2, 28, 28)))
        assert probs.shape == (3, 6)
        assert values.shape == (3,)

    def test_ac_mode_returns_both_losses(self, teacher, student, rng):
        distiller = ACDistiller(teacher, mode=DistillationMode.AC)
        obs = rng.standard_normal((3, 2, 28, 28))
        output = student.forward(obs)
        actor_loss, critic_loss = distiller.losses(obs, output)
        assert actor_loss is not None and critic_loss is not None
        assert actor_loss.item() >= 0

    def test_policy_only_mode_skips_critic(self, teacher, student, rng):
        distiller = ACDistiller(teacher, mode=DistillationMode.POLICY_ONLY)
        obs = rng.standard_normal((2, 2, 28, 28))
        actor_loss, critic_loss = distiller.losses(obs, student.forward(obs))
        assert actor_loss is not None
        assert critic_loss is None

    def test_losses_backpropagate_to_student(self, teacher, student, rng):
        distiller = ACDistiller(teacher, mode=DistillationMode.AC)
        obs = rng.standard_normal((2, 2, 28, 28))
        output = student.forward(obs)
        actor_loss, critic_loss = distiller.losses(obs, output)
        (actor_loss + critic_loss).backward()
        grads = [p.grad for p in student.parameters() if p.grad is not None]
        assert grads, "distillation must produce gradients for the student"
        teacher_grads = [p.grad for p in teacher.parameters() if p.grad is not None]
        assert not teacher_grads, "the teacher must stay frozen"

    def test_precomputed_targets_used(self, teacher, student, rng):
        distiller = ACDistiller(teacher, mode=DistillationMode.AC)
        obs = rng.standard_normal((2, 2, 28, 28))
        probs, values = distiller.teacher_targets(obs)
        output = student.forward(obs)
        a1, c1 = distiller.losses(obs, output, teacher_probs=probs, teacher_values=values)
        a2, c2 = distiller.losses(obs, output)
        assert a1.item() == pytest.approx(a2.item())
        assert c1.item() == pytest.approx(c2.item())

    def test_distiller_puts_teacher_in_eval_mode(self, teacher):
        teacher.train()
        ACDistiller(teacher, mode=DistillationMode.AC)
        assert not teacher.training
