"""Optimisers and learning-rate schedules.

The paper trains DRL agents with RMSProp (initial LR 1e-3, constant for the
first third of training then linearly decayed to 1e-4) and updates the
architecture parameters alpha with Adam (LR 1e-3).  Both optimisers, plus
plain SGD with momentum and the linear-decay schedule, are implemented here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Optimizer",
    "SGD",
    "RMSProp",
    "Adam",
    "LinearDecaySchedule",
    "ConstantSchedule",
    "StepDecaySchedule",
    "clip_grad_norm",
]


def clip_grad_norm(parameters, max_norm):
    """Clip the global L2 norm of gradients in place.

    Returns the pre-clipping norm so callers can log it; gradient clipping is
    a standard stabiliser for A2C-style training.
    """
    grads = [p.grad for p in parameters if p.grad is not None]
    if not grads:
        return 0.0
    total = float(np.sqrt(sum(float((g ** 2).sum()) for g in grads)))
    if max_norm is not None and total > max_norm and total > 0.0:
        scale = max_norm / (total + 1e-12)
        for param in parameters:
            if param.grad is not None:
                param.grad = param.grad * scale
    return total


class Optimizer:
    """Base optimiser: holds parameters and per-parameter state.

    Two update entry points share the same state and can be interleaved:

    * :meth:`step` — the eager path, reading ``param.grad`` tensors filled by
      the autograd tape;
    * :meth:`apply_gradients` — the fused path used by the compiled training
      runtime: takes raw gradient arrays (the plan's pre-allocated buffers),
      applies global-norm clipping in place, and updates parameters through a
      single reusable scratch buffer instead of materialising intermediate
      tensors.
    """

    def __init__(self, parameters, lr):
        self.parameters = list(parameters)
        self.lr = float(lr)
        self.steps = 0
        self._scratch_buf = None

    def zero_grad(self):
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self):
        """Apply one update using the accumulated gradients."""
        raise NotImplementedError

    def set_lr(self, lr):
        """Update the learning rate (used by schedules)."""
        self.lr = float(lr)

    # ------------------------------------------------------------------ #
    # Fused in-place update path (compiled training runtime)
    # ------------------------------------------------------------------ #
    def apply_gradients(self, grads, max_norm=None, skip_nonfinite=False):
        """Clip and apply raw gradient arrays in one fused, in-place pass.

        Parameters
        ----------
        grads:
            Gradient arrays aligned with :attr:`parameters`; ``None`` entries
            are skipped (parameters untouched by the compiled plan, exactly
            like ``param.grad is None`` on the eager path).  The arrays are
            mutated in place by clipping — they are plan-owned buffers that
            get re-zeroed before the next backward.
        max_norm:
            Optional global L2-norm bound (the trainers' grad clipping).
        skip_nonfinite:
            When True and the global norm is NaN/Inf, return without clipping
            or applying anything — parameters and optimiser state are left
            untouched.  The check costs nothing extra: any non-finite grad
            entry propagates into the norm already computed for logging.
            (The check must precede clipping: an Inf norm would otherwise
            scale every grad to ~0 and "apply" a silent no-op-ish update.)

        Returns
        -------
        The pre-clipping global gradient norm, for logging.  Callers using
        ``skip_nonfinite`` detect a skipped update by the norm being
        non-finite.
        """
        grads = list(grads)
        if len(grads) != len(self.parameters):
            raise ValueError(
                "expected {} gradient arrays, got {}".format(len(self.parameters), len(grads))
            )
        total = float(np.sqrt(sum(float(np.vdot(g, g)) for g in grads if g is not None)))
        if skip_nonfinite and not np.isfinite(total):
            return total
        if max_norm is not None and total > max_norm and total > 0.0:
            scale = max_norm / (total + 1e-12)
            for grad in grads:
                if grad is not None:
                    grad *= scale
        self._apply(grads)
        return total

    def _apply(self, grads):
        """Subclass hook: consume aligned gradient arrays in place."""
        raise NotImplementedError

    def _scratch(self, shape):
        """A float64 scratch view of ``shape`` (one buffer reused across params)."""
        size = int(np.prod(shape))
        if self._scratch_buf is None or self._scratch_buf.size < size:
            self._scratch_buf = np.empty(size, dtype=np.float64)
        return self._scratch_buf[:size].reshape(shape)

    # ------------------------------------------------------------------ #
    # Checkpointing
    # ------------------------------------------------------------------ #
    def _state_buffers(self):
        """Subclass hook: the per-parameter state arrays, in a fixed order."""
        return []

    def state_dict(self):
        """Snapshot of learning rate, step count, and per-parameter state."""
        state = {"lr": np.float64(self.lr), "steps": np.int64(self.steps)}
        for i, buf in enumerate(self._state_buffers()):
            state["state{}".format(i)] = buf.copy()
        return state

    def load_state_dict(self, state):
        """Restore a snapshot produced by :meth:`state_dict` (in place).

        Raises ``KeyError`` on missing state entries (and the usual NumPy
        shape error on mismatched buffers): a half-restored optimiser would
        train subtly wrong, so mismatches fail loudly.
        """
        self.lr = float(state["lr"])
        self.steps = int(state["steps"])
        for i, buf in enumerate(self._state_buffers()):
            key = "state{}".format(i)
            if key not in state:
                raise KeyError(
                    "optimizer checkpoint is missing {!r}: state was saved from a "
                    "different optimizer configuration".format(key)
                )
            buf[...] = state[key]
        return self


class SGD(Optimizer):
    """Stochastic gradient descent with optional momentum and weight decay."""

    def __init__(self, parameters, lr=0.01, momentum=0.0, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self.steps += 1
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                update = velocity
            else:
                update = grad
            param.data -= self.lr * update

    def _apply(self, grads):
        self.steps += 1
        for param, velocity, grad in zip(self.parameters, self._velocity, grads):
            if grad is None:
                continue
            ws = self._scratch(param.data.shape)
            np.multiply(grad, 1.0, out=ws)
            if self.weight_decay:
                ws += self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += ws
                np.multiply(velocity, self.lr, out=ws)
            else:
                ws *= self.lr
            param.data -= ws

    def _state_buffers(self):
        return list(self._velocity)


class RMSProp(Optimizer):
    """RMSProp as used by the Nature DQN / A3C line of work.

    Uses the "centered=False" variant with a shared epsilon, matching the
    optimiser the paper inherits from [1] (Mnih et al.).
    """

    def __init__(self, parameters, lr=1e-3, alpha=0.99, eps=1e-5, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.alpha = alpha
        self.eps = eps
        self.weight_decay = weight_decay
        self._square_avg = [np.zeros_like(p.data) for p in self.parameters]

    def step(self):
        self.steps += 1
        for param, square_avg in zip(self.parameters, self._square_avg):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            square_avg *= self.alpha
            square_avg += (1.0 - self.alpha) * grad * grad
            param.data -= self.lr * grad / (np.sqrt(square_avg) + self.eps)

    def _apply(self, grads):
        """Fused in-place RMSProp: one scratch buffer, zero intermediate tensors."""
        self.steps += 1
        for param, square_avg, grad in zip(self.parameters, self._square_avg, grads):
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            ws = self._scratch(param.data.shape)
            np.multiply(grad, grad, out=ws)
            ws *= 1.0 - self.alpha
            square_avg *= self.alpha
            square_avg += ws
            np.sqrt(square_avg, out=ws)
            ws += self.eps
            np.divide(grad, ws, out=ws)
            ws *= self.lr
            param.data -= ws

    def _state_buffers(self):
        return list(self._square_avg)


class Adam(Optimizer):
    """Adam optimiser; used for the architecture parameters alpha (Sec. V-A).

    The moments live in two flat buffers (``_m``/``_v`` are per-parameter
    views, the checkpoint layout), so :meth:`step` is one elementwise pass.
    """

    def __init__(self, parameters, lr=1e-3, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._offsets = np.cumsum([0] + [p.data.size for p in self.parameters])
        dtype = np.result_type(*[p.data for p in self.parameters]) if self.parameters else None
        self._flat_m, self._flat_v = (np.zeros(self._offsets[-1], dtype) for _ in range(2))
        self._m, self._v = (
            [flat[a:b].reshape(p.data.shape)
             for p, a, b in zip(self.parameters, self._offsets, self._offsets[1:])]
            for flat in (self._flat_m, self._flat_v))

    def step(self):
        self.steps += 1
        bias1 = 1.0 - self.beta1 ** self.steps
        bias2 = 1.0 - self.beta2 ** self.steps
        live = [i for i, param in enumerate(self.parameters) if param.grad is not None]
        if not live:
            return
        # The live parameters' segments of the flat buffers (all of them: a view).
        at = slice(None) if len(live) == len(self.parameters) else np.concatenate(
            [np.arange(self._offsets[i], self._offsets[i + 1]) for i in live])
        grad = np.concatenate([np.ravel(self.parameters[i].grad) for i in live])
        if self.weight_decay:
            data = np.concatenate([np.ravel(self.parameters[i].data) for i in live])
            grad = grad + self.weight_decay * data
        m, v = self._flat_m[at], self._flat_v[at]
        m *= self.beta1
        m += (1.0 - self.beta1) * grad
        v *= self.beta2
        v += (1.0 - self.beta2) * grad * grad
        self._flat_m[at], self._flat_v[at] = m, v
        update = self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)
        start = 0
        for i in live:
            param = self.parameters[i]
            param.data -= update[start:start + param.data.size].reshape(param.data.shape)
            start += param.data.size

    def _apply(self, grads):
        self.steps += 1
        bias1 = 1.0 - self.beta1 ** self.steps
        bias2 = 1.0 - self.beta2 ** self.steps
        for param, m, v, grad in zip(self.parameters, self._m, self._v, grads):
            if grad is None:
                continue
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            ws = self._scratch(param.data.shape)
            np.multiply(grad, grad, out=ws)
            ws *= 1.0 - self.beta2
            v *= self.beta2
            v += ws
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            np.divide(v, bias2, out=ws)
            np.sqrt(ws, out=ws)
            ws += self.eps
            np.divide(m, ws, out=ws)
            ws *= self.lr / bias1
            param.data -= ws

    def _state_buffers(self):
        return list(self._m) + list(self._v)


class ConstantSchedule:
    """A learning-rate schedule that never changes."""

    def __init__(self, lr):
        self.lr = float(lr)

    def value(self, step):
        """Learning rate at ``step``."""
        return self.lr


class LinearDecaySchedule:
    """Paper schedule: constant LR until ``hold_steps`` then linear decay.

    The paper keeps 1e-3 for the first 1e7 steps of a 3e7-step run, then
    decays linearly to 1e-4 by the final step.
    """

    def __init__(self, initial_lr=1e-3, final_lr=1e-4, hold_steps=int(1e7), total_steps=int(3e7)):
        if total_steps <= hold_steps:
            raise ValueError("total_steps must exceed hold_steps")
        self.initial_lr = float(initial_lr)
        self.final_lr = float(final_lr)
        self.hold_steps = int(hold_steps)
        self.total_steps = int(total_steps)

    def value(self, step):
        """Learning rate at environment step ``step``."""
        if step <= self.hold_steps:
            return self.initial_lr
        fraction = min(1.0, (step - self.hold_steps) / (self.total_steps - self.hold_steps))
        return self.initial_lr + fraction * (self.final_lr - self.initial_lr)

    def apply(self, optimizer, step):
        """Set the optimiser learning rate for the given step and return it."""
        lr = self.value(step)
        optimizer.set_lr(lr)
        return lr


class StepDecaySchedule:
    """Multiply the learning rate by ``gamma`` every ``step_size`` steps."""

    def __init__(self, initial_lr, step_size, gamma=0.5, min_lr=0.0):
        self.initial_lr = float(initial_lr)
        self.step_size = int(step_size)
        self.gamma = float(gamma)
        self.min_lr = float(min_lr)

    def value(self, step):
        """Learning rate at ``step``."""
        decays = step // self.step_size
        return max(self.min_lr, self.initial_lr * (self.gamma ** decays))

    def apply(self, optimizer, step):
        """Set the optimiser learning rate for the given step and return it."""
        lr = self.value(step)
        optimizer.set_lr(lr)
        return lr
