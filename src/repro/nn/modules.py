"""Module system (layers, containers) built on the autograd :class:`Tensor`.

This mirrors the subset of ``torch.nn`` that the A3C-S agents, supernets and
teachers need: parameter registration, train/eval modes, state-dict
(de)serialisation, and the standard layer zoo (Linear, Conv2d, BatchNorm2d,
activations, pooling, Sequential).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from . import functional as F
from . import init
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "ModuleList",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "Flatten",
    "Identity",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Dropout",
]

#: Serialises :meth:`Parameter.cast` refreshes (hits take no lock).
_CAST_LOCK = threading.Lock()


class Parameter(Tensor):
    """A :class:`Tensor` that is registered as a learnable parameter.

    Parameters additionally carry a monotonically increasing :attr:`version`
    counter used by the compiled runtime's caches (the :meth:`cast` mirrors,
    folded conv-BN weights) to detect live updates without comparing array
    contents.  Any assignment to :attr:`data` — including augmented
    assignments like ``param.data -= update``, which is how the optimisers
    write back — bumps the version automatically.  Code that mutates the
    array *through* the reference (``param.data[...] = value``) must call
    :meth:`bump_version` afterwards; :meth:`Module.load_state_dict` does.
    """

    __slots__ = ("_version", "_casts")

    def __init__(self, data):
        self._version = 0
        #: ``{dtype: [mirror, version it holds]}`` (see :meth:`cast`).
        self._casts = {}
        super().__init__(data, requires_grad=True)

    @property
    def data(self):
        return Tensor.data.__get__(self, Parameter)

    @data.setter
    def data(self, value):
        Tensor.data.__set__(self, value)
        self._version += 1

    @property
    def version(self):
        """Counter incremented on every (sanctioned) mutation of ``data``."""
        return self._version

    def bump_version(self):
        """Mark ``data`` as mutated in place (invalidates runtime caches)."""
        self._version += 1

    def cast(self, dtype):
        """``data`` in ``dtype``, for the compiled runtime's plans to read.

        Returns ``data`` itself when the dtype already matches.  Otherwise it
        returns this parameter's one mirror for ``dtype``, shared by every
        plan that reads the parameter, and re-copies ``data`` into it only
        when :attr:`version` has moved since the last copy.  The mirror keeps
        its identity across refreshes (bound native operands stay valid) and
        is never part of :meth:`Module.state_dict`.

        A serving thread may read the mirror while the training thread
        refreshes it.  So the version is read before ``data`` (a concurrent
        update then only causes one more copy), the refresh runs under a
        lock, and the version is recorded only after the copy.
        """
        version = self._version
        data = self.data
        if data.dtype == dtype:
            return data
        entry = self._casts.get(dtype)
        if entry is not None and entry[1] == version:
            return entry[0]
        with _CAST_LOCK:
            version = self._version
            data = self.data
            entry = self._casts.get(dtype)
            if entry is None or entry[0].shape != data.shape:
                entry = self._casts[dtype] = [np.empty(data.shape, dtype), None]
            elif entry[1] == version:
                return entry[0]
            np.copyto(entry[0], data)
            entry[1] = version
            return entry[0]


class Module:
    """Base class for all neural-network modules.

    Sub-modules and parameters assigned as attributes are registered
    automatically, enabling :meth:`parameters`, :meth:`state_dict` and
    recursive train/eval switching.
    """

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------ #
    # Registration
    # ------------------------------------------------------------------ #
    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        """Register a non-learnable persistent array (e.g. BN running stats)."""
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix=""):
        """Yield ``(name, Parameter)`` pairs recursively."""
        for name, param in self._parameters.items():
            yield prefix + name, param
        for mod_name, module in self._modules.items():
            yield from module.named_parameters(prefix + mod_name + ".")

    def parameters(self):
        """Return the list of all parameters in this module tree."""
        return [p for _, p in self.named_parameters()]

    def named_modules(self, prefix=""):
        """Yield ``(name, Module)`` pairs recursively, including self."""
        yield prefix.rstrip("."), self
        for mod_name, module in self._modules.items():
            yield from module.named_modules(prefix + mod_name + ".")

    def modules(self):
        """Return all modules in the tree (including self)."""
        return [m for _, m in self.named_modules()]

    def named_buffers(self, prefix=""):
        """Yield ``(name, ndarray)`` buffer pairs recursively."""
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for mod_name, module in self._modules.items():
            yield from module.named_buffers(prefix + mod_name + ".")

    def num_parameters(self):
        """Total number of scalar parameters."""
        return int(sum(p.data.size for p in self.parameters()))

    # ------------------------------------------------------------------ #
    # Modes
    # ------------------------------------------------------------------ #
    def train(self, mode=True):
        """Switch the module (and children) to training mode."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            module.train(mode)
        return self

    def eval(self):
        """Switch the module (and children) to evaluation mode."""
        return self.train(False)

    def zero_grad(self):
        """Clear gradients on every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------ #
    # State dict
    # ------------------------------------------------------------------ #
    def state_dict(self):
        """Return a flat ``{name: ndarray}`` snapshot of parameters and buffers."""
        state = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buf in self.named_buffers():
            state["buffer." + name] = np.asarray(buf).copy()
        return state

    def load_state_dict(self, state):
        """Load a snapshot produced by :meth:`state_dict` (in place)."""
        params = dict(self.named_parameters())
        buffers = dict(self.named_buffers())
        buffers_loaded = False
        for name, value in state.items():
            if name.startswith("buffer."):
                buf_name = name[len("buffer."):]
                if buf_name in buffers:
                    buffers[buf_name][...] = value
                    buffers_loaded = True
            elif name in params:
                if params[name].data.shape != value.shape:
                    raise ValueError(
                        "shape mismatch for parameter {}: {} vs {}".format(
                            name, params[name].data.shape, value.shape
                        )
                    )
                params[name].data[...] = value
                params[name].bump_version()
        if buffers_loaded:
            for _, module in self.named_modules():
                bump = getattr(module, "bump_stats_version", None)
                if bump is not None:
                    bump()
        return self

    def copy_weights_from(self, other):
        """Copy parameters from another module with the same structure."""
        self.load_state_dict(other.state_dict())
        return self

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """Run sub-modules in order, feeding each one the previous output."""

    def __init__(self, *layers):
        super().__init__()
        self._layers = []
        for i, layer in enumerate(layers):
            setattr(self, "layer{}".format(i), layer)
            self._layers.append(layer)

    def __iter__(self):
        return iter(self._layers)

    def __len__(self):
        return len(self._layers)

    def __getitem__(self, index):
        return self._layers[index]

    def append(self, layer):
        """Append a layer to the sequence."""
        setattr(self, "layer{}".format(len(self._layers)), layer)
        self._layers.append(layer)
        return self

    def forward(self, x):
        for layer in self._layers:
            x = layer(x)
        return x


class ModuleList(Module):
    """A list container whose elements are registered sub-modules."""

    def __init__(self, modules=()):
        super().__init__()
        self._items = []
        for module in modules:
            self.append(module)

    def append(self, module):
        """Append and register a module."""
        setattr(self, "item{}".format(len(self._items)), module)
        self._items.append(module)
        return self

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __getitem__(self, index):
        return self._items[index]

    def forward(self, *args, **kwargs):  # pragma: no cover - containers are not called
        raise RuntimeError("ModuleList is a container and cannot be called directly")


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features, out_features, bias=True, rng=None, init_scheme="kaiming"):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        if init_scheme == "orthogonal":
            weight = init.orthogonal((out_features, in_features), rng)
        elif init_scheme == "xavier":
            weight = init.xavier_uniform((out_features, in_features), rng)
        else:
            weight = init.kaiming_uniform((out_features, in_features), rng)
        self.weight = Parameter(weight)
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x):
        return F.linear(x, self.weight, self.bias)

    def __repr__(self):
        return "Linear({}, {})".format(self.in_features, self.out_features)


class Conv2d(Module):
    """2-D convolution layer with optional groups (depthwise supported)."""

    def __init__(
        self,
        in_channels,
        out_channels,
        kernel_size,
        stride=1,
        padding=0,
        groups=1,
        bias=True,
        rng=None,
    ):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(init.kaiming_uniform(shape, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x):
        return F.conv2d(
            x, self.weight, self.bias, stride=self.stride, padding=self.padding, groups=self.groups
        )

    def output_spatial(self, size):
        """Spatial output size for an input of spatial ``size``."""
        return F.conv_output_size(size, self.kernel_size, self.stride, self.padding)

    def __repr__(self):
        return "Conv2d({}, {}, k={}, s={}, p={}, g={})".format(
            self.in_channels,
            self.out_channels,
            self.kernel_size,
            self.stride,
            self.padding,
            self.groups,
        )


class BatchNorm2d(Module):
    """Batch normalisation for NCHW feature maps with running statistics.

    The running buffers carry a :attr:`stats_version` counter (mirroring
    :attr:`Parameter.version`) bumped by every sanctioned in-place update —
    train-mode forwards and ``load_state_dict`` — so the runtime's folded
    conv-BN weights can validate against an integer instead of comparing
    buffer contents per run.
    """

    def __init__(self, num_features, momentum=0.1, eps=1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))
        self.stats_version = 0

    def bump_stats_version(self):
        """Mark the running buffers as mutated in place."""
        self.stats_version += 1

    def forward(self, x):
        if self.training:
            self.bump_stats_version()
        return F.batch_norm2d(
            x,
            self.gamma,
            self.beta,
            self.running_mean,
            self.running_var,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def __repr__(self):
        return "BatchNorm2d({})".format(self.num_features)


class ReLU(Module):
    """Elementwise ReLU layer."""

    def forward(self, x):
        return F.relu(x)


class LeakyReLU(Module):
    """Elementwise leaky ReLU layer."""

    def __init__(self, negative_slope=0.01):
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x):
        return F.leaky_relu(x, self.negative_slope)


class Tanh(Module):
    """Elementwise tanh layer."""

    def forward(self, x):
        return F.tanh(x)


class Sigmoid(Module):
    """Elementwise sigmoid layer."""

    def forward(self, x):
        return F.sigmoid(x)


class Flatten(Module):
    """Flatten all non-batch dimensions."""

    def forward(self, x):
        return x.flatten(start_dim=1)


class Identity(Module):
    """Pass-through layer (used by skip-connection operator candidates)."""

    def forward(self, x):
        return x


class MaxPool2d(Module):
    """Max pooling layer."""

    def __init__(self, kernel_size=2, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x):
        return F.max_pool2d(x, self.kernel_size, self.stride)


class AvgPool2d(Module):
    """Average pooling layer."""

    def __init__(self, kernel_size=2, stride=None):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size

    def forward(self, x):
        return F.avg_pool2d(x, self.kernel_size, self.stride)


class GlobalAvgPool2d(Module):
    """Global average pooling producing ``(N, C)`` features."""

    def forward(self, x):
        return F.global_avg_pool2d(x)


class Dropout(Module):
    """Inverted dropout layer (identity in eval mode)."""

    def __init__(self, p=0.5, rng=None):
        super().__init__()
        self.p = p
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def forward(self, x):
        return F.dropout(x, self.p, training=self.training, rng=self._rng)
