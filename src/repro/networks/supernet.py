"""The A3C-S agent supernet: 12 sequential searchable cells.

Sec. V-A: "The supernet structure follows the network design (i.e., #groups
and stride) of the ResNet series with 12 sequential searchable cells", each
cell choosing among the 9 candidate operators of
:data:`repro.networks.operators.CANDIDATE_OPERATORS` -> a 9^12 search space.

The supernet itself is architecture-parameter agnostic: the forward pass is
given, per cell, a gate tensor (produced by the Gumbel machinery in
:mod:`repro.nas.gumbel`) and the list of activated paths.  Single-path
forward / multi-path backward (paper Eq. 6-7) is realised by evaluating only
the activated candidates and weighting them by the gate values, whose data is
one-hot (hard Gumbel) but whose gradient flows through the soft relaxation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn import ConvBNReLU, GlobalAvgPool2d, Linear, Module, ModuleList, ReLU, Sequential
from .operators import CANDIDATE_OPERATORS, build_operator, operator_macs, operator_params

__all__ = ["CellConfig", "SearchableCell", "AgentSuperNet", "DerivedAgentNet", "default_cell_configs"]


@dataclass(frozen=True)
class CellConfig:
    """Static shape configuration of one searchable cell."""

    index: int
    in_channels: int
    out_channels: int
    stride: int
    input_size: int

    @property
    def output_size(self):
        """Spatial output size of the cell (same for every candidate operator)."""
        return (self.input_size + self.stride - 1) // self.stride


def default_cell_configs(num_cells=12, in_channels=16, input_size=42, base_width=16, num_stages=3):
    """Build the ResNet-style stage layout for the searchable cells.

    The cells are split evenly across ``num_stages`` stages; the first cell of
    every stage after the first uses stride 2 and doubles the channel width,
    mirroring the #groups / stride design of the ResNet baselines.
    """
    if num_cells % num_stages != 0:
        raise ValueError("num_cells must be divisible by num_stages")
    per_stage = num_cells // num_stages
    configs = []
    size = input_size
    current_in = in_channels
    width = base_width
    index = 0
    for stage in range(num_stages):
        for cell in range(per_stage):
            stride = 2 if (stage > 0 and cell == 0) else 1
            configs.append(
                CellConfig(
                    index=index,
                    in_channels=current_in,
                    out_channels=width,
                    stride=stride,
                    input_size=size,
                )
            )
            size = configs[-1].output_size
            current_in = width
            index += 1
        width *= 2
    return configs


class SearchableCell(Module):
    """One searchable cell holding all candidate operators in parallel."""

    def __init__(self, config, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.config = config
        self.candidates = ModuleList(
            build_operator(spec, config.in_channels, config.out_channels, config.stride, rng=rng)
            for spec in CANDIDATE_OPERATORS
        )

    @property
    def num_choices(self):
        return len(self.candidates)

    def forward(self, x, gates, active_indices=None):
        """Weighted sum over the activated candidate operators.

        Parameters
        ----------
        x:
            Input feature map tensor.
        gates:
            Tensor of shape ``(num_choices,)``.  With hard Gumbel sampling its
            data is one-hot, so the forward value equals the single sampled
            path, while gradients w.r.t. the architecture parameters flow
            through all activated paths (multi-path backward, Eq. 7).
        active_indices:
            Which candidate operators to evaluate.  Defaults to the indices
            whose gate data is non-zero (pure single-path forward).
        """
        if active_indices is None:
            active_indices = [int(i) for i in np.flatnonzero(gates.data)]
        if not active_indices:
            raise ValueError("at least one path must be active")
        out = None
        for index in active_indices:
            branch = self.candidates[index](x) * gates[index]
            out = branch if out is None else out + branch
        return out

    def forward_single(self, x, index):
        """Evaluate exactly one candidate (used after derivation / by tests)."""
        return self.candidates[index](x)

    def candidate_macs(self):
        """MAC count of every candidate operator at this cell's shape."""
        return np.array(
            [
                operator_macs(
                    spec,
                    self.config.in_channels,
                    self.config.out_channels,
                    self.config.input_size,
                    self.config.stride,
                )
                for spec in CANDIDATE_OPERATORS
            ],
            dtype=np.float64,
        )

    def candidate_params(self):
        """Parameter count of every candidate operator at this cell's shape."""
        return np.array(
            [
                operator_params(spec, self.config.in_channels, self.config.out_channels)
                for spec in CANDIDATE_OPERATORS
            ],
            dtype=np.float64,
        )


class AgentSuperNet(Module):
    """The weight-sharing supernet over the 9^12 agent search space.

    Parameters
    ----------
    in_channels:
        Number of stacked observation frames.
    input_size:
        Observation resolution.
    feature_dim:
        Output feature dimension (256 in the paper).
    num_cells:
        Number of sequential searchable cells (12 in the paper).
    base_width:
        Channel width of the first stage.
    """

    name = "A3C-S-SuperNet"

    def __init__(self, in_channels=4, input_size=42, feature_dim=256, num_cells=12, base_width=16,
                 num_stages=3, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_channels = in_channels
        self.input_size = input_size
        self.feature_dim = feature_dim
        self.num_cells = num_cells

        self.stem = ConvBNReLU(in_channels, base_width, 3, stride=2, rng=rng)
        stem_out_size = (input_size + 1) // 2
        self.cell_configs = default_cell_configs(
            num_cells=num_cells,
            in_channels=base_width,
            input_size=stem_out_size,
            base_width=base_width,
            num_stages=num_stages,
        )
        self.cells = ModuleList(SearchableCell(cfg, rng=rng) for cfg in self.cell_configs)
        final_width = self.cell_configs[-1].out_channels
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(final_width, feature_dim, rng=rng)
        self.relu = ReLU()

    @property
    def num_choices_per_cell(self):
        return len(CANDIDATE_OPERATORS)

    def search_space_size(self):
        """Cardinality of the agent search space (9^12 in the paper)."""
        return self.num_choices_per_cell ** self.num_cells

    def forward(self, x, gates=None, active_indices=None, op_indices=None):
        """Run the supernet with per-cell gates or along a fixed path.

        Parameters
        ----------
        gates:
            A list of per-cell gate tensors (length ``num_cells``) for the
            gated (search-time) forward.
        active_indices:
            Optional list of per-cell activated-path index lists.
        op_indices:
            Alternative to ``gates``: a fixed operator index per cell, running
            the supernet as the corresponding single-path network (used for
            evaluation of the currently derived architecture).
        """
        if op_indices is not None:
            return self.forward_architecture(x, op_indices)
        if gates is None:
            raise ValueError("either gates or op_indices must be provided")
        if len(gates) != self.num_cells:
            raise ValueError("expected {} gate tensors, got {}".format(self.num_cells, len(gates)))
        x = self.stem(x)
        for i, cell in enumerate(self.cells):
            active = active_indices[i] if active_indices is not None else None
            x = cell(x, gates[i], active)
        x = self.pool(x)
        return self.relu(self.fc(x))

    def forward_architecture(self, x, op_indices):
        """Run the supernet along a fixed single path (one op index per cell)."""
        x = self.stem(x)
        for cell, index in zip(self.cells, op_indices):
            x = cell.forward_single(x, int(index))
        x = self.pool(x)
        return self.relu(self.fc(x))

    # ------------------------------------------------------------------ #
    # Cost tables used by the hardware penalty and the accelerator model
    # ------------------------------------------------------------------ #
    def candidate_macs_table(self):
        """Matrix ``(num_cells, num_choices)`` of per-candidate MAC counts."""
        return np.stack([cell.candidate_macs() for cell in self.cells])

    def candidate_params_table(self):
        """Matrix ``(num_cells, num_choices)`` of per-candidate parameter counts."""
        return np.stack([cell.candidate_params() for cell in self.cells])

    def layer_specs(self, op_indices):
        """Per-layer workload of the single-path network selected by ``op_indices``.

        The skip operator contributes no conv layer when it is a true identity.
        """
        specs = [
            {
                "name": "stem",
                "type": "conv",
                "in_channels": self.stem.conv.in_channels,
                "out_channels": self.stem.conv.out_channels,
                "kernel_size": self.stem.conv.kernel_size,
                "stride": self.stem.conv.stride,
                "input_size": self.input_size,
                "output_size": self.stem.conv.output_spatial(self.input_size),
                "groups": 1,
            }
        ]
        for cfg, op_index in zip(self.cell_configs, op_indices):
            spec = CANDIDATE_OPERATORS[int(op_index)]
            in_size = cfg.input_size
            out_size = cfg.output_size
            base = {"input_size": in_size, "output_size": out_size, "stride": cfg.stride}
            prefix = "cell{}".format(cfg.index)
            if spec.kind == "conv":
                specs.append(
                    dict(
                        base,
                        name="{}.{}".format(prefix, spec.name),
                        type="conv",
                        in_channels=cfg.in_channels,
                        out_channels=cfg.out_channels,
                        kernel_size=spec.kernel_size,
                        groups=1,
                    )
                )
            elif spec.kind == "inverted_residual":
                hidden = max(1, int(round(cfg.in_channels * spec.expansion)))
                if spec.expansion != 1:
                    specs.append(
                        dict(
                            base,
                            name="{}.expand".format(prefix),
                            type="conv",
                            in_channels=cfg.in_channels,
                            out_channels=hidden,
                            kernel_size=1,
                            stride=1,
                            output_size=in_size,
                            groups=1,
                        )
                    )
                specs.append(
                    dict(
                        base,
                        name="{}.depthwise".format(prefix),
                        type="conv",
                        in_channels=hidden,
                        out_channels=hidden,
                        kernel_size=spec.kernel_size,
                        groups=hidden,
                    )
                )
                specs.append(
                    dict(
                        base,
                        name="{}.project".format(prefix),
                        type="conv",
                        in_channels=hidden,
                        out_channels=cfg.out_channels,
                        kernel_size=1,
                        stride=1,
                        input_size=out_size,
                        output_size=out_size,
                        groups=1,
                    )
                )
            elif spec.kind == "skip":
                if cfg.stride != 1 or cfg.in_channels != cfg.out_channels:
                    specs.append(
                        dict(
                            base,
                            name="{}.skip_proj".format(prefix),
                            type="conv",
                            in_channels=cfg.in_channels,
                            out_channels=cfg.out_channels,
                            kernel_size=1,
                            groups=1,
                        )
                    )
        specs.append(
            {
                "name": "fc",
                "type": "fc",
                "in_features": self.fc.in_features,
                "out_features": self.fc.out_features,
            }
        )
        return specs

    def flops(self, op_indices):
        """Total MAC count of the single-path network selected by ``op_indices``."""
        total = 0
        for spec in self.layer_specs(op_indices):
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

    # ------------------------------------------------------------------ #
    # Derivation
    # ------------------------------------------------------------------ #
    def derive(self, op_indices, rng=None, copy_weights=True):
        """Extract the stand-alone network selected by ``op_indices``.

        When ``copy_weights`` is true the derived network inherits the
        supernet weights of the chosen candidates (weight sharing), which is
        how the final A3C-S agent is obtained at the end of the co-search.
        """
        derived = DerivedAgentNet(self, op_indices, rng=rng)
        if copy_weights:
            derived.inherit_weights(self)
        return derived


class DerivedAgentNet(Module):
    """A fixed single-path network derived from the supernet."""

    def __init__(self, supernet, op_indices, rng=None):
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.op_indices = [int(i) for i in op_indices]
        if len(self.op_indices) != supernet.num_cells:
            raise ValueError("expected {} op indices".format(supernet.num_cells))
        self.name = "A3C-S"
        self.in_channels = supernet.in_channels
        self.input_size = supernet.input_size
        self.feature_dim = supernet.feature_dim
        self._cell_configs = supernet.cell_configs
        self._supernet_base_width = supernet.stem.conv.out_channels

        self.stem = ConvBNReLU(
            supernet.in_channels, supernet.stem.conv.out_channels, 3, stride=2, rng=rng
        )
        ops = []
        for cfg, op_index in zip(supernet.cell_configs, self.op_indices):
            ops.append(
                build_operator(
                    CANDIDATE_OPERATORS[op_index], cfg.in_channels, cfg.out_channels, cfg.stride, rng=rng
                )
            )
        self.ops = Sequential(*ops)
        self.pool = GlobalAvgPool2d()
        self.fc = Linear(supernet.fc.in_features, supernet.fc.out_features, rng=rng)
        self.relu = ReLU()
        # Snapshot the workload description so the derived net is self-contained
        # (usable by the accelerator cost model without keeping the supernet alive).
        self._layer_specs = supernet.layer_specs(self.op_indices)
        self._flops = supernet.flops(self.op_indices)

    def inherit_weights(self, supernet):
        """Copy stem / chosen-candidate / head weights from the supernet."""
        self.stem.load_state_dict(supernet.stem.state_dict())
        for op, cell, index in zip(self.ops, supernet.cells, self.op_indices):
            op.load_state_dict(cell.candidates[index].state_dict())
        self.fc.load_state_dict(supernet.fc.state_dict())
        return self

    def forward(self, x):
        x = self.stem(x)
        x = self.ops(x)
        x = self.pool(x)
        return self.relu(self.fc(x))

    def layer_specs(self):
        """Per-layer workload list (same convention as the baselines)."""
        return [dict(spec) for spec in self._layer_specs]

    def flops(self):
        """Total MAC count of one forward pass."""
        return self._flops

    def operator_names(self):
        """Human-readable list of the chosen operator per cell."""
        return [CANDIDATE_OPERATORS[i].name for i in self.op_indices]
