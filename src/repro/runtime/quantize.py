"""Rollout-based calibration for the quantized inference path.

Quantizing activations needs their dynamic ranges, and the ranges that
matter are the ones the policy actually visits — so calibration *runs the
plan*: a :class:`Calibrator` compiles the module exactly as the inference
engine would, without any pass (the bare compiler output the quantize
pass rewrites), and observes every activation slot over a short rollout's
worth of batches.  The harvested per-channel amax profile is packaged as a
:class:`QuantCalibration`, keyed like the engine's plan cache
(``(input shape, gate path, dtype)``) so an engine holding several
calibrations can pick the right one per compiled signature.

Scales are *per-tensor* symmetric (``scale = amax / qmax``): the consumer
conv reads its input scale from the producer slot's profile, so scale
matching across plan edges holds by construction — the plan-lint pass
re-verifies it anyway.  Per-*channel* weight scales are derived from the
live weights at run time by the conv step itself (no calibration needed:
weights are known exactly).

Plan-identity contract: the quantize pass is the first pass and appends its
new slots/steps, so the plan it rewrites is the bare compiler output the
calibration observed.  A calibration records that plan's
:func:`~repro.runtime.passes.plan_digest` (every step's type, reads, writes
and branch, and every slot's shape); if the engine's plan has another
digest (e.g. a calibration saved by a revision that emitted its plans
differently), the quantize pass declines to fire rather than apply wrong
scales — quantization is an optimisation, so the fail-safe is the float
path.
"""

from __future__ import annotations

import json

import numpy as np

from .compiler import compile_plan
from .passes import plan_digest

__all__ = ["Calibrator", "QuantCalibration"]


def _norm_path(path):
    return None if path is None else tuple(int(p) for p in path)


def _channel_axis(layout):
    return 3 if layout == "NHWC" else 1


class Calibrator:
    """Observes activation ranges of one compiled signature over real batches.

    Compile-observe-package workflow::

        cal = Calibrator(agent.features, (16, 2, 32, 32), dtype=np.float32)
        for obs in rollout_batches:
            cal.observe(obs)
        calibration = cal.result(mode="q8")

    ``observe`` runs the internally compiled plan (float, no pass) and
    folds each written 4-D slot's per-channel max |x| into the running
    profile.
    """

    def __init__(self, module, input_shape, dtype=np.float64, path=None, pool=None):
        self.input_shape = tuple(int(d) for d in input_shape)
        self.path = _norm_path(path)
        self.dtype = np.dtype(dtype)
        # No pass: ``quantize`` rewrites exactly this bare compiler output,
        # and ``alias_slots`` would let later steps reuse a dead slot's arena
        # region, so reading every slot buffer *after* the run would observe
        # overwritten garbage for early activations.
        self._plan = compile_plan(
            module, self.input_shape, dtype=self.dtype, path=path,
            passes="none", pool=pool,
        )
        self._digest = plan_digest(self._plan)
        self._amax = {}
        self.num_batches = 0

    def observe(self, x):
        """Run one batch through the plan and update the range profile."""
        plan = self._plan
        plan.run(np.asarray(x, dtype=self.dtype))
        for slot, buf in enumerate(plan.bufs):
            if buf is None or buf.ndim != 4:
                continue
            axis = _channel_axis(plan.layout(slot))
            reduce_axes = tuple(a for a in range(4) if a != axis)
            stat = np.abs(buf).max(axis=reduce_axes).astype(np.float64)
            prev = self._amax.get(slot)
            self._amax[slot] = stat if prev is None else np.maximum(prev, stat)
        self.num_batches += 1

    def result(self, mode="q8"):
        """Package the harvested profile as a :class:`QuantCalibration`."""
        if self.num_batches == 0:
            raise RuntimeError("observe() at least one batch before result()")
        return QuantCalibration(
            input_shape=self.input_shape,
            path=self.path,
            dtype=self.dtype.name,
            mode=mode,
            amax={slot: stat.copy() for slot, stat in self._amax.items()},
            digest=self._digest,
        )


class QuantCalibration:
    """Serializable per-slot activation ranges of one compiled signature.

    ``digest`` is the :func:`~repro.runtime.passes.plan_digest` of the plan
    the ranges were observed on; the quantize pass applies them to that
    plan only.
    """

    __slots__ = ("input_shape", "path", "dtype", "mode", "amax", "digest")

    def __init__(self, input_shape, path, dtype, mode, amax, digest):
        if mode != "q8":
            raise ValueError("unknown quant mode {!r}; only 'q8'".format(mode))
        if not isinstance(digest, str):
            raise ValueError("a calibration needs the digest of the plan it observed")
        self.input_shape = tuple(int(d) for d in input_shape)
        self.path = _norm_path(path)
        self.dtype = str(np.dtype(dtype).name)
        self.mode = mode
        self.amax = {
            int(slot): np.asarray(stat, dtype=np.float64)
            for slot, stat in amax.items()
        }
        self.digest = digest

    def matches(self, input_shape, path, dtype):
        """Whether this calibration was taken for the given plan signature."""
        return (
            self.input_shape == tuple(int(d) for d in input_shape)
            and self.path == _norm_path(path)
            and self.dtype == np.dtype(dtype).name
        )

    def channels(self, slot):
        """Observed channel count of ``slot`` (``None`` if never observed)."""
        stat = self.amax.get(slot)
        return None if stat is None else int(stat.shape[0])

    def scale(self, slot, qmax):
        """Per-tensor symmetric scale of ``slot`` (``None`` if unobserved).

        A degenerate all-zero profile maps to ``1 / qmax``: any scale
        represents an identically-zero activation exactly.
        """
        stat = self.amax.get(slot)
        if stat is None:
            return None
        amax = float(stat.max())
        if amax <= 0.0:
            return 1.0 / float(qmax)
        return amax / float(qmax)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_json(self):
        """JSON text round-tripping through :meth:`from_json`."""
        return json.dumps({
            "input_shape": list(self.input_shape),
            "path": None if self.path is None else list(self.path),
            "dtype": self.dtype,
            "mode": self.mode,
            "amax": {str(slot): stat.tolist() for slot, stat in self.amax.items()},
            "digest": self.digest,
        })

    @classmethod
    def from_json(cls, text):
        """Inverse of :meth:`to_json` (stale ``policy`` and ``num_slots`` keys
        are ignored).

        A JSON without a plan digest (written by an older version) raises
        ``ValueError``: nothing could tell which plan its slots belong to.
        """
        payload = json.loads(text)
        return cls(
            input_shape=payload["input_shape"],
            path=payload["path"],
            dtype=payload["dtype"],
            mode=payload["mode"],
            amax={int(slot): stat for slot, stat in payload["amax"].items()},
            digest=payload.get("digest"),
        )

    def __repr__(self):
        return "QuantCalibration({}, shape={}, path={}, {} slots)".format(
            self.mode, self.input_shape, self.path, len(self.amax)
        )
