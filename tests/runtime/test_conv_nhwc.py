"""The channels-last dense conv kernel (``im2col_nhwc``) against nested loops.

The reference walks output pixels and kernel taps one at a time, in float64,
and shares no code with the kernel (its gather and scatter, its GEMMs) or
with :mod:`repro.nn.vjp`.  It checks the forward and both VJPs on every
dense conv geometry the co-search samples (the stem, ``conv_k3``/``conv_k5``
cells at 8-32 channels, strides 1 and 2, and the strided 1x1 shortcuts) and
on the ResNet-20 teacher's convs.  The kernel gathers and scatters in C where
the library builds and with NumPy twins elsewhere; the twins must give the C
routines' bytes (that comparison needs the library, the nested-loop checks
run on either side).
"""

import numpy as np
import pytest

from repro.drl import make_agent
from repro.networks import AgentSuperNet
from repro.runtime import compile_plan
from repro.runtime.kernels import ConvSpec, _native, reset_selections, selection_table
from repro.runtime.kernels.conv import Im2colNHWCKernel
from repro.runtime.kernels.registry import NULL_EPILOGUE, _Arena

needs_library = pytest.mark.skipif(not _native.available(), reason="compiled library unavailable")

#: Error bound relative to the same sums over absolute values.
TOL = {"float32": 1e-5, "float64": 1e-12}


def _dense_geometries():
    """``(in, out, k, stride, size)`` of every dense conv of the co-search
    supernet (all candidates, benchmark widths) and of the ResNet-20 teacher."""
    net = AgentSuperNet(in_channels=2, input_size=28, feature_dim=64, base_width=8,
                        rng=np.random.default_rng(0))
    specs = [spec for op in range(net.num_choices_per_cell)
             for spec in net.layer_specs([op] * net.num_cells)]
    teacher = make_agent("ResNet-20", obs_size=28, frame_stack=2, feature_dim=64,
                         base_width=8, seed=0)
    specs += teacher.backbone.layer_specs()
    return sorted({
        (s["in_channels"], s["out_channels"], s["kernel_size"], s["stride"], s["input_size"])
        for s in specs
        if s["type"] == "conv" and s["groups"] == 1 and (s["kernel_size"] > 1 or s["stride"] > 1)
    })


GEOMETRIES = _dense_geometries()


def reference(x, w, gout, s, p):
    """``(out, gw, gin)`` by nested loops over output pixels and taps.

    ``x``/``gout`` are NHWC, ``w`` is ``(C_out, C, k, k)``; everything is
    summed in float64.
    """
    x, w, gout = (np.asarray(a, np.float64) for a in (x, w, gout))
    n, h, wd, _ = x.shape
    k = w.shape[2]
    oh, ow = gout.shape[1:3]
    out, gw, gin = np.zeros(gout.shape), np.zeros(w.shape), np.zeros(x.shape)
    for y in range(oh):
        for xo in range(ow):
            for i in range(k):
                for j in range(k):
                    yi, xi = y * s + i - p, xo * s + j - p
                    if not (0 <= yi < h and 0 <= xi < wd):
                        continue
                    out[:, y, xo] += x[:, yi, xi] @ w[:, :, i, j].T
                    gw[:, :, i, j] += gout[:, y, xo].T @ x[:, yi, xi]
                    gin[:, yi, xi] += gout[:, y, xo] @ w[:, :, i, j]
    return out, gw, gin


def run_kernel(spec, x, w, gout, gin, kernel=None):
    """One forward and backward; returns ``(out, gw)`` and adds into ``gin``."""
    if kernel is None:
        arena = _Arena(spec)
        kernel = Im2colNHWCKernel(spec, arena)
        kernel.allocate_backward(arena, gin is not None)
    out = np.empty(spec.out_shape, spec.dtype)
    kernel.forward(x, w, out, NULL_EPILOGUE)
    gw = np.zeros_like(w)
    kernel.backward(gout.copy(), x, w, gw, gin)
    return out, gw


def operands(spec, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(spec.in_shape).astype(spec.dtype)
    w = rng.standard_normal(
        (spec.out_channels, spec.in_channels, spec.kernel, spec.kernel)).astype(spec.dtype)
    gout = rng.standard_normal(spec.out_shape).astype(spec.dtype)
    return x, w, gout


def test_geometries_cover_the_stem_every_kernel_and_stride():
    assert {(k, s) for _, _, k, s, _ in GEOMETRIES} == {(1, 2), (3, 1), (3, 2), (5, 1), (5, 2)}
    assert (2, 8, 3, 2, 28) in GEOMETRIES  # the stem
    assert {c for c, *_ in GEOMETRIES} >= {8, 16, 32}


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_forward_and_vjps_match_nested_loops(geometry, dtype):
    cin, cout, k, s, size = geometry
    spec = ConvSpec(3, cin, cout, size, size, k, s, k // 2, 1, dtype, "train")
    x, w, gout = operands(spec, seed=sum(geometry))
    stem = cin == 2  # the stem reads the plan input: no input gradient
    prefill = np.random.default_rng(1).standard_normal(spec.in_shape).astype(dtype)
    gin = None if stem else prefill.copy()
    out, gw = run_kernel(spec, x, w, gout, gin)
    want_out, want_gw, want_gin = reference(x, w, gout, s, k // 2)
    abs_out, abs_gw, abs_gin = reference(np.abs(x), np.abs(w), np.abs(gout), s, k // 2)
    tol = TOL[dtype]
    assert np.all(np.abs(out - want_out) <= tol * abs_out + 1e-30)
    assert np.all(np.abs(gw - want_gw) <= tol * abs_gw + 1e-30)
    if not stem:
        # Accumulated into the pre-filled gradient, as plan steps require.
        assert np.all(np.abs(gin - prefill - want_gin) <= tol * (abs_gin + np.abs(prefill)) + 1e-30)


def test_inference_forward_matches_training_forward():
    spec = ConvSpec(4, 8, 16, 14, 14, 5, 2, 2, 1, "float32", "infer")
    x, w, gout = operands(spec, seed=3)
    out = np.empty(spec.out_shape, spec.dtype)
    Im2colNHWCKernel(spec, _Arena(spec)).forward(x, w, out, NULL_EPILOGUE)
    trained, _ = run_kernel(spec._replace(direction="train"), x, w, gout, None)
    assert out.tobytes() == trained.tobytes()


@needs_library
def test_binds_each_routine_once_over_three_backward_passes(monkeypatch):
    calls = []
    real = _native.bind

    def counted(name, *args):
        calls.append(name)
        return real(name, *args)

    monkeypatch.setattr(_native, "bind", counted)
    spec = ConvSpec(4, 8, 8, 14, 14, 3, 1, 1, 1, "float32", "train")
    arena = _Arena(spec)
    kernel = Im2colNHWCKernel(spec, arena)
    kernel.allocate_backward(arena, True)
    x, w, gout = operands(spec, seed=0)
    gin = np.zeros(spec.in_shape, spec.dtype)  # one buffer each, as a plan hands back
    results = []
    for _ in range(3):
        x += 1
        results.append(run_kernel(spec, x, w, gout, gin, kernel))
    assert calls == ["im2col_nhwc", "col2im_nhwc"]
    # The bound gather saw each new input: every pass gives its own output.
    assert len({out.tobytes() for out, _ in results}) == 3


@needs_library
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("geometry", GEOMETRIES)
def test_numpy_twins_give_the_c_bytes(monkeypatch, geometry, dtype):
    """The NumPy gather and scatter against C ``im2col_nhwc`` / ``col2im_nhwc``:
    the forward and both VJPs byte for byte, ``gin`` pre-filled."""
    cin, cout, k, s, size = geometry
    spec = ConvSpec(3, cin, cout, size, size, k, s, k // 2, 1, dtype, "train")
    x, w, gout = operands(spec, seed=sum(geometry))
    prefill = np.random.default_rng(1).standard_normal(spec.in_shape).astype(dtype)
    results = []
    for native in (True, False):
        monkeypatch.setattr(_native, "available", lambda native=native: native)
        gin = prefill.copy()
        results.append([a.tobytes() for a in (*run_kernel(spec, x, w, gout, gin), gin)])
    assert results[0] == results[1]


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("direction", ["infer", "train"])
def test_numpy_twins_rewrite_stale_workspaces(monkeypatch, direction, dtype):
    """Plans share scratch arenas between steps, so the NumPy gather must
    rewrite its padded buffer's border and every column on each pass: NaN
    left in the workspaces by another step never reaches the results."""
    monkeypatch.setattr(_native, "available", lambda: False)
    spec = ConvSpec(3, 4, 6, 9, 9, 5, 2, 2, 1, dtype, direction)
    x, w, gout = operands(spec, seed=5)
    prefill = np.random.default_rng(1).standard_normal(spec.in_shape).astype(dtype)

    def passes(stale):
        arena = _Arena(spec)
        kernel = Im2colNHWCKernel(spec, arena)
        workspaces = [kernel._xpad, kernel._cols]
        if spec.train:
            kernel.allocate_backward(arena, True)
            workspaces += [kernel._gcols, kernel._gwt]
        assert kernel._xpad is not None
        results = []
        for shift in range(3):
            if stale:
                for buf in workspaces:
                    buf.fill(np.nan)
            if spec.train:
                gin = prefill.copy()
                out, gw = run_kernel(spec, x + shift, w, gout, gin, kernel)
                results.append([a.tobytes() for a in (out, gw, gin)])
            else:
                out = np.empty(spec.out_shape, spec.dtype)
                kernel.forward(x + shift, w, out, NULL_EPILOGUE)
                results.append([out.tobytes()])
        assert not np.isnan(np.frombuffer(b"".join(sum(results, [])), spec.dtype)).any()
        return results

    assert passes(stale=True) == passes(stale=False)


def test_dense_convs_run_nhwc_without_the_library(monkeypatch):
    """Without the library dense convs still run channels-last on
    ``im2col_nhwc``, on its NumPy gather and scatter."""
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    monkeypatch.setattr(_native, "available", lambda: False)
    spec = ConvSpec(4, 8, 8, 14, 14, 3, 1, 1, 1, "float32", "train")
    assert Im2colNHWCKernel.supports(spec)
    teacher = make_agent("ResNet-20", obs_size=28, frame_stack=2, feature_dim=32,
                         base_width=4, seed=0)
    teacher.train()
    reset_selections()
    compile_plan(teacher, (4, 2, 28, 28), dtype=np.float32, train=True)
    table = selection_table()
    reset_selections()
    assert {row["kernel"] for row in table.values()} == {"im2col_nhwc"}
    assert {row["layout"] for row in table.values()} == {"NHWC"}
