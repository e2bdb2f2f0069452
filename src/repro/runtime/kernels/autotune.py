"""Lightweight per-signature autotuner for the conv kernel registry.

When dispatch runs in ``auto`` mode (the default), the first plan finalised
against a new signature times every supporting kernel on buffers of the
plan's real geometry — one warmup call, then best-of-``REPS`` — and caches
the winner in-process, so each distinct ``(shape, dtype, direction)``
signature pays the timing cost exactly once per process.  Subsequent
compiles (plan-cache misses on the same signature, other engines, training
plans of the same net) reuse the cached choice.

Candidates are timed on *standalone* zero-filled buffers, not the plan's
slot buffers: a losing candidate must not leave persistent allocations
behind in the plan, and zero inputs keep the timing free of subnormal /
NaN artefacts from uninitialised memory.  Only the forward pass is timed —
for ``train`` signatures the backward rides with the forward winner.  Not
because the forward dominates: on the derived agent's depthwise train
signatures the backward costs as much or more.  The two directions share
their saved state, so they must run on one kernel, and the kernel that wins
the forward wins the backward too (the compiled ``depthwise_native`` beats
the einsum contractions in both directions), so timing the backward as
well would double the tuning cost without changing a choice.

A challenger only dethrones the general fallback when it wins by a clear
relative margin (:data:`MARGIN`), so near-ties resolve deterministically:
two processes on the same host pick the same kernel unless one genuinely
wins.  Kernels agree only up to float reassociation (1e-12 f64 / 1e-6
f32), so runs that need *bit*-reproducible trajectories across machines
should pin ``REPRO_KERNELS=im2col`` (or any fixed kernel) instead of
relying on timing.

The cache is keyed by the full :class:`~repro.runtime.kernels.registry.ConvSpec`
(which includes the direction), so ``repro.runtime.cache_stats()`` can report
the chosen kernel and the per-candidate timings for every signature seen.
"""

from __future__ import annotations

import os
import time

import numpy as np

__all__ = [
    "choose",
    "timings_for",
    "failures_for",
    "blas_thread_count",
    "threads_for",
    "clear_cache",
    "WARMUP",
    "REPS",
]

#: Warmup calls and timed repetitions per candidate (best-of).
WARMUP = 1
REPS = 3

#: A challenger must beat the deterministic fallback (the last-registered
#: kernel, i.e. ``im2col``) by this relative margin to win.  Near-ties stay
#: on the fallback, so timing jitter on noisy hosts cannot flip the choice
#: between processes unless a kernel genuinely wins.
MARGIN = 0.95

#: spec -> {"kernel": name, "timings": {name: best seconds},
#: "failures": {name: reason}, "blas_threads": int or None}.
_CACHE = {}


class _BenchArena:
    """Duck-typed stand-in for a :class:`~repro.runtime.plan.Plan` allocator.

    Kernels draw persistent buffers via ``alloc`` and transient workspaces
    via ``workspace``; during benchmarking both are plain temporary numpy
    allocations that die with the arena.
    """

    def __init__(self, spec):
        self.dtype = np.dtype(spec.dtype)
        self.train = spec.train

    def alloc(self, shape, dtype=None, zero=False):
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        if zero:
            return np.zeros(tuple(int(d) for d in shape), dtype=dtype)
        return np.empty(tuple(int(d) for d in shape), dtype=dtype)

    def workspace(self, shape, dtype=None, channel=0):
        return self.alloc(shape, dtype=dtype)


class _NullEpilogue:
    """No-op epilogue used while timing (kernels still call it per tile)."""

    blockwise = True

    def apply(self, out, lanes=None):
        return out


NULL_EPILOGUE = _NullEpilogue()


def _best_of(fn, warmup=WARMUP, reps=REPS):
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def blas_thread_count():
    """Effective upper bound on the host BLAS thread count.

    NumPy's BLAS honours the standard thread-count environment variables;
    when none is set it uses every core the process can see.  The measured
    balance between the threaded GEMM kernels and the single-threaded
    depthwise kernels shifts with this number, so every timing run records it
    (see :func:`threads_for`): a selection table committed on a 1-core
    container is visibly stale on a 16-core serving host.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var)
        if value:
            try:
                return max(1, int(value))
            except ValueError:
                continue
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def _entry(spec):
    entry = _CACHE.get(spec)
    if entry is None:
        entry = {"kernel": None, "timings": {}, "failures": {}, "blas_threads": None}
        _CACHE[spec] = entry
    return entry


def _time_kernels(spec, cands):
    """Best-of forward seconds per candidate on standalone buffers.

    A candidate that raises (or fills ``out`` with non-finite values) is not
    allowed to take the process down — or worse, to win: its timing is
    recorded as ``inf``, the failure reason lands in the signature's cache
    entry, and the kernel is quarantined for the rest of the session (the
    general fallback excepted; see
    :func:`~repro.runtime.kernels.registry.quarantine_kernel`).  The
    ``kernel_error`` fault makes the named candidate raise here on demand.
    """
    from ...reliability.faults import get_injector
    from .registry import quarantine_kernel

    act_dtype = spec.act_dtype
    x = np.zeros(spec.in_shape, dtype=act_dtype)
    weight = np.zeros(
        (spec.out_channels, spec.in_channels // spec.groups, spec.kernel, spec.kernel),
        dtype=act_dtype,
    )
    out = np.empty(spec.out_shape, dtype=act_dtype)
    if spec.quant:
        # Quantized kernels fuse a real per-channel requant tail (the C
        # kernels read the scale/bias arrays directly), so time them against
        # one rather than the no-op float epilogue.
        from .quantized import RequantEpilogue

        epilogue = RequantEpilogue(spec.out_channels, spec.acc_dtype, spec.qmax)
    else:
        epilogue = NULL_EPILOGUE
    entry = _entry(spec)
    entry["blas_threads"] = blas_thread_count()
    injector = get_injector()
    timings = {}
    for cls in cands:
        try:
            if injector is not None and injector.should_fire("kernel_error", target=cls.name):
                raise RuntimeError("injected kernel_error fault")
            bound = cls(spec, _BenchArena(spec))
            timing = _best_of(lambda: bound.forward(x, weight, out, epilogue))
            if not np.all(np.isfinite(np.asarray(out, dtype=np.float64))):
                raise RuntimeError("kernel produced non-finite output on zero input")
        except Exception as error:  # noqa: BLE001 — any candidate crash degrades
            timings[cls.name] = float("inf")
            entry.setdefault("failures", {})[cls.name] = "{}: {}".format(
                type(error).__name__, error
            )
            quarantine_kernel(cls.name, entry["failures"][cls.name])
        else:
            timings[cls.name] = timing
    return timings


def choose(spec, cands):
    """The winning kernel class for ``spec`` among ``cands``.

    Returns ``(kernel_cls, source)`` where ``source`` is ``"autotuned"`` (a
    fresh decision), ``"cached"`` (a previous decision is reused), or
    ``"only"`` (a single candidate needed no timing).
    """
    entry = _entry(spec)
    winner = {cls.name: cls for cls in cands}.get(entry["kernel"])
    if winner is not None:
        return winner, "cached"
    if len(cands) == 1:
        entry["kernel"] = cands[0].name
        return cands[0], "only"

    timings = entry["timings"] = _time_kernels(spec, cands)
    # The last-registered candidate (the general fallback) is the incumbent:
    # a challenger must beat it by MARGIN so near-ties resolve
    # deterministically regardless of timing jitter.
    winner = cands[-1]
    for cls in cands[:-1]:
        if timings[cls.name] < timings[winner.name] * MARGIN:
            winner = cls
    entry["kernel"] = winner.name
    return winner, "autotuned"


def timings_for(spec):
    """Cached per-candidate timings for ``spec`` (``None`` if never tuned)."""
    entry = _CACHE.get(spec)
    if entry is None or not entry["timings"]:
        return None
    return dict(entry["timings"])


def failures_for(spec):
    """``{kernel: reason}`` of candidates that crashed while tuning ``spec``."""
    entry = _CACHE.get(spec)
    if entry is None or not entry.get("failures"):
        return None
    return dict(entry["failures"])


def threads_for(spec):
    """BLAS thread count the timings of ``spec`` were measured under.

    ``None`` when the signature was never timed (single candidate, pinned or
    heuristic selection).
    """
    entry = _CACHE.get(spec)
    if entry is None:
        return None
    return entry.get("blas_threads")


def clear_cache():
    """Forget every tuning decision (tests; re-tuning after CPU migration)."""
    _CACHE.clear()
