"""Dynamic-batching policy: bucket sizes and the coalescing deadline.

The plan cache keys compiled work by batch size, so a server that executed
every distinct request count it ever saw would compile a plan per count.  A :class:`BucketPolicy`
restricts execution to a small ladder of batch sizes: waiting requests are
coalesced, a partial group is padded up to the next bucket (padding rows are
masked out of the responses, and row independence of eval-mode plans makes
them bitwise-invisible to real rows), and each bucket's plan is compiled
exactly once.

The ``max_wait`` deadline bounds how long the scheduler holds the oldest
waiting request hoping for a fuller bucket, which is what bounds p99
latency under light traffic: a lone request costs at most
``max_wait + one batch execution``, never "until traffic shows up".
"""

from __future__ import annotations

import numpy as np

__all__ = ["BucketPolicy", "DEFAULT_BUCKETS"]

#: Power-of-two ladder matching how the plan cache amortises: doubling
#: buckets keep padding waste below 50% while compiling O(log N) plans.
DEFAULT_BUCKETS = (1, 2, 4, 8, 16, 32)


class BucketPolicy:
    """Batch-size ladder + coalescing deadline for the batching scheduler.

    Parameters
    ----------
    buckets:
        Allowed execution batch sizes, e.g. ``(1, 2, 4, 8, 16, 32)``.  A
        single-bucket policy such as ``(32,)`` trades padding waste for the
        strongest determinism: every request executes on the one compiled
        plan, so its response is bitwise-identical no matter what traffic it
        was coalesced with (cross-bucket results differ in the last float32
        bits — BLAS reduction order changes with the GEMM batch dimension).
    max_wait:
        Seconds the scheduler may hold the oldest waiting request while
        coalescing before dispatching a partial bucket.  ``0`` dispatches
        whatever is queued immediately (batching still happens whenever
        requests are already waiting together).
    """

    def __init__(self, buckets=DEFAULT_BUCKETS, max_wait=0.002):
        sizes = sorted({int(b) for b in buckets})
        if not sizes:
            raise ValueError("at least one bucket size is required")
        if sizes[0] < 1:
            raise ValueError("bucket sizes must be >= 1, got {}".format(sizes))
        if max_wait < 0:
            raise ValueError("max_wait must be >= 0, got {}".format(max_wait))
        self.buckets = tuple(sizes)
        self.max_wait = float(max_wait)

    @property
    def max_batch(self):
        """Largest executable batch — the scheduler's take-per-dispatch cap."""
        return self.buckets[-1]

    def bucket_for(self, count):
        """Smallest bucket holding ``count`` requests (``count`` <= max)."""
        if count < 1:
            raise ValueError("bucket_for needs a positive request count")
        for size in self.buckets:
            if size >= count:
                return size
        raise ValueError(
            "{} requests exceed the largest bucket {}".format(count, self.max_batch)
        )

    def pad(self, observations):
        """Stack per-request observations into a padded bucket batch.

        Returns ``(batch, valid)`` where ``batch`` is a ``(bucket, *obs)``
        array whose trailing ``bucket - valid`` rows are zeros.  Zero rows
        are safe through eval-mode plans (running-stats BN, no cross-row
        reductions) and are simply never sliced into a response.
        """
        valid = len(observations)
        bucket = self.bucket_for(valid)
        first = np.asarray(observations[0])
        batch = np.zeros((bucket,) + first.shape, dtype=first.dtype)
        for row, obs in enumerate(observations):
            batch[row] = obs
        return batch, valid

    def __repr__(self):
        return "BucketPolicy(buckets={}, max_wait={})".format(self.buckets, self.max_wait)
