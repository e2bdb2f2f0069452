"""Policy-serving tier: persistent inference service with dynamic batching.

The training stack drives the compiled runtime with homogeneous, fixed-size
batches; deployment traffic does not.  This package closes that gap: a
:class:`~repro.serving.server.PolicyServer` owns the compiled runtime on one
worker thread and lets many concurrent clients submit single observations
against named models; waiting requests are coalesced onto a bucket ladder of
batch sizes (:class:`~repro.serving.batching.BucketPolicy`) so the plan
cache compiles O(log N) plans, partial buckets pad-and-mask instead of
recompiling, and a coalescing deadline bounds tail latency under light
traffic.  Bounded intake with typed load-shedding
(:mod:`~repro.serving.errors`), supervised worker restarts, and graceful
draining shutdown make it the reliability layer's serving counterpart.

Quick start::

    from repro.serving import BucketPolicy, PolicyServer

    server = PolicyServer(BucketPolicy(max_wait=0.002))
    server.register_model("pilot", agent.eval(), obs_shape=obs.shape, warm=True)
    probs, value = server.submit("pilot", obs).result()
    server.close()
"""

from .batching import DEFAULT_BUCKETS, BucketPolicy
from .errors import (
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
    UnknownModelError,
)
from .server import PolicyServer

__all__ = [
    "PolicyServer",
    "BucketPolicy",
    "DEFAULT_BUCKETS",
    "ServingError",
    "ServerOverloadedError",
    "ServerClosedError",
    "UnknownModelError",
]
