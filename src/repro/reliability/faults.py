"""Seeded deterministic fault injection, configured via ``REPRO_FAULTS``.

The instrumented layers (async env supervisor, compiled train step, plan
compiler, kernel dispatcher) each consult the process injector at the point
where a real fault *would* surface, so every recovery path in the codebase
can be exercised on demand — in unit tests, in a live run, and by the CI
fault-injection job.

Spec grammar (comma-separated ``name=value`` entries)::

    REPRO_FAULTS="worker_crash=0.01,step_hang=0.005,nan_grad=1@update:40,kernel_error=depthwise_native,seed=7"

Three value forms, selected by shape:

* ``name=<float>`` — *probability* fault: each opportunity fires with the
  given probability, drawn from one seeded ``np.random.default_rng`` stream
  (``seed=<int>`` entry, default 0), so a given spec string replays the
  same fault schedule every run.
* ``name=<count>@<site>:<index>`` — *scheduled* fault: fires for exactly
  ``count`` consecutive opportunities starting at the ``index``-th query of
  ``name`` (1-based).  The ``site`` label is documentation (e.g.
  ``update``); occurrence counting is per fault name.
* ``name=<token>`` — *targeted* fault: fires whenever the instrumentation
  site passes a matching ``target=`` (e.g. a kernel name).

Fault names the codebase instruments:

``worker_crash``
    Async env worker killed at step dispatch (queried per worker per step).
``step_hang``
    Async env step withheld from one worker so its deadline expires.
``nan_grad``
    A NaN written into the first parameter gradient before the optimiser
    stage (compiled and eager update paths; queried once per update).
``compile_error``
    :class:`~repro.runtime.compiler.CompileError` raised from ``plan_for``
    (inference engine and compiled train step), driving the eager fallback.
``kernel_error``
    The named kernel raises in the smoke forward the dispatcher runs at its
    first bind, exercising quarantine (targeted form only; only a rule
    choice with a rival, e.g. ``depthwise_native``, is smoke-tested).

With ``REPRO_FAULTS`` unset, :func:`get_injector` returns ``None`` and
instrumented hot paths pay a single ``is None`` branch.
"""

from __future__ import annotations

import os

import numpy as np

from . import health

__all__ = ["ENV_VAR", "FaultInjector", "get_injector", "reset_injector", "parse_spec"]

ENV_VAR = "REPRO_FAULTS"


class _Probability:
    __slots__ = ("p",)

    def __init__(self, p):
        self.p = float(p)


class _Schedule:
    __slots__ = ("start", "count")

    def __init__(self, start, count):
        self.start = int(start)
        self.count = int(count)


class _Target:
    __slots__ = ("token",)

    def __init__(self, token):
        self.token = str(token)


def parse_spec(spec):
    """Parse a ``REPRO_FAULTS`` string into ``(faults, seed)``.

    ``faults`` maps fault names to one of the internal rule objects; bad
    entries raise ``ValueError`` naming the offending part, so typos fail
    loudly at the first injector query rather than silently disabling the
    harness.
    """
    faults = {}
    seed = 0
    for part in str(spec).split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(
                "bad {} entry {!r}: expected name=value".format(ENV_VAR, part)
            )
        name, _, value = part.partition("=")
        name = name.strip()
        value = value.strip()
        if not name or not value:
            raise ValueError(
                "bad {} entry {!r}: expected name=value".format(ENV_VAR, part)
            )
        if name == "seed":
            seed = int(value)
            continue
        if "@" in value:
            count_text, _, site = value.partition("@")
            site = site.strip()
            if ":" not in site:
                raise ValueError(
                    "bad {} schedule {!r}: expected count@site:index".format(ENV_VAR, part)
                )
            _, _, index_text = site.rpartition(":")
            try:
                count = int(count_text)
                start = int(index_text)
            except ValueError as error:
                raise ValueError(
                    "bad {} schedule {!r}: expected count@site:index".format(ENV_VAR, part)
                ) from error
            if count < 1 or start < 1:
                raise ValueError(
                    "bad {} schedule {!r}: count and index must be >= 1".format(ENV_VAR, part)
                )
            faults[name] = _Schedule(start, count)
            continue
        try:
            probability = float(value)
        except ValueError:
            faults[name] = _Target(value)
            continue
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                "bad {} probability {!r}: must be in [0, 1]".format(ENV_VAR, part)
            )
        faults[name] = _Probability(probability)
    return faults, seed


class FaultInjector:
    """Deterministic fault oracle for one parsed spec.

    Probability faults draw from one seeded generator in query order, and
    scheduled faults count queries per name, so for a fixed spec the exact
    same opportunities fire on every run — fault scenarios replay.
    """

    def __init__(self, spec, seed=None):
        self.spec = str(spec)
        self.faults, spec_seed = parse_spec(spec)
        self.rng = np.random.default_rng(spec_seed if seed is None else seed)
        self._occurrences = {}
        self.fired = {}

    def configured(self, name):
        """Whether the spec mentions fault ``name`` at all."""
        return name in self.faults

    def target(self, name):
        """The token of a targeted fault (``None`` for other rule kinds)."""
        rule = self.faults.get(name)
        return rule.token if isinstance(rule, _Target) else None

    def should_fire(self, name, target=None):
        """Consult (and advance) the fault oracle for one opportunity.

        Unconfigured names return False without consuming randomness or
        occurrence counts, so adding instrumentation sites never perturbs
        the schedule of existing specs.
        """
        rule = self.faults.get(name)
        if rule is None:
            return False
        occurrence = self._occurrences.get(name, 0) + 1
        self._occurrences[name] = occurrence
        if isinstance(rule, _Target):
            fire = target is not None and target == rule.token
        elif isinstance(rule, _Schedule):
            fire = rule.start <= occurrence < rule.start + rule.count
        else:
            fire = bool(self.rng.random() < rule.p)
        if fire:
            self.fired[name] = self.fired.get(name, 0) + 1
            health.record("faults_injected")
        return fire

    def __repr__(self):
        return "FaultInjector({!r})".format(self.spec)


#: Cached (spec string, injector) pair: the injector persists (with its RNG
#: and occurrence counters) as long as the env var holds the same string.
_cached_spec = None
_cached_injector = None


def get_injector():
    """The process fault injector, or ``None`` when ``REPRO_FAULTS`` is unset.

    Cached on the raw spec string, so hot paths pay one ``os.environ`` read
    and the injector's counters survive across queries; changing the env var
    mid-process builds a fresh injector.
    """
    global _cached_spec, _cached_injector
    spec = os.environ.get(ENV_VAR)
    if spec != _cached_spec:
        _cached_spec = spec
        _cached_injector = FaultInjector(spec) if spec else None
    return _cached_injector


def reset_injector():
    """Drop the cached injector so the next query re-reads ``REPRO_FAULTS``.

    Tests that reuse a spec string call this to restart occurrence counters
    and the probability stream.
    """
    global _cached_spec, _cached_injector
    _cached_spec = None
    _cached_injector = None
