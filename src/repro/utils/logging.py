"""Lightweight metric logging used by trainers, searchers and benchmarks."""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

__all__ = ["MetricLogger", "RunRecorder"]


class MetricLogger:
    """Accumulates scalar series keyed by name.

    Trainers call :meth:`log` each iteration; experiments read the series back
    with :meth:`series` or summarise them with :meth:`latest` / :meth:`mean`.
    """

    def __init__(self):
        self._series = defaultdict(list)
        self._steps = defaultdict(list)

    def log(self, name, value, step=None):
        """Append ``value`` for metric ``name`` (optionally tagged with a step)."""
        self._series[name].append(float(value))
        self._steps[name].append(int(step) if step is not None else len(self._series[name]) - 1)

    def series(self, name):
        """Return ``(steps, values)`` lists for metric ``name``."""
        return list(self._steps[name]), list(self._series[name])

    def latest(self, name, default=None):
        """Most recent value of metric ``name`` (or ``default`` if empty)."""
        values = self._series.get(name)
        return values[-1] if values else default

    def mean(self, name, last=None):
        """Mean of metric ``name`` over the last ``last`` entries (all if None)."""
        values = self._series.get(name, [])
        if not values:
            return None
        window = values[-last:] if last else values
        return sum(window) / len(window)

    def names(self):
        """All metric names logged so far."""
        return sorted(self._series.keys())

    def as_dict(self):
        """Serialise all series into plain dicts."""
        return {
            name: {"steps": self._steps[name], "values": self._series[name]}
            for name in self._series
        }


class RunRecorder:
    """Persists experiment results (rows of dicts) to JSON for later reporting."""

    def __init__(self, name, output_dir=None):
        self.name = name
        self.output_dir = output_dir
        self.rows = []
        self.started_at = time.time()

    def add(self, **fields):
        """Record one result row."""
        self.rows.append(dict(fields))
        return self.rows[-1]

    def save(self, path=None):
        """Write all rows to a JSON file and return its path."""
        if path is None:
            directory = self.output_dir or "."
            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, "{}.json".format(self.name))
        with open(path, "w") as handle:
            json.dump({"name": self.name, "rows": self.rows}, handle, indent=2)
        return path

    def __len__(self):
        return len(self.rows)
