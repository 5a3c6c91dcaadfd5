"""Shared helpers: locating the program, budgets, statistics, result records.

Everything here is stdlib + NumPy; the program under test (the ``repro``
package) is imported from the ``src/`` directory of the checkout that holds
this benchmark, so the benchmark always measures the tree it ships with.
"""

from __future__ import annotations

import json
import math
import os
import resource
import statistics
import sys
import time
from typing import Dict, Iterable, List, Sequence

#: Root of the checkout (the parent of this benchmark's directory).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program() -> None:
    """Put the checkout's ``src/`` first on ``sys.path``.

    Raises ``ImportError`` when the checkout holds no program, so a run in a
    directory with only the benchmark fails before it prints any result.
    """
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise ImportError(f"no repro package under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def load_benchmark() -> dict:
    """The checkout's ``BENCHMARK.json``: workloads, run length, metrics, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def budget_at(graph, fraction: float) -> float:
    """The CLI's ``--budget-fraction``: overhead + f x total activation memory."""
    return graph.constant_overhead + fraction * graph.total_activation_memory()


def geomean(values: Iterable[float]) -> float:
    values = list(values)
    if not values or min(values) <= 0:
        raise ValueError(f"geometric mean needs positive values, got {values!r}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


def self_peak_rss_mib() -> float:
    """Peak resident set of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mib() -> float:
    """Largest peak resident set among waited-for child processes."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class RoundClock:
    """Decides whether another whole round of work belongs in the run.

    A run always completes at least one round, and starts another only if
    it would end nearer the requested seconds than stopping now would (by
    the mean round so far), so every run attempts whole rounds of identical
    operations and lasts about the requested time.
    """

    def __init__(self, seconds: float) -> None:
        self.seconds = float(seconds)
        self.start = time.perf_counter()
        self.rounds: List[float] = []

    def another(self) -> bool:
        if not self.rounds:
            return True
        elapsed = time.perf_counter() - self.start
        mean = sum(self.rounds) / len(self.rounds)
        return elapsed + mean / 2 <= self.seconds

    def record(self, wall: float) -> None:
        self.rounds.append(wall)

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.start


def metric(value: float, unit: str) -> Dict[str, object]:
    if not math.isfinite(value):
        raise ValueError(f"metric value must be finite, got {value!r}")
    return {"value": float(value), "unit": unit}


class CheckFailure(AssertionError):
    """An output of the program failed one of the benchmark's own checks."""
