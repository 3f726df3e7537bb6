"""Statistical metrics: RANGE and VAR.

* ``RANGE`` scores a block by ``max - min``: blocks spanning a wide range of
  values are assumed interesting.  Its known blind spot (noted in the paper)
  is a block with high variation inside a small range.
* ``VAR`` scores a block by the variance of its values, which fixes that
  blind spot and is the cheapest metric of the whole family (Table I).
* ``PythonVarianceMetric`` is a deliberately pure-Python scalar scorer — the
  stand-in for the user-supplied metrics the paper expects domain scientists
  to plug in, used by the engine benchmarks to measure GIL-bound scoring.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.base import MetricCost, ScoreMetric


class RangeMetric(ScoreMetric):
    """Score = max(block) - min(block)."""

    name = "RANGE"
    # Calibrated from Table I: 7.03 s for 64 cores' share of 16,000 55x55x38 blocks.
    cost = MetricCost(per_point=2.45e-7)
    supports_batch = True

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        return float(arr.max() - arr.min())

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = self._prepare_batch(batch)
        flat = arr.reshape(arr.shape[0], -1)
        return (flat.max(axis=1) - flat.min(axis=1)).astype(np.float64)


class VarianceMetric(ScoreMetric):
    """Score = variance of the block values."""

    name = "VAR"
    # Table I: 1.41 s on 64 cores -> ~4.9e-8 s per point.
    cost = MetricCost(per_point=4.9e-8)
    supports_batch = True

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        return float(np.var(arr))

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = self._prepare_batch(batch)
        flat = arr.reshape(arr.shape[0], -1)
        return np.var(flat, axis=1).astype(np.float64)


class PythonVarianceMetric(ScoreMetric):
    """Pure-Python scalar variance (the GIL-bound reference scorer).

    Scores a block with Welford's online variance over a Python loop,
    holding the GIL for the whole call — exactly what a user-supplied
    scalar metric written without NumPy looks like.  Threads cannot speed
    such a metric up at all (the loop never releases the GIL); the process
    backend can, which is what the engine benchmarks measure.
    ``stride`` subsamples the block to keep the absolute cost at benchmark
    scale; scoring stays deterministic, so all backends agree bitwise.

    Registered as ``"PYVAR"`` so serve/CLI request payloads can select it —
    not as a scoring recommendation, but as the reference workload for the
    process execution paths (a thread pool cannot speed it up at all).
    """

    name = "PYVAR"
    cost = MetricCost(per_point=4.9e-8)
    supports_batch = False

    def __init__(self, stride: int = 1) -> None:
        if stride < 1:
            raise ValueError(f"stride must be >= 1, got {stride}")
        self.stride = int(stride)

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        count = 0
        mean = 0.0
        m2 = 0.0
        for value in arr.ravel()[:: self.stride].tolist():
            count += 1
            delta = value - mean
            mean += delta / count
            m2 += delta * (value - mean)
        return m2 / count if count else 0.0


class StdDevMetric(ScoreMetric):
    """Score = standard deviation (a variant of VAR on the same cost curve)."""

    name = "STD"
    cost = MetricCost(per_point=4.9e-8)
    supports_batch = True

    def score_block(self, data: np.ndarray) -> float:
        arr = self._prepare(data)
        return float(np.std(arr))

    def score_batch(self, batch: np.ndarray) -> np.ndarray:
        arr = self._prepare_batch(batch)
        flat = arr.reshape(arr.shape[0], -1)
        return np.std(flat, axis=1).astype(np.float64)
