"""Step 1: scoring blocks of data.

Every rank scores its own blocks with the configured metric.  The step is
embarrassingly parallel; its modelled cost per rank is the metric's calibrated
per-point cost times the rank's point count, and the step ends at the global
sort (a collective), so the slowest rank determines the step's contribution to
the iteration time.

Three implementations of the same contract are provided:

* :class:`ScoringStep` — routes every rank's blocks through
  ``metric.score_blocks`` (a per-block loop by default, but user metrics that
  override it take effect here);
* :class:`VectorizedScoringStep` — stacks all ranks' block payloads into
  shape-homogeneous ``(nblocks, sx, sy, sz)`` arrays (the
  :class:`~repro.grid.batch.BlockBatch` data layout) and scores each group
  with one ``metric.score_batch`` call.  Metrics without a vectorised
  ``score_batch`` transparently fall back to the per-block path;
* :class:`ProcessScoringStep` — the same grouping, split into chunks and
  fanned out over the shared *process* pool, with payloads crossing the
  boundary zero-copy through :class:`~repro.grid.shm.SharedBlockBatch`
  segments.  This is the backend for GIL-bound metrics (pure-Python scalar
  scorers), which a single interpreter cannot speed up.

All three produce bitwise-identical scores, so the execution engine can pick
any backend without perturbing any downstream decision.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.step import IterationContext, StepReport
from repro.grid.batch import group_positions_by_shape
from repro.grid.block import Block
from repro.grid.shm import SharedBlockBatch, ShmBatchHandle
from repro.metrics.base import ScoreMetric
from repro.perfmodel.platform import PlatformModel
from repro.utils.procpool import (
    chunk_bounds,
    default_process_workers,
    shared_process_pool,
)
from repro.utils.timer import Timer

ScorePair = Tuple[int, float]


class ScoringStep:
    """Scores per-rank block lists with a metric (per-block path)."""

    name = "scoring"

    def __init__(self, metric: ScoreMetric, platform: PlatformModel) -> None:
        self.metric = metric
        self.platform = platform

    # -- scoring backend ---------------------------------------------------------

    def _score_rank(self, blocks: Sequence[Block]) -> List[float]:
        """Scores of one rank's blocks, in block order."""
        return [float(s) for s in self.metric.score_blocks([b.data for b in blocks])]

    # -- step execution ----------------------------------------------------------

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]]
    ) -> Tuple[List[List[ScorePair]], List[List[Block]], Dict[str, object]]:
        """Score every rank's blocks.

        Returns
        -------
        (per_rank_pairs, per_rank_blocks, info)
            ``per_rank_pairs[r]`` is the list of ``(block_id, score)`` pairs of
            rank ``r``; ``per_rank_blocks`` is the input with scores attached
            to the blocks; ``info`` holds measured and modelled per-rank
            seconds.
        """
        per_rank_pairs: List[List[ScorePair]] = []
        scored_blocks: List[List[Block]] = []
        measured: List[float] = []
        modelled: List[float] = []
        for blocks in per_rank_blocks:
            with Timer() as timer:
                scores = self._score_rank(blocks)
                pairs = [
                    (block.block_id, score) for block, score in zip(blocks, scores)
                ]
                scored = [
                    block.with_score(score) for block, score in zip(blocks, scores)
                ]
            npoints = sum(int(block.data.size) for block in blocks)
            per_rank_pairs.append(pairs)
            scored_blocks.append(scored)
            measured.append(timer.elapsed)
            modelled.append(
                self.platform.scoring_seconds(self.metric, npoints, len(blocks))
            )
        info = {
            "measured_per_rank": measured,
            "modelled_per_rank": modelled,
            "measured_max": max(measured) if measured else 0.0,
            "modelled_max": max(modelled) if modelled else 0.0,
        }
        return per_rank_pairs, scored_blocks, info

    def execute(self, context: IterationContext) -> StepReport:
        """Run the step over the context's blocks (PipelineStep contract)."""
        pairs, scored, info = self.run(context.per_rank_blocks)
        context.per_rank_pairs = pairs
        context.per_rank_blocks = scored
        nblocks = sum(len(p) for p in pairs)
        npoints = sum(
            int(block.data.size) for blocks in scored for block in blocks
        )
        return StepReport(
            step=self.name,
            measured_per_rank=list(info["measured_per_rank"]),
            modelled_per_rank=list(info["modelled_per_rank"]),
            counters={"nblocks": float(nblocks), "npoints": float(npoints)},
        )


class VectorizedScoringStep(ScoringStep):
    """Scores all ranks' blocks as stacked structure-of-arrays batches.

    Because scoring is embarrassingly parallel, the step batches *across*
    ranks: every block of the iteration is grouped by payload shape/dtype
    (a handful of groups for a typical decomposition), each group's payloads
    are stacked into one ``(nblocks, sx, sy, sz)`` array — the
    :class:`~repro.grid.batch.BlockBatch` data layout — and scored with a
    single ``metric.score_batch`` call.  Only the payloads are stacked here;
    scoring never reads the batch metadata, so the hot path skips building
    the id/extent/owner arrays (use :func:`~repro.grid.batch.partition_by_shape`
    when a full :class:`BlockBatch` is needed).  Scores are scattered back to
    the original block order, so the output is indistinguishable from
    :class:`ScoringStep`'s.

    Measured wall-clock is attributed to ranks proportionally to their point
    counts (the single pass does every rank's work at once); the modelled
    per-rank seconds are computed exactly as in the serial step.
    """

    name = "scoring"

    def _score_rank(self, blocks: Sequence[Block]) -> List[float]:
        if not blocks:
            return []
        if not self.metric.supports_batch:
            # Stacking buys nothing when score_batch would loop per block
            # anyway (coder-based metrics); skip the payload copies.
            return super()._score_rank(blocks)
        scores = np.empty(len(blocks), dtype=np.float64)
        for indices in group_positions_by_shape(blocks):
            stacked = np.stack([blocks[i].data for i in indices])
            scores[indices] = self.metric.score_batch(stacked)
        return [float(s) for s in scores]

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]]
    ) -> Tuple[List[List[ScorePair]], List[List[Block]], Dict[str, object]]:
        """Score every rank's blocks in one cross-rank vectorised pass."""
        if not self.metric.supports_batch and (
            type(self.metric).score_blocks is not ScoreMetric.score_blocks
        ):
            # A metric that overrides score_blocks may apply cross-block
            # logic (e.g. normalisation over one rank's list); the cross-rank
            # pass would change the lists it sees.  Use the per-rank
            # reference path so every backend scores identically.
            return ScoringStep.run(self, per_rank_blocks)
        all_blocks: List[Block] = []
        rank_slices: List[Tuple[int, int]] = []
        for blocks in per_rank_blocks:
            rank_slices.append((len(all_blocks), len(all_blocks) + len(blocks)))
            all_blocks.extend(blocks)
        with Timer() as timer:
            scores = self._score_rank(all_blocks)
            scored_all = [
                block.with_score(score) for block, score in zip(all_blocks, scores)
            ]
        elapsed = timer.elapsed

        per_rank_pairs: List[List[ScorePair]] = []
        scored_blocks: List[List[Block]] = []
        measured: List[float] = []
        modelled: List[float] = []
        rank_points = [
            sum(int(block.data.size) for block in blocks)
            for blocks in per_rank_blocks
        ]
        total_points = sum(rank_points)
        for (lo, hi), blocks, npoints in zip(
            rank_slices, per_rank_blocks, rank_points
        ):
            per_rank_pairs.append(
                [
                    (block.block_id, score)
                    for block, score in zip(blocks, scores[lo:hi])
                ]
            )
            scored_blocks.append(scored_all[lo:hi])
            measured.append(
                elapsed * (npoints / total_points) if total_points else 0.0
            )
            modelled.append(
                self.platform.scoring_seconds(self.metric, npoints, len(blocks))
            )
        info = {
            "measured_per_rank": measured,
            "modelled_per_rank": modelled,
            "measured_max": max(measured) if measured else 0.0,
            "modelled_max": max(modelled) if modelled else 0.0,
        }
        return per_rank_pairs, scored_blocks, info


# -- process-pool workers -----------------------------------------------------
#
# Top-level functions (pickled by reference into the worker processes); the
# payload arrives as a SharedBlockBatch handle, never as bytes.


def _score_shared_batch(
    metric: ScoreMetric, handle: ShmBatchHandle, lo: int, hi: int
) -> np.ndarray:
    """Score rows ``[lo, hi)`` of a shared stacked payload via ``score_batch``."""
    view = SharedBlockBatch.attach(handle)
    try:
        return np.asarray(metric.score_batch(view.data[lo:hi]), dtype=np.float64)
    finally:
        view.close()


def _score_shared_blocks(
    metric: ScoreMetric, handle: ShmBatchHandle, lo: int, hi: int
) -> np.ndarray:
    """Score rows ``[lo, hi)`` one block at a time via ``score_block``.

    This per-row loop is the GIL-bound work the process backend exists for:
    each worker process runs its own interpreter, so ``hi - lo`` pure-Python
    scoring calls proceed concurrently across cores.
    """
    view = SharedBlockBatch.attach(handle)
    try:
        data = view.data
        return np.array(
            [metric.score_block(data[i]) for i in range(lo, hi)], dtype=np.float64
        )
    finally:
        view.close()


class ProcessScoringStep(VectorizedScoringStep):
    """Scores block chunks on the shared process pool, payloads via shm.

    Same cross-rank shape grouping as :class:`VectorizedScoringStep`, but
    each shape group's stacked payload is copied once into a
    :class:`~repro.grid.shm.SharedBlockBatch` segment and workers score
    contiguous row ranges of the shared view — the task queue only ever
    carries the metric, a segment handle, and two integers.  Chunking is
    safe: batched scores are bitwise identical to per-block scores, hence
    independent of the chunk boundaries.  Because worker processes do not
    share the GIL, this is the backend that makes *pure-Python* per-block
    metrics scale with cores; for GIL-releasing NumPy metrics the
    in-process vectorized backend remains the better choice (no segment
    copy, no task pickling).

    The metric must be picklable (the built-in metrics are plain
    dataclasses; user metrics must be module-level classes).  A metric that
    overrides ``score_blocks`` may apply cross-block logic (e.g.
    normalisation over the whole list), which chunking would silently
    change; such metrics are routed through one unchunked reference call.
    Every segment is disposed in a ``finally`` block, so worker exceptions
    cannot leak shared memory.
    """

    name = "scoring"

    def __init__(
        self,
        metric: ScoreMetric,
        platform: PlatformModel,
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__(metric, platform)
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers or default_process_workers())

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The engine-wide shared process pool (created on first use)."""
        return shared_process_pool()

    def _score_rank(self, blocks: Sequence[Block]) -> List[float]:
        if not blocks:
            return []
        overridden = type(self.metric).score_blocks is not ScoreMetric.score_blocks
        if not self.metric.supports_batch and overridden:
            # Cross-block semantics: one unchunked call (see class docs).
            return ScoringStep._score_rank(self, blocks)
        worker = (
            _score_shared_batch
            if self.metric.supports_batch
            else _score_shared_blocks
        )
        scores = np.empty(len(blocks), dtype=np.float64)
        shared: List[SharedBlockBatch] = []
        pending: List[Tuple[List[int], Future]] = []
        try:
            for indices in group_positions_by_shape(blocks):
                segment = SharedBlockBatch.create(
                    np.stack([blocks[i].data for i in indices])
                )
                shared.append(segment)
                handle = segment.handle()
                for lo, hi in chunk_bounds(len(indices), 2 * self.max_workers):
                    pending.append(
                        (
                            indices[lo:hi],
                            self.pool.submit(worker, self.metric, handle, lo, hi),
                        )
                    )
            for chunk, future in pending:
                scores[chunk] = np.asarray(future.result(), dtype=np.float64)
        finally:
            for segment in shared:
                segment.dispose()
        return [float(s) for s in scores]
