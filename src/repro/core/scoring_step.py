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
* :class:`VectorizedScoringStep` — scores the context's batch-native state
  (one stacked ``(nblocks, sx, sy, sz)``
  :class:`~repro.grid.batch.BlockBatch` per payload shape/dtype, built once
  per iteration by the engine) with one ``metric.score_batch`` call per
  group, and writes the scores into the groups' ``scores`` arrays — no
  ``Block`` is cloned.  Metrics without a vectorised ``score_batch`` score
  the rows one at a time;
* :class:`ProcessScoringStep` — the same groups, split into chunks and
  fanned out over the shared *process* pool, with payloads crossing the
  boundary zero-copy through :class:`~repro.grid.shm.SharedBlockBatch`
  segments.  This is the backend for GIL-bound metrics (pure-Python scalar
  scorers), which a single interpreter cannot speed up.

All three produce bitwise-identical scores, so the execution engine can pick
any backend without perturbing any downstream decision.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.step import IterationContext, StepReport, cat
from repro.grid.block import Block
from repro.grid.shm import SharedBlockBatch, ShmBatchHandle, map_shared
from repro.metrics.base import ScoreMetric
from repro.perfmodel.platform import PlatformModel
from repro.utils.procpool import default_process_workers, shared_process_pool
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
    """Scores the batch-native iteration state, one call per shape group.

    Because scoring is embarrassingly parallel, the step batches *across*
    ranks: every :class:`~repro.core.step.BatchGroup` of the context is
    scored with a single ``metric.score_batch`` call over its stacked
    ``(nblocks, sx, sy, sz)`` payload, and the scores are written into the
    group's ``scores`` array.  Metrics without a vectorised ``score_batch``
    score the group's rows one at a time through ``score_blocks``; a metric
    that overrides ``score_blocks`` may apply cross-block logic over one
    rank's list, so it takes the per-rank reference path instead.

    Measured wall-clock is attributed to ranks proportionally to their point
    counts (the single pass does every rank's work at once); the modelled
    per-rank seconds are computed exactly as in the serial step.
    """

    name = "scoring"
    batch_native = True

    @property
    def _per_rank_reference(self) -> bool:
        """Whether the metric needs the per-rank reference path."""
        return not self.metric.supports_batch and (
            type(self.metric).score_blocks is not ScoreMetric.score_blocks
        )

    def _score_groups(self, payloads: List[np.ndarray]) -> List[np.ndarray]:
        """Scores of every stacked payload (the backend hook)."""
        if self.metric.supports_batch:
            return [self.metric.score_batch(p) for p in payloads]
        return [self.metric.score_blocks(list(p)) for p in payloads]

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]]
    ) -> Tuple[List[List[ScorePair]], List[List[Block]], Dict[str, object]]:
        """Block-list adapter: stack, score the groups, materialise."""
        if self._per_rank_reference:
            return ScoringStep.run(self, per_rank_blocks)
        context = IterationContext(0, 0.0, len(per_rank_blocks), per_rank_blocks)
        report = self.execute(context)
        return context.per_rank_pairs, context.per_rank_blocks, report.info()

    def execute(self, context: IterationContext) -> StepReport:
        """Score the context's groups (PipelineStep contract)."""
        if self._per_rank_reference:
            return ScoringStep.execute(self, context)
        with Timer() as timer:
            scores = self._score_groups([g.batch.data for g in context.groups])
            groups = context.groups = [
                replace(g, batch=g.batch.with_scores(np.asarray(s, dtype=np.float64)))
                for g, s in zip(context.groups, scores)
            ]
        perm, bounds = context.rank_order()
        ids = cat(g.batch.block_ids for g in groups)[perm].tolist()
        flat = cat((g.batch.scores for g in groups), np.float64)[perm].tolist()
        pairs = list(zip(ids, flat))
        context.per_rank_pairs = [pairs[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
        ranks = cat(g.ranks for g in groups)
        rank_points = np.bincount(
            ranks, weights=cat(g.row_points for g in groups), minlength=context.nranks
        ).astype(np.int64)
        total = int(rank_points.sum())
        modelled = [
            self.platform.scoring_seconds(self.metric, int(npoints), int(hi - lo))
            for npoints, lo, hi in zip(rank_points, bounds[:-1], bounds[1:])
        ]
        return StepReport(
            step=self.name,
            measured_per_rank=[
                timer.elapsed * (int(p) / total) if total else 0.0 for p in rank_points
            ],
            modelled_per_rank=modelled,
            counters={"nblocks": float(len(pairs)), "npoints": float(total)},
        )


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

    Same batch-native groups as :class:`VectorizedScoringStep`, but each
    group's stacked payload is copied once into a
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
    change; such metrics take the per-rank reference path.
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

    def _score_groups(self, payloads: List[np.ndarray]) -> List[np.ndarray]:
        worker = (
            _score_shared_batch
            if self.metric.supports_batch
            else _score_shared_blocks
        )
        return map_shared(self.pool, worker, self.metric, payloads, 2 * self.max_workers)
