"""Step 5: rendering through the Catalyst-like visualization pipeline.

Each rank runs the isosurface script over the blocks it currently owns.  The
step's modelled time is the *maximum* of the per-rank modelled rendering
times (the rendering ends with a synchronous composition, so the slowest
process drives the total — the load-imbalance effect the redistribution step
attacks).

Like the scoring step, the rendering step comes in three implementations of
one contract, selected by ``PipelineConfig.engine``:

* :class:`RenderingStep` — the reference loop: every rank's blocks go through
  ``IsosurfaceScript.process`` one block at a time;
* :class:`VectorizedRenderingStep` — counting mode groups each rank's blocks
  by payload shape (the :class:`~repro.grid.batch.BlockBatch` layout; all
  reduced 2×2×2 blocks form one stacked group) and counts every group with a
  single vectorised ``count_active_cells_batch`` pass.  Mesh mode extracts
  real geometry, which cannot be stacked, and falls back to the reference
  per-block extraction;
* :class:`ProcessRenderingStep` — counting mode fanned out over the shared
  process pool, payloads crossing zero-copy through
  :class:`~repro.grid.shm.SharedBlockBatch` segments (mesh mode falls back
  to the vectorised path).

All backends produce identical counts, triangle estimates, and modelled
seconds — measured wall-clock is the one quantity that legitimately differs.
"""

from __future__ import annotations

from concurrent.futures import Future, ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.step import IterationContext, StepReport
from repro.grid.batch import group_positions_by_shape
from repro.grid.block import Block
from repro.grid.shm import SharedBlockBatch, ShmBatchHandle
from repro.perfmodel.platform import PlatformModel
from repro.utils.procpool import (
    chunk_bounds,
    default_process_workers,
    shared_process_pool,
)
from repro.utils.timer import Timer
from repro.viz.catalyst import CatalystPipeline, IsosurfaceScript, RenderResult
from repro.viz.marching_cubes import count_active_cells_batch


class RenderingStep:
    """Runs the visualization scripts on every rank and prices the work."""

    name = "rendering"

    def __init__(
        self,
        platform: PlatformModel,
        isosurface_level: float = 45.0,
        render_mode: str = "count",
        render_image: bool = False,
    ) -> None:
        self.platform = platform
        self.script = IsosurfaceScript(
            level=isosurface_level,
            mode="mesh" if render_mode == "mesh" else "count",
            render_image=render_image and render_mode == "mesh",
        )
        self.pipeline = CatalystPipeline([self.script])

    # -- rendering backend ---------------------------------------------------

    def _render_all(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> List[RenderResult]:
        """One :class:`RenderResult` per rank (the backend hook)."""
        return [
            self.pipeline.coprocess(blocks, iteration)[0]
            for blocks in per_rank_blocks
        ]

    # -- step execution ------------------------------------------------------

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> Tuple[List[RenderResult], Dict[str, object]]:
        """Render every rank's blocks.

        Returns
        -------
        (per_rank_results, info)
            One :class:`RenderResult` per rank and a timing summary with the
            per-rank and maximum modelled rendering seconds, plus per-rank
            triangle counts (used for load-imbalance analyses).
        """
        results = self._render_all(per_rank_blocks, iteration)
        modelled: List[float] = []
        measured: List[float] = []
        triangles: List[int] = []
        for blocks, result in zip(per_rank_blocks, results):
            measured.append(result.measured_seconds)
            triangles.append(result.ntriangles)
            modelled.append(
                self.platform.render.rank_seconds(
                    ntriangles=result.ntriangles,
                    npoints=result.npoints,
                    nblocks=len(blocks),
                )
            )
        info = {
            "measured_per_rank": measured,
            "modelled_per_rank": modelled,
            "triangles_per_rank": triangles,
            "measured_max": max(measured) if measured else 0.0,
            "modelled_max": max(modelled) if modelled else 0.0,
            "total_triangles": int(sum(triangles)),
        }
        return results, info

    def execute(self, context: IterationContext) -> StepReport:
        """Render the context's blocks (PipelineStep contract)."""
        results, info = self.run(context.per_rank_blocks, context.iteration)
        context.render_results = results
        return StepReport(
            step=self.name,
            measured_per_rank=list(info["measured_per_rank"]),
            modelled_per_rank=list(info["modelled_per_rank"]),
            counters={"total_triangles": float(info["total_triangles"])},
            per_rank_counters={
                "triangles": [float(t) for t in info["triangles_per_rank"]]
            },
        )


class VectorizedRenderingStep(RenderingStep):
    """Rendering through the script's shape-grouped batch path.

    Counting mode — the cheap load proxy the large virtual-rank experiments
    run — batches *across* ranks, exactly like the vectorised scoring step:
    every block of the iteration is grouped by payload shape (the
    :class:`~repro.grid.batch.BlockBatch` layout; all reduced 2×2×2 blocks
    form one stacked group) and each group is counted with a single
    ``count_active_cells_batch`` pass, so the whole iteration costs a
    handful of NumPy calls instead of one Python iteration per block.
    Counts, triangle estimates, and modelled seconds are bitwise identical
    to :class:`RenderingStep`'s; only measured wall-clock differs, and the
    single pass's elapsed time is attributed to ranks proportionally to
    their payload point counts (the convention the scoring step set).  Mesh
    mode extracts per-block geometry, which cannot be stacked, and is
    identical to the reference loop.
    """

    def _render_all(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> List[RenderResult]:
        if self.script.mode != "count":
            return [
                self.script.process_batch(blocks, iteration)
                for blocks in per_rank_blocks
            ]
        all_blocks: List[Block] = []
        rank_slices: List[Tuple[int, int]] = []
        for blocks in per_rank_blocks:
            rank_slices.append((len(all_blocks), len(all_blocks) + len(blocks)))
            all_blocks.extend(blocks)
        results: List[RenderResult] = []
        with Timer() as timer:
            counts = self._count_all(all_blocks)
            for (lo, hi), blocks in zip(rank_slices, per_rank_blocks):
                result = RenderResult(
                    script_name=self.script.name, iteration=iteration
                )
                for block, cells in zip(blocks, counts[lo:hi]):
                    result.npoints += int(block.data.size)
                    self.script.record_count(result, block.block_id, cells)
                results.append(result)
        elapsed = timer.elapsed
        total_points = sum(result.npoints for result in results)
        for result in results:
            result.measured_seconds = (
                elapsed * (result.npoints / total_points) if total_points else 0.0
            )
        return results

    def _count_all(self, blocks: Sequence[Block]) -> np.ndarray:
        """Per-block active-cell counts (the counting-mode backend hook)."""
        return self.script.count_blocks_batched(blocks)


def _count_shared_batch(
    level: float, handle: ShmBatchHandle, lo: int, hi: int
) -> np.ndarray:
    """Process-pool worker: active-cell counts for rows ``[lo, hi)`` of a
    shared stacked payload.  ``count_active_cells_batch`` treats every block
    independently, so counts do not depend on the chunk boundaries."""
    view = SharedBlockBatch.attach(handle)
    try:
        return count_active_cells_batch(view.data[lo:hi], level)
    finally:
        view.close()


class ProcessRenderingStep(VectorizedRenderingStep):
    """Counting-mode rendering fanned out over the shared process pool.

    The cross-rank assembly of :class:`VectorizedRenderingStep` is kept; only
    the per-block counting moves to worker processes.  Each shape group's
    stacked payload crosses the boundary once through a
    :class:`~repro.grid.shm.SharedBlockBatch` segment and workers count
    contiguous row ranges of the shared view, so the task queue carries only
    handles and bounds.  Counts — and everything derived from them — are
    bitwise identical to the other backends'.

    Mesh mode extracts real per-block geometry; the meshes cannot be stacked
    into a shared segment, and pickling them back to the parent costs more
    than the extraction itself, so mesh mode falls back to the inherited
    vectorised path (a documented serial fallback, like the sorting /
    reduction / redistribution steps of this backend).
    """

    def __init__(
        self,
        platform: PlatformModel,
        isosurface_level: float = 45.0,
        render_mode: str = "count",
        render_image: bool = False,
        max_workers: Optional[int] = None,
    ) -> None:
        super().__init__(
            platform,
            isosurface_level=isosurface_level,
            render_mode=render_mode,
            render_image=render_image,
        )
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = int(max_workers or default_process_workers())

    @property
    def pool(self) -> ProcessPoolExecutor:
        """The engine-wide shared process pool (created on first use)."""
        return shared_process_pool()

    def _count_all(self, blocks: Sequence[Block]) -> np.ndarray:
        counts = np.zeros(len(blocks), dtype=np.int64)
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
                            self.pool.submit(
                                _count_shared_batch,
                                self.script.level,
                                handle,
                                lo,
                                hi,
                            ),
                        )
                    )
            for chunk, future in pending:
                counts[chunk] = np.asarray(future.result(), dtype=np.int64)
        finally:
            for segment in shared:
                segment.dispose()
        return counts
