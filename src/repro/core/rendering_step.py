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
* :class:`VectorizedRenderingStep` — every group of the batch-native state
  (one stacked :class:`~repro.grid.batch.BlockBatch` per payload
  shape/dtype) goes through one kernel call: ``count_active_cells_batch`` in
  counting mode, ``extract_isosurface_batch`` in mesh mode, whose row-sorted
  triangle soups become each rank's merged mesh directly; results are
  aggregated per rank and no ``Block`` is built;
* :class:`ProcessRenderingStep` — counting mode fanned out over the shared
  process pool, payloads crossing zero-copy through
  :class:`~repro.grid.shm.SharedBlockBatch` segments (the mesh pass stays
  in-process).

All backends produce identical counts, triangles, meshes and modelled
seconds — measured wall-clock is the one quantity that legitimately differs.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.step import BatchGroup, IterationContext, StepReport, cat
from repro.grid.block import Block
from repro.grid.shm import SharedBlockBatch, ShmBatchHandle, map_shared
from repro.perfmodel.platform import PlatformModel
from repro.utils.procpool import default_process_workers, shared_process_pool
from repro.utils.timer import Timer
from repro.viz.catalyst import CatalystPipeline, IsosurfaceScript, RenderResult
from repro.viz.marching_cubes import count_active_cells_batch, extract_isosurface_batch
from repro.viz.mesh import TriangleMesh


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
        return results, self._summarise(results, [len(b) for b in per_rank_blocks])

    def _summarise(
        self, results: Sequence[RenderResult], nblocks: Sequence[int]
    ) -> Dict[str, object]:
        """Timing summary of per-rank results (see :meth:`run`)."""
        measured = [result.measured_seconds for result in results]
        triangles = [result.ntriangles for result in results]
        modelled = [
            self.platform.render.rank_seconds(
                ntriangles=result.ntriangles, npoints=result.npoints, nblocks=count
            )
            for result, count in zip(results, nblocks)
        ]
        return {
            "measured_per_rank": measured,
            "modelled_per_rank": modelled,
            "triangles_per_rank": triangles,
            "measured_max": max(measured) if measured else 0.0,
            "modelled_max": max(modelled) if modelled else 0.0,
            "total_triangles": int(sum(triangles)),
        }

    def execute(self, context: IterationContext) -> StepReport:
        """Render the context's blocks (PipelineStep contract)."""
        results, info = self.run(context.per_rank_blocks, context.iteration)
        context.render_results = results
        return self._report(info)

    def _report(self, info: Dict[str, object]) -> StepReport:
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
    """Rendering of the batch-native state, one kernel call per shape group.

    Rendering batches *across* ranks, exactly like the vectorised scoring
    step: every :class:`~repro.core.step.BatchGroup` of the context goes
    through one kernel call over its stacked payload, and the results are
    aggregated per rank in ``context.rank_order()``, so the whole iteration
    costs a handful of NumPy calls and builds no ``Block``.  Counting mode
    calls ``count_active_cells_batch``; mesh mode calls
    ``extract_isosurface_batch`` with the rows' coordinates
    (``IsosurfaceScript.batch_coords``) and builds each rank's merged mesh
    straight from the row-sorted triangle soups.  Counts, triangles, meshes
    and modelled seconds are bitwise identical to :class:`RenderingStep`'s;
    only measured wall-clock differs, and the single pass's elapsed time is
    attributed to ranks proportionally to their payload point counts (the
    convention the scoring step set).
    """

    batch_native = True

    def _count_groups(self, payloads: List[np.ndarray]) -> List[np.ndarray]:
        """Active-cell counts of every stacked payload (the backend hook)."""
        return [count_active_cells_batch(p, self.script.level) for p in payloads]

    def _extract_groups(
        self, groups: Sequence[BatchGroup], perm: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Mesh mode: ``(soup, triangles, cells)`` of every row in ``perm``
        order; the soup holds the rows' triangles back to back."""
        extracted = [
            extract_isosurface_batch(
                g.batch.data, self.script.level, self.script.batch_coords(g.batch)
            )
            for g in groups
        ]
        soups = [soup for soup, _, _ in extracted]
        cells = cat(cells for _, _, cells in extracted)[perm]
        triangles = cat(np.diff(bounds) for _, bounds, _ in extracted)[perm]
        # Each row's first triangle in the concatenated soups, then a gather
        # that lays the rows' ranges back to back in ``perm`` order.
        offsets = np.cumsum([0] + [soup.shape[0] for soup in soups])
        starts = cat(b[:-1] + o for (_, b, _), o in zip(extracted, offsets))[perm]
        gather = np.repeat(starts - (np.cumsum(triangles) - triangles), triangles)
        gather += np.arange(gather.size)
        soup = np.concatenate(soups) if soups else np.zeros((0, 3, 3))
        return soup[gather], triangles, cells

    def run(
        self, per_rank_blocks: Sequence[Sequence[Block]], iteration: int
    ) -> Tuple[List[RenderResult], Dict[str, object]]:
        """Block-list adapter: stack, render the groups."""
        context = IterationContext(iteration, 0.0, len(per_rank_blocks), per_rank_blocks)
        self.execute(context)
        results = context.render_results
        return results, self._summarise(results, [len(b) for b in per_rank_blocks])

    def execute(self, context: IterationContext) -> StepReport:
        """Render the context's groups (PipelineStep contract)."""
        groups = context.groups
        perm, bounds = context.rank_order()
        results: List[RenderResult] = []
        with Timer() as timer:
            ids = cat(g.batch.block_ids for g in groups)[perm]
            points = cat(g.row_points for g in groups)[perm]
            triangles = None
            meshes = [None] * context.nranks
            if self.script.mode == "mesh":
                soup, triangles, cells = self._extract_groups(groups, perm)
                splits = np.concatenate(([0], np.cumsum(triangles)))[bounds[1:-1]]
                meshes = [TriangleMesh.from_triangle_soup(s) for s in np.split(soup, splits)]
            else:
                cells = cat(self._count_groups([g.batch.data for g in groups]))[perm]
            for lo, hi, mesh in zip(bounds[:-1].tolist(), bounds[1:].tolist(), meshes):
                result = RenderResult(
                    script_name=self.script.name, iteration=context.iteration
                )
                self.script.record_counts(
                    result,
                    ids[lo:hi],
                    cells[lo:hi],
                    int(points[lo:hi].sum()),
                    None if triangles is None else triangles[lo:hi],
                )
                if mesh is not None:
                    self.script.finalize_mesh(result, mesh)
                results.append(result)
        total_points = int(points.sum())
        for result in results:
            result.measured_seconds = (
                timer.elapsed * (result.npoints / total_points) if total_points else 0.0
            )
        context.render_results = results
        return self._report(self._summarise(results, np.diff(bounds).tolist()))


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

    The per-rank aggregation of :class:`VectorizedRenderingStep` is kept;
    only the counting moves to worker processes.  Each group's stacked
    payload crosses the boundary once through a
    :class:`~repro.grid.shm.SharedBlockBatch` segment and workers count
    contiguous row ranges of the shared view, so the task queue carries only
    handles and bounds.  Counts — and everything derived from them — are
    bitwise identical to the other backends'.

    Mesh mode runs the inherited in-process batched extraction: the
    triangle soups are larger than the payloads they come from, so shipping
    them back from workers would cost more than the extraction itself.
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

    def _count_groups(self, payloads: List[np.ndarray]) -> List[np.ndarray]:
        return map_shared(
            self.pool, _count_shared_batch, self.script.level, payloads, 2 * self.max_workers
        )
