"""The execution engine: an ordered list of PipelineSteps plus a backend.

The engine owns the communicator, the metric, and the redistribution
strategy, and runs the five concrete steps of the paper's Figure 2 as a
uniform :class:`PipelineStep` sequence over an :class:`IterationContext`.
The steps themselves are not hard-wired: every ``(step, backend)`` pair is
resolved through the backend registry (:mod:`repro.core.backends`), so
third-party backends register factories instead of editing this module, and
``ENGINE_BACKENDS`` is derived from the registry.

The ``backend`` selects how all five data-parallel steps are implemented:

* ``"serial"`` — every step iterates blocks one at a time (the reference
  implementation, and the behaviour of the original hard-wired pipeline):
  per-block scoring through ``metric.score_blocks``, a Python ``sorted``
  over the gathered score tuples, per-block reduction, a per-Block exchange,
  and per-block rendering through ``IsosurfaceScript.process``;
* ``"vectorized"`` — the iteration is batch-native: :meth:`make_context`
  stacks every rank's blocks once into one
  :class:`~repro.grid.batch.BlockBatch` group per payload shape/dtype, and
  the steps carry those arrays through all five stages.  Scoring runs one
  ``score_batch`` call per group, sorting one ``np.lexsort`` over the
  gathered ``(score, id)`` arrays, reduction one ``reduce_to_level_batch``
  call per group and target level, redistribution relabels the owner arrays
  (the exchange is still priced by the moved payload bytes), and
  rendering one ``count_active_cells_batch`` (counting mode) or
  ``extract_isosurface_batch`` (mesh mode) call per group.  ``Block``
  objects are built only when a caller reads ``context.per_rank_blocks``;
* ``"process"`` — the same batch-native state, with scoring and rendering
  shipped to a process pool through shared memory, so GIL-bound per-block
  work scales with cores.

All backends produce bitwise-identical decisions and modelled results (ids,
scores, sort orders, reduction decisions, moved bytes, active-cell and
triangle counts, modelled seconds) — measured wall-clock is the one quantity
that legitimately differs.  Iterations run strictly one after another:
Algorithm 1 feeds each iteration's time into the next.  A new backend plugs
in by registering step factories under a new name.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.backends import (
    STEP_NAMES,
    StepBuildContext,
    build_step,
    engine_backends,
)
from repro.core.config import PipelineConfig
from repro.core.redistribution import make_strategy
from repro.core.results import IterationResult
from repro.core.step import IterationContext, PipelineStep
from repro.grid.block import Block
from repro.metrics.registry import create_metric
from repro.perfmodel.platform import PlatformModel
from repro.simmpi.communicator import BSPCommunicator

__all__ = ["ENGINE_BACKENDS", "ExecutionEngine"]

def __getattr__(name: str):
    # Re-export of the registry-derived backend tuple (kept live so backends
    # registered after import are visible).
    if name == "ENGINE_BACKENDS":
        return engine_backends()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class ExecutionEngine:
    """Runs the pipeline's step sequence over a set of virtual ranks.

    Parameters
    ----------
    config:
        Pipeline configuration (metric, redistribution strategy, engine
        backend, ...).
    platform:
        Cost model converting work counts into modelled platform seconds.
    nranks:
        Number of virtual ranks; defaults to ``platform.ncores``.
    comm:
        Optional pre-built communicator (mainly for tests).
    backend:
        Override of ``config.engine`` (any backend registered in
        :mod:`repro.core.backends` — ``"serial"``, ``"vectorized"``,
        ``"process"``, or a third-party registration).
    """

    def __init__(
        self,
        config: PipelineConfig,
        platform: PlatformModel,
        nranks: Optional[int] = None,
        comm: Optional[BSPCommunicator] = None,
        backend: Optional[str] = None,
    ) -> None:
        self.config = config
        self.platform = platform
        self.backend = (backend or config.engine).strip().lower()
        if self.backend not in engine_backends():
            raise ValueError(
                f"engine backend must be one of {engine_backends()}, "
                f"got {self.backend!r}"
            )
        self.nranks = int(nranks) if nranks is not None else int(platform.ncores)
        if self.nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {self.nranks}")
        self.comm = comm or BSPCommunicator(self.nranks, cost_model=platform.network)
        if self.comm.nranks != self.nranks:
            raise ValueError(
                f"communicator has {self.comm.nranks} ranks, expected {self.nranks}"
            )
        self.metric = create_metric(config.metric)
        self.strategy = make_strategy(config.redistribution, seed=config.shuffle_seed)
        #: The ordered step sequence of the paper's Figure 2 (the sixth step,
        #: adaptation, is the controller that *consumes* these results),
        #: every entry resolved through the backend registry.
        self.steps: List[PipelineStep] = self._build_steps(
            shared_comm=comm is not None
        )
        (
            self.scoring,
            self.sorting,
            self.reduction,
            self.redistribution,
            self.rendering,
        ) = self.steps

    # -- step construction --------------------------------------------------------

    def _build_steps(self, shared_comm: bool) -> List[PipelineStep]:
        """Resolve every Figure-2 step through the registry.

        A collective step reports modelled seconds as the delta of its
        communicator's accumulated total, and the rounding of that
        subtraction depends on what else accumulated in between.  So each
        stage gets a private communicator, which keeps its reported seconds
        independent of the other stages' history; a communicator the caller
        supplied (to inspect it) is shared by every stage instead.
        """
        steps = []
        for name in STEP_NAMES:
            comm = (
                self.comm
                if shared_comm
                else BSPCommunicator(self.nranks, cost_model=self.platform.network)
            )
            context = StepBuildContext(
                config=self.config,
                platform=self.platform,
                comm=comm,
                metric=self.metric,
                strategy=self.strategy,
                nranks=self.nranks,
                backend=self.backend,
            )
            steps.append(build_step(name, self.backend, context))
        return steps

    # -- execution ----------------------------------------------------------------

    def make_context(
        self,
        per_rank_blocks: Sequence[Sequence[Block]],
        percent: float,
        iteration: int,
    ) -> IterationContext:
        """Validate one iteration's input and wrap it in a fresh context
        (stacked once into ``groups`` when the steps are batch-native)."""
        if len(per_rank_blocks) != self.nranks:
            raise ValueError(
                f"expected blocks for {self.nranks} ranks, got {len(per_rank_blocks)}"
            )
        if not (0.0 <= percent <= 100.0):
            raise ValueError(f"percent must be in [0, 100], got {percent}")
        context = IterationContext(
            iteration=int(iteration),
            percent=float(percent),
            nranks=self.nranks,
            per_rank_blocks=[list(blocks) for blocks in per_rank_blocks],
        )
        if any(getattr(step, "batch_native", False) for step in self.steps):
            context.groups  # stack once per iteration, up front
        return context

    def run_iteration(
        self,
        per_rank_blocks: Sequence[Sequence[Block]],
        percent: float,
        iteration: int,
    ) -> IterationContext:
        """Run every step on one iteration's blocks and return the context."""
        context = self.make_context(per_rank_blocks, percent, iteration)
        for step in self.steps:
            context.reports[step.name] = step.execute(context)
        return context

    def iteration_result(
        self, context: IterationContext, nblocks: Optional[int] = None
    ) -> IterationResult:
        """Condense a completed context into an :class:`IterationResult`."""
        reports = context.reports
        rendering = reports.get("rendering")
        triangles = (
            [int(t) for t in rendering.per_rank_counters.get("triangles", [])]
            if rendering is not None
            else []
        )
        reduction = reports.get("reduction")
        redistribution = reports.get("redistribution")
        return IterationResult(
            iteration=context.iteration,
            percent_reduced=context.percent,
            nblocks=int(nblocks) if nblocks is not None else context.nblocks,
            nreduced=int(reduction.counters.get("nreduced", 0.0)) if reduction else 0,
            modelled_steps={name: r.modelled_max for name, r in reports.items()},
            measured_steps={name: r.measured_max for name, r in reports.items()},
            triangles_per_rank=triangles,
            moved_bytes=float(redistribution.payload_bytes) if redistribution else 0.0,
            step_reports=dict(reports),
        )
