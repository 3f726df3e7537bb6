"""The orchestrating in situ pipeline.

:class:`InSituPipeline` wires the six steps of the paper's Figure 2 together
over a set of virtual ranks: score → sort → reduce → redistribute → render →
adapt.  It takes per-rank block lists as input (one call per simulation
iteration), which is how the simulation — or the dataset replayer standing in
for it — hands data to the in situ layer.

The five data steps live in an :class:`~repro.core.engine.ExecutionEngine`
(selected by ``PipelineConfig.engine``: serial, vectorized, or process —
the backend picks the implementation of every data step); the pipeline adds
the adaptation controller and the performance monitor on top, and runs the
iterations strictly in sequence, as the Algorithm 1 feedback loop requires.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.adaptation import AdaptationController
from repro.core.config import PipelineConfig
from repro.core.engine import ExecutionEngine
from repro.core.monitor import PerformanceMonitor
from repro.core.results import IterationResult, PipelineRunResult
from repro.grid.block import Block
from repro.perfmodel.platform import PlatformModel
from repro.simmpi.communicator import BSPCommunicator
from repro.viz.catalyst import RenderResult


class InSituPipeline:
    """Performance-constrained in situ visualization pipeline.

    Parameters
    ----------
    config:
        Pipeline configuration (metric, redistribution strategy, adaptation
        target, engine backend, ...).
    platform:
        Cost model of the platform the run is meant to represent (64- or
        400-core Blue Waters by default); pass a re-calibrated platform to
        anchor the baselines to the paper's numbers.
    nranks:
        Number of virtual ranks; defaults to ``platform.ncores``.
    comm:
        Optional pre-built communicator (mainly for tests); a fresh
        :class:`BSPCommunicator` is created when omitted.
    """

    def __init__(
        self,
        config: PipelineConfig,
        platform: PlatformModel,
        nranks: Optional[int] = None,
        comm: Optional[BSPCommunicator] = None,
    ) -> None:
        self.config = config
        self.platform = platform
        self.engine = ExecutionEngine(config, platform, nranks=nranks, comm=comm)
        self.nranks = self.engine.nranks
        self.comm = self.engine.comm
        # Step handles, kept as attributes for introspection and tests.
        self.metric = self.engine.metric
        self.scoring = self.engine.scoring
        self.sorting = self.engine.sorting
        self.reduction = self.engine.reduction
        self.strategy = self.engine.strategy
        self.rendering = self.engine.rendering
        self.controller = AdaptationController(config.adaptation)
        self.monitor = PerformanceMonitor()
        self._iteration_index = 0

    # -- main entry point ---------------------------------------------------------

    def process_iteration(
        self,
        per_rank_blocks: Sequence[Sequence[Block]],
        percent_override: Optional[float] = None,
    ) -> Tuple[IterationResult, List[RenderResult]]:
        """Run the full pipeline on one iteration's blocks.

        Parameters
        ----------
        per_rank_blocks:
            ``per_rank_blocks[r]`` is the list of blocks rank ``r`` received
            from the simulation for this iteration.
        percent_override:
            Fixed percentage of blocks to reduce, bypassing the adaptation
            controller (used by the fixed-percentage experiments).

        Returns
        -------
        (iteration_result, render_results)
            The timing record of the iteration and the per-rank render
            results of the final rendering step.
        """
        iteration = self._iteration_index
        percent = (
            float(percent_override)
            if percent_override is not None
            else float(self.controller.next_percent)
        )
        nblocks = sum(len(blocks) for blocks in per_rank_blocks)

        context = self.engine.run_iteration(per_rank_blocks, percent, iteration)
        result = self.engine.iteration_result(context, nblocks=nblocks)
        self.monitor.record_iteration(result)
        # Step 6 of Figure 2: unless the percentage was forced, the
        # adaptation controller observes the full-pipeline time.
        if percent_override is None:
            observed = (
                result.modelled_total
                if self.config.use_modelled_time
                else result.measured_total
            )
            self.controller.observe(percent, observed)
        self._iteration_index += 1
        return result, list(context.render_results or [])

    # -- convenience -----------------------------------------------------------------

    def run(
        self,
        iteration_blocks: Sequence[Sequence[Sequence[Block]]],
        percent_override: Optional[float] = None,
        on_iteration: Optional[Callable[[IterationResult], None]] = None,
    ) -> PipelineRunResult:
        """Process several iterations and return the aggregated run result.

        ``iteration_blocks[i][r]`` is the block list of rank ``r`` at
        iteration ``i``.  ``on_iteration`` (if given) is called with each
        :class:`IterationResult` as soon as it is recorded, in iteration
        order — the hook the serve mode's streaming responses use.  An
        exception raised by ``on_iteration`` stops the run between
        iterations and propagates to the caller.
        """
        for per_rank_blocks in iteration_blocks:
            result, _ = self.process_iteration(
                per_rank_blocks, percent_override=percent_override
            )
            if on_iteration is not None:
                on_iteration(result)
        return self.monitor.to_run_result(self.config_summary())

    def config_summary(self) -> Dict[str, object]:
        """Compact description of the run configuration (for reports)."""
        return {
            "metric": self.config.metric,
            "redistribution": self.config.redistribution,
            "engine": self.engine.backend,
            "nranks": self.nranks,
            "platform": self.platform.name,
            "isosurface_level": self.config.isosurface_level,
            "adaptation_enabled": self.config.adaptation.enabled,
            "target_seconds": self.config.adaptation.target_seconds,
        }
