"""The performance-constrained in situ visualization pipeline (the paper's contribution).

The pipeline consists of the six steps of the paper's Figure 2, applied to the
blocks of every simulation iteration:

1. **Score** blocks with a generic or user-provided metric
   (:mod:`repro.core.scoring_step`);
2. **Sort** the ``<id, score>`` pairs globally and broadcast the sorted list
   (:mod:`repro.core.sorting_step`);
3. **Reduce** the ``p``% lowest-scored blocks to their 8 corners
   (:mod:`repro.core.reduction_step`);
4. **Redistribute** blocks across processes for load balance
   (:mod:`repro.core.redistribution`);
5. **Render** the blocks through the Catalyst-like visualization pipeline
   (:mod:`repro.core.rendering_step`);
6. **Adapt** ``p`` from the measured run time and the target
   (:mod:`repro.core.adaptation`, Algorithm 1).

Each of the five data steps implements the :class:`PipelineStep` contract
(:mod:`repro.core.step`): ``execute(context) -> StepReport``.  The
:class:`ExecutionEngine` (:mod:`repro.core.engine`) resolves each step's
implementation through the backend registry (:mod:`repro.core.backends`) for
a ``"serial"``, ``"vectorized"``, or ``"process"`` backend — selected
through ``PipelineConfig.engine``, extensible by third-party registrations —
and :class:`InSituPipeline` layers the adaptation controller and the
:class:`PerformanceMonitor` on top.  The monitor records per-iteration,
per-step timings in both measured wall-clock and modelled platform seconds,
plus the per-step payload bytes and counters carried by the step reports.
"""

from repro.core.config import PipelineConfig, AdaptationConfig
from repro.core.adaptation import adapt_percent, AdaptationController
from repro.core.backends import (
    STEP_NAMES,
    StepBuildContext,
    build_step,
    engine_backends,
    register_step_backend,
    registered_steps,
    resolve_step_factory,
)
from repro.core.step import (
    IterationContext,
    PipelineStep,
    StepReport,
)
from repro.core.scoring_step import (
    ProcessScoringStep,
    ScoringStep,
    VectorizedScoringStep,
)
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.reduction_step import (
    ReductionStep,
    VectorizedReductionStep,
    select_blocks_to_reduce,
)
from repro.core.redistribution import (
    RedistributionStrategy,
    RedistributionStep,
    NoRedistribution,
    RandomShuffle,
    RoundRobin,
    make_strategy,
)
from repro.core.rendering_step import (
    ProcessRenderingStep,
    RenderingStep,
    VectorizedRenderingStep,
)
from repro.core.engine import ExecutionEngine
from repro.core.monitor import PerformanceMonitor
from repro.core.results import IterationResult, PipelineRunResult
from repro.core.pipeline import InSituPipeline


def __getattr__(name: str):
    # Live view of the registry-derived backend tuple: a frozen import-time
    # binding would hide backends registered after this package was imported
    # (config and engine forward the same way).
    if name == "ENGINE_BACKENDS":
        return engine_backends()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "PipelineConfig",
    "AdaptationConfig",
    "adapt_percent",
    "AdaptationController",
    "IterationContext",
    "PipelineStep",
    "StepReport",
    "ScoringStep",
    "VectorizedScoringStep",
    "ProcessScoringStep",
    "SortingStep",
    "VectorizedSortingStep",
    "ReductionStep",
    "VectorizedReductionStep",
    "select_blocks_to_reduce",
    "STEP_NAMES",
    "StepBuildContext",
    "build_step",
    "engine_backends",
    "register_step_backend",
    "registered_steps",
    "resolve_step_factory",
    "RedistributionStrategy",
    "RedistributionStep",
    "NoRedistribution",
    "RandomShuffle",
    "RoundRobin",
    "make_strategy",
    "RenderingStep",
    "VectorizedRenderingStep",
    "ProcessRenderingStep",
    "ENGINE_BACKENDS",
    "ExecutionEngine",
    "PerformanceMonitor",
    "IterationResult",
    "PipelineRunResult",
    "InSituPipeline",
]
