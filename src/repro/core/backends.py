"""The backend registry: every Figure-2 step on every engine backend.

The :class:`~repro.core.engine.ExecutionEngine` does not hard-wire its step
implementations; it resolves each of the paper's five steps through this
registry, keyed by ``(step_name, backend)``.  A :data:`StepFactory` is a
callable receiving a :class:`StepBuildContext` (the engine's already-built
collaborators: config, platform, communicator, metric, strategy) and
returning the step instance.  The built-in backends — ``"serial"``,
``"vectorized"``, ``"process"`` — register their fifteen factories at import
time; :func:`engine_backends` derives the authoritative backend tuple from
the registrations, so ``ENGINE_BACKENDS`` is a *view* of the registry rather
than a second source of truth.

Third-party backends plug in without editing the engine::

    from repro.core.backends import register_step_backend

    @register_step_backend("scoring", "gpu")
    def _gpu_scoring(ctx):
        return GpuScoringStep(ctx.metric, ctx.platform)

    engine = ExecutionEngine(config, platform, backend="gpu")

Steps the new backend does not specialise fall back to the ``"serial"``
reference implementation (the same convention the built-in backends used
before the registry existed: sorting, reduction, and redistribution were one
shared implementation until they gained vectorised paths), so registering a
single factory is enough to make a backend selectable.

The pyMOR/NIFTy lineage of this design: algorithms ask a registry/backend
layer for their operations instead of switching on an ``if/elif`` of known
implementations, which is what lets new backends register themselves from
outside the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Tuple

from repro.core.redistribution import RedistributionStep, RedistributionStrategy
from repro.core.reduction_step import (
    ReductionStep,
    VectorizedReductionStep,
)
from repro.core.rendering_step import (
    ProcessRenderingStep,
    RenderingStep,
    VectorizedRenderingStep,
)
from repro.core.scoring_step import (
    ProcessScoringStep,
    ScoringStep,
    VectorizedScoringStep,
)
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.step import PipelineStep

if TYPE_CHECKING:  # pragma: no cover - typing only (avoids a config cycle)
    from repro.core.config import PipelineConfig
    from repro.metrics.base import ScoreMetric
    from repro.perfmodel.platform import PlatformModel
    from repro.simmpi.communicator import BSPCommunicator

__all__ = [
    "STEP_NAMES",
    "StepBuildContext",
    "StepFactory",
    "build_step",
    "engine_backends",
    "register_step_backend",
    "registered_steps",
    "resolve_step_factory",
]

#: The ordered step sequence of the paper's Figure 2 (the sixth step,
#: adaptation, is the controller that *consumes* these results).
STEP_NAMES: Tuple[str, ...] = (
    "scoring",
    "sorting",
    "reduction",
    "redistribution",
    "rendering",
)


@dataclass(frozen=True)
class StepBuildContext:
    """Everything a step factory may need, built once by the engine.

    Attributes
    ----------
    config:
        The run's :class:`~repro.core.config.PipelineConfig`.
    platform:
        Cost model converting work counts into modelled platform seconds.
    comm:
        The engine's communicator (shared by the collective steps).
    metric:
        The resolved scoring metric instance.
    strategy:
        The resolved redistribution strategy instance.
    nranks:
        Number of virtual ranks.
    backend:
        The backend the engine is being built for (factories registered for
        several backends can branch on it).
    """

    config: "PipelineConfig"
    platform: "PlatformModel"
    comm: "BSPCommunicator"
    metric: "ScoreMetric"
    strategy: "RedistributionStrategy"
    nranks: int
    backend: str


StepFactory = Callable[[StepBuildContext], PipelineStep]

_REGISTRY: Dict[Tuple[str, str], StepFactory] = {}
_BACKEND_ORDER: List[str] = []


def register_step_backend(
    step_name: str, backend: str, factory: Optional[StepFactory] = None
):
    """Register ``factory`` as the ``backend`` implementation of ``step_name``.

    Usable directly (``register_step_backend("scoring", "gpu", make_step)``)
    or as a decorator (``@register_step_backend("scoring", "gpu")``).
    Re-registering a key overwrites it — that is how a downstream package
    deliberately replaces a built-in implementation.
    """
    step_key = step_name.strip().lower()
    backend_key = backend.strip().lower()
    if not step_key or not backend_key:
        raise ValueError("step_name and backend must be non-empty")

    def register(func: StepFactory) -> StepFactory:
        _REGISTRY[(step_key, backend_key)] = func
        if backend_key not in _BACKEND_ORDER:
            _BACKEND_ORDER.append(backend_key)
        return func

    return register if factory is None else register(factory)


def engine_backends() -> Tuple[str, ...]:
    """Selectable engine backends, in registration order.

    This is what ``ENGINE_BACKENDS`` (re-exported by
    :mod:`repro.core.config` and :mod:`repro.core.engine`) resolves to: the
    registry is the single source of truth, so a backend registered by a
    third party is immediately selectable through ``PipelineConfig.engine``.
    """
    return tuple(_BACKEND_ORDER)


def registered_steps(backend: str) -> Tuple[str, ...]:
    """Step names ``backend`` registers its own implementation for."""
    backend_key = backend.strip().lower()
    return tuple(step for step, key in _REGISTRY if key == backend_key)


def resolve_step_factory(step_name: str, backend: str) -> StepFactory:
    """The factory for ``(step_name, backend)``.

    Falls back to the ``"serial"`` reference implementation for steps the
    backend does not specialise; raises ``KeyError`` only when the step is
    unknown to the serial backend too.
    """
    step_key = step_name.strip().lower()
    backend_key = backend.strip().lower()
    factory = _REGISTRY.get((step_key, backend_key))
    if factory is not None:
        return factory
    fallback = _REGISTRY.get((step_key, "serial"))
    if fallback is not None:
        return fallback
    raise KeyError(
        f"no step factory registered for step {step_name!r} "
        f"(backend {backend!r}, and no 'serial' fallback)"
    )


def build_step(step_name: str, backend: str, context: StepBuildContext) -> PipelineStep:
    """Build the ``backend`` implementation of ``step_name`` for ``context``."""
    return resolve_step_factory(step_name, backend)(context)


# -- built-in registrations -----------------------------------------------------
#
# Registration order defines engine_backends() — serial first (it is also the
# fallback), then vectorized (the default), then process.

register_step_backend(
    "scoring", "serial", lambda ctx: ScoringStep(ctx.metric, ctx.platform)
)
register_step_backend("sorting", "serial", lambda ctx: SortingStep(ctx.comm))
register_step_backend(
    "reduction",
    "serial",
    lambda ctx: ReductionStep(ctx.platform, quality_ladder=ctx.config.quality_ladder),
)
register_step_backend(
    "redistribution",
    "serial",
    lambda ctx: RedistributionStep(ctx.strategy, ctx.comm),
)
register_step_backend(
    "rendering",
    "serial",
    lambda ctx: RenderingStep(
        ctx.platform,
        isosurface_level=ctx.config.isosurface_level,
        render_mode=ctx.config.render_mode,
    ),
)

register_step_backend(
    "scoring",
    "vectorized",
    lambda ctx: VectorizedScoringStep(ctx.metric, ctx.platform),
)
register_step_backend(
    "sorting", "vectorized", lambda ctx: VectorizedSortingStep(ctx.comm)
)
register_step_backend(
    "reduction",
    "vectorized",
    lambda ctx: VectorizedReductionStep(
        ctx.platform, quality_ladder=ctx.config.quality_ladder
    ),
)
register_step_backend(
    "redistribution",
    "vectorized",
    lambda ctx: RedistributionStep(ctx.strategy, ctx.comm),
)
register_step_backend(
    "rendering",
    "vectorized",
    lambda ctx: VectorizedRenderingStep(
        ctx.platform,
        isosurface_level=ctx.config.isosurface_level,
        render_mode=ctx.config.render_mode,
    ),
)

# -- the "process" backend ------------------------------------------------------
#
# The two data-parallel hot steps fan out over the shared process pool with
# payloads crossing zero-copy through grid.shm segments; the other three
# steps deliberately reuse existing implementations:
#
# * sorting is a rooted collective (rank 0 sorts, everyone receives one
#   broadcast) — there is no per-rank work to ship to another process;
# * reduction reads 8 corner values per selected block, so shipping payloads
#   to workers costs orders of magnitude more than the gather itself —
#   the vectorised in-process pass is the faster "process" implementation;
# * redistribution is a collective exchange plus a searchsorted/bincount
#   planner that is already a single NumPy pass.

register_step_backend(
    "scoring",
    "process",
    lambda ctx: ProcessScoringStep(ctx.metric, ctx.platform),
)
register_step_backend(
    "sorting", "process", lambda ctx: VectorizedSortingStep(ctx.comm)
)
register_step_backend(
    "reduction",
    "process",
    lambda ctx: VectorizedReductionStep(
        ctx.platform, quality_ladder=ctx.config.quality_ladder
    ),
)
register_step_backend(
    "redistribution",
    "process",
    lambda ctx: RedistributionStep(ctx.strategy, ctx.comm),
)
register_step_backend(
    "rendering",
    "process",
    lambda ctx: ProcessRenderingStep(
        ctx.platform,
        isosurface_level=ctx.config.isosurface_level,
        render_mode=ctx.config.render_mode,
    ),
)
