"""Configuration of the adaptive pipeline.

:class:`PipelineConfig` selects the metric, the redistribution strategy, the
rendering mode, the reduction quality ladder and the execution backend
(``"serial"``, ``"vectorized"`` or ``"process"``) of one run;
:class:`AdaptationConfig` configures the Algorithm 1 controller.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.core.backends import engine_backends
from repro.core.reduction_step import validate_quality_ladder
from repro.utils.validation import ensure_in_range, ensure_positive


def __getattr__(name: str):
    # ``ENGINE_BACKENDS`` is derived from the backend registry
    # (:mod:`repro.core.backends`) rather than kept as a second hand-written
    # tuple: a backend registered by a third party is immediately selectable
    # and immediately listed here.  Resolved lazily so late registrations are
    # visible to ``from repro.core.config import ENGINE_BACKENDS`` readers
    # that re-fetch the attribute.
    if name == "ENGINE_BACKENDS":
        return engine_backends()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class AdaptationConfig:
    """Configuration of the Algorithm 1 controller.

    Attributes
    ----------
    enabled:
        Whether the percentage of reduced blocks is adapted at all (the
        fixed-percentage experiments of Figures 6–9 disable it).
    target_seconds:
        The performance constraint: required run time of the full pipeline
        per iteration, in modelled platform seconds.
    initial_percent:
        Percentage used for the first iteration.  The paper starts at 0 ("the
        first output of the simulation is not reduced").
    max_percent:
        Optional user bound on the percentage of reduced blocks (the paper
        notes the maximum "could easily be bounded by the user").
    """

    enabled: bool = True
    target_seconds: float = 30.0
    initial_percent: float = 0.0
    max_percent: float = 100.0

    def __post_init__(self) -> None:
        if self.enabled:
            ensure_positive(self.target_seconds, "target_seconds")
        ensure_in_range(self.initial_percent, (0.0, 100.0), "initial_percent")
        ensure_in_range(self.max_percent, (0.0, 100.0), "max_percent")
        if self.initial_percent > self.max_percent:
            raise ValueError(
                f"initial_percent ({self.initial_percent}) exceeds max_percent "
                f"({self.max_percent})"
            )


@dataclass(frozen=True)
class PipelineConfig:
    """Configuration of one pipeline run.

    Attributes
    ----------
    metric:
        Name of the block-scoring metric (resolved through the default
        metric registry: "VAR", "LEA", "FPZIP", ...).
    redistribution:
        ``"none"``, ``"shuffle"`` (random), or ``"round_robin"``.
    isosurface_level:
        Isovalue of the rendered isosurface (45 dBZ in the paper).
    render_mode:
        ``"count"`` (cheap load proxy, default for large rank counts) or
        ``"mesh"`` (real marching-cubes geometry).
    field_name:
        Field the pipeline visualises.
    adaptation:
        Algorithm 1 configuration.
    shuffle_seed:
        Seed shared by all ranks for the random-shuffle strategy.
    use_modelled_time:
        When True (default) the controller reacts to modelled platform
        seconds; when False it reacts to measured wall-clock (useful for
        pure-software runs without the platform model).
    quality_ladder:
        How the reduction step distributes the selected (lowest-scored)
        blocks over the reduction ladder, as ordered ``(level, fraction)``
        rungs applied to the ascending-score prefix: the first rung's
        fraction of the selected blocks — the very lowest scores — goes to
        that rung's level, the next fraction to the next rung, and so on
        (fractions must sum to 1; per-rung counts are rounded half-up, the
        last rung absorbing the remainder).  Levels are rungs of the ladder
        in :mod:`repro.grid.reduction`: 1 = strided 1/8-ish downsample with
        corners preserved, 2 = the paper's 2×2×2 corner reduction.  The
        default ``((2, 1.0),)`` sends every selected block to the corner
        rung — bit-for-bit the pre-ladder binary behavior.
    engine:
        Execution backend of the step sequence, resolved through the backend
        registry (:mod:`repro.core.backends`), which third-party backends can
        extend.  ``"vectorized"`` (default) runs every data-parallel step
        over stacked :class:`~repro.grid.batch.BlockBatch` arrays — one
        ``score_batch`` call per shape group in scoring, one
        ``np.lexsort`` pass in the sorting collective, one
        ``reduce_to_corners_batch`` corner gather per shape group in
        reduction, one searchsorted/bincount pass in the redistribution
        planner, and one ``count_active_cells_batch`` call per shape group
        in counting-mode rendering.  ``"serial"`` iterates blocks one at a
        time (the reference implementation); ``"process"`` ships scoring
        and rendering to a process pool through shared memory, which is
        how GIL-bound metrics (pure-Python scorers) scale with cores.  All
        backends produce identical scores, sort orders, reduction and
        redistribution decisions, active-cell/triangle counts, and
        modelled timings; measured wall-clock naturally differs
        (the vectorized and process steps attribute one global pass
        proportionally to per-rank work), so runs driven by
        ``use_modelled_time=False`` are backend- and machine-dependent.
    """

    metric: str = "VAR"
    redistribution: str = "none"
    isosurface_level: float = 45.0
    render_mode: str = "count"
    field_name: str = "dbz"
    adaptation: AdaptationConfig = field(default_factory=AdaptationConfig)
    shuffle_seed: int = 2016
    use_modelled_time: bool = True
    engine: str = "vectorized"
    quality_ladder: Tuple[Tuple[int, float], ...] = ((2, 1.0),)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "quality_ladder", validate_quality_ladder(self.quality_ladder)
        )
        if self.redistribution not in ("none", "shuffle", "round_robin"):
            raise ValueError(
                f"redistribution must be 'none', 'shuffle' or 'round_robin', "
                f"got {self.redistribution!r}"
            )
        if self.engine not in engine_backends():
            raise ValueError(
                f"engine must be one of {engine_backends()}, got {self.engine!r}"
            )
        if self.render_mode not in ("count", "mesh"):
            raise ValueError(
                f"render_mode must be 'count' or 'mesh', got {self.render_mode!r}"
            )
        if not self.metric:
            raise ValueError("metric name must not be empty")
        if not self.field_name:
            raise ValueError("field_name must not be empty")
