"""The composable step contract of the pipeline.

Every stage of the paper's Figure 2 (score, sort, reduce, redistribute,
render) is a :class:`PipelineStep`: an object with a ``name`` and an
``execute`` method that advances one :class:`IterationContext` and returns a
:class:`StepReport`.  The :class:`~repro.core.engine.ExecutionEngine` runs an
ordered list of steps; :class:`~repro.core.monitor.PerformanceMonitor`
consumes the reports.  Because the contract is uniform, a step's
implementation (serial, vectorised or process-pool scoring, ...) can be
swapped without touching the orchestration code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    List,
    Optional,
    Protocol,
    Set,
    Tuple,
    runtime_checkable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.grid.block import Block
    from repro.viz.catalyst import RenderResult

ScorePair = Tuple[int, float]


@dataclass
class StepReport:
    """Unified outcome record of one pipeline step on one iteration.

    Attributes
    ----------
    step:
        Step name ("scoring", "sorting", ...).
    measured_per_rank:
        Python wall-clock seconds per rank.  Collective steps (sorting,
        redistribution), whose cost is charged to every rank at once, report
        a single entry.
    modelled_per_rank:
        Modelled platform seconds per rank, same convention.
    payload_bytes:
        Bytes the step moved over the (simulated) network.
    counters:
        Scalar step-specific counters (blocks scored, blocks reduced,
        triangles produced, ...).
    per_rank_counters:
        Per-rank step-specific series (e.g. triangle counts used by the
        load-imbalance analyses).
    """

    step: str
    measured_per_rank: List[float] = field(default_factory=list)
    modelled_per_rank: List[float] = field(default_factory=list)
    payload_bytes: float = 0.0
    counters: Dict[str, float] = field(default_factory=dict)
    per_rank_counters: Dict[str, List[float]] = field(default_factory=dict)

    @property
    def measured_max(self) -> float:
        """Slowest rank's measured seconds (0.0 for an empty report)."""
        return max(self.measured_per_rank) if self.measured_per_rank else 0.0

    @property
    def modelled_max(self) -> float:
        """Slowest rank's modelled seconds (0.0 for an empty report).

        Every step of the pipeline ends at a collective, so the slowest rank
        determines the step's contribution to the iteration time.
        """
        return max(self.modelled_per_rank) if self.modelled_per_rank else 0.0

    @classmethod
    def collective(
        cls,
        step: str,
        measured: float,
        modelled: float,
        payload_bytes: float = 0.0,
        counters: Optional[Dict[str, float]] = None,
    ) -> "StepReport":
        """Report of a collective step whose cost applies to all ranks."""
        return cls(
            step=step,
            measured_per_rank=[float(measured)],
            modelled_per_rank=[float(modelled)],
            payload_bytes=float(payload_bytes),
            counters=dict(counters or {}),
        )


@dataclass
class IterationContext:
    """Mutable state threaded through the steps of one iteration.

    The scoring step fills ``per_rank_pairs`` and attaches scores to
    ``per_rank_blocks``; sorting fills ``sorted_pairs``; reduction and
    redistribution rewrite ``per_rank_blocks``; rendering fills
    ``render_results``.  ``reports`` accumulates every step's
    :class:`StepReport` keyed by step name, in execution order.
    """

    iteration: int
    percent: float
    nranks: int
    per_rank_blocks: List[List["Block"]]
    per_rank_pairs: Optional[List[List[ScorePair]]] = None
    sorted_pairs: Optional[List[ScorePair]] = None
    reduced_ids: Optional[Set[int]] = None
    #: Target ladder level per reduced block id (the reduction step's quality
    #: ladder decision; ``set(reduction_levels) == reduced_ids``).
    reduction_levels: Optional[Dict[int, int]] = None
    render_results: Optional[List["RenderResult"]] = None
    reports: Dict[str, StepReport] = field(default_factory=dict)

    @property
    def nblocks(self) -> int:
        """Total number of blocks currently held across all ranks."""
        return sum(len(blocks) for blocks in self.per_rank_blocks)

    def require_pairs(self) -> List[List[ScorePair]]:
        """Score pairs, raising if the scoring step has not run yet."""
        if self.per_rank_pairs is None:
            raise RuntimeError("scoring step must run before this step")
        return self.per_rank_pairs

    def require_sorted(self) -> List[ScorePair]:
        """Sorted pairs, raising if the sorting step has not run yet."""
        if self.sorted_pairs is None:
            raise RuntimeError("sorting step must run before this step")
        return self.sorted_pairs


@runtime_checkable
class PipelineStep(Protocol):
    """Contract every pipeline step implements.

    A step reads what it needs from the :class:`IterationContext`, mutates it
    (new block lists, pairs, render results, ...), and returns a
    :class:`StepReport` describing the work it did and what it cost.
    """

    name: str

    def execute(self, context: IterationContext) -> StepReport:
        """Advance ``context`` by one step and report the outcome."""
        ...
