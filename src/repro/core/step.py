"""The composable step contract of the pipeline.

Every stage of the paper's Figure 2 (score, sort, reduce, redistribute,
render) is a :class:`PipelineStep`: an object with a ``name`` and an
``execute`` method that advances one :class:`IterationContext` and returns a
:class:`StepReport`.  The :class:`~repro.core.engine.ExecutionEngine` runs an
ordered list of steps; :class:`~repro.core.monitor.PerformanceMonitor`
consumes the reports.  Because the contract is uniform, a step's
implementation (serial, vectorised or process-pool scoring, ...) can be
swapped without touching the orchestration code.

The context holds the blocks in two lazily converted forms: the ``serial``
steps use ``per_rank_blocks``; the vectorized and process steps use
``groups``, the batch-native state of one :class:`BatchGroup` per payload
shape/dtype, stacked once per iteration and indexed instead of cloned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Set,
    Tuple,
    runtime_checkable,
)

import numpy as np

from repro.grid.batch import BlockBatch, partition_by_shape
from repro.grid.block import Block

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.viz.catalyst import RenderResult

ScorePair = Tuple[int, float]


def cat(arrays: Iterable[np.ndarray], dtype=np.int64) -> np.ndarray:
    """``np.concatenate`` that also accepts an empty sequence."""
    arrays = list(arrays)
    return np.concatenate(arrays) if arrays else np.empty(0, dtype=dtype)


def lookup(keys: np.ndarray, values: np.ndarray, query: np.ndarray, default):
    """``values`` at the positions of ``query`` in the ascending ``keys``;
    ``default`` (a scalar or an array shaped like ``query``) where absent."""
    if not keys.size:
        return np.broadcast_to(default, query.shape).copy()
    pos = np.minimum(np.searchsorted(keys, query), keys.size - 1)
    return np.where(keys[pos] == query, values[pos], default)


@dataclass(frozen=True)
class BatchGroup:
    """One payload shape/dtype group of the batch-native iteration state.

    ``ranks[i]`` is the rank holding row ``i`` of ``batch``, ``order[i]`` its
    sort key in that rank's list (input position; block id once exchanged,
    as the per-Block path orders it) and ``sources[i]`` its input ``Block``.
    """

    batch: BlockBatch
    ranks: np.ndarray
    order: np.ndarray
    sources: np.ndarray

    @property
    def row_points(self) -> np.ndarray:
        """Payload points of every row."""
        return np.full(self.batch.nblocks, np.prod(self.batch.block_shape), np.int64)

    def take(self, rows: np.ndarray) -> "BatchGroup":
        """The sub-group of ``rows``."""
        return BatchGroup(
            self.batch.take(rows), self.ranks[rows], self.order[rows], self.sources[rows]
        )

    def to_blocks(self) -> List[Block]:
        """The rows as clones of their source blocks; a reduced row carries
        its (shape-checked by construction) row of the reduced batch."""
        b = self.batch
        columns = (b.owners, b.scores, b.score_mask, b.levels)
        rows = zip(self.sources, *(column.tolist() for column in columns))
        blocks = []
        for i, (source, owner, score, scored, level) in enumerate(rows):
            score = score if scored else None
            if level == source.level:
                blocks.append(source._clone_with(owner=owner, score=score))
            else:
                blocks.append(
                    source._clone_with(
                        owner=owner, score=score, data=b.data[i], level=level, reduced=True
                    )
                )
        return blocks


def stack_groups(per_rank_blocks: Sequence[Sequence[Block]]) -> List[BatchGroup]:
    """Stack every rank's blocks into one :class:`BatchGroup` per shape/dtype."""
    blocks = [block for rank_blocks in per_rank_blocks for block in rank_blocks]
    sources = np.fromiter(blocks, dtype=object, count=len(blocks))
    ranks = np.repeat(
        np.arange(len(per_rank_blocks), dtype=np.int64),
        [len(rank_blocks) for rank_blocks in per_rank_blocks],
    )
    return [
        BatchGroup(batch, ranks[positions], np.asarray(positions), sources[positions])
        for positions, batch in partition_by_shape(blocks)
    ]


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

    def info(self) -> Dict[str, object]:
        """The report as a Block-list ``run(...)`` info dict."""
        return {
            "measured_per_rank": list(self.measured_per_rank),
            "modelled_per_rank": list(self.modelled_per_rank),
            "measured_max": self.measured_max,
            "modelled_max": self.modelled_max,
            **self.counters,
        }

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

    The scoring step fills ``per_rank_pairs`` and attaches scores to the
    blocks; sorting fills ``sorted_pairs``; reduction and redistribution
    rewrite the blocks; rendering fills ``render_results``.  ``reports``
    accumulates every step's :class:`StepReport` keyed by step name, in
    execution order.  The blocks are readable and writable both as
    ``per_rank_blocks`` and as the batch-native ``groups`` (see the module
    docstring); writing one form invalidates the other.
    """

    iteration: int
    percent: float
    nranks: int
    per_rank_blocks: List[List[Block]]
    per_rank_pairs: Optional[List[List[ScorePair]]] = None
    sorted_pairs: Optional[List[ScorePair]] = None
    reduced_ids: Optional[Set[int]] = None
    #: Target ladder level per reduced block id (the reduction step's quality
    #: ladder decision; ``set(reduction_levels) == reduced_ids``).
    reduction_levels: Optional[Dict[int, int]] = None
    render_results: Optional[List["RenderResult"]] = None
    reports: Dict[str, StepReport] = field(default_factory=dict)

    @property
    def groups(self) -> List[BatchGroup]:
        """The batch-native state, stacked from the blocks on first read."""
        if self._groups is None:
            self._groups = stack_groups(self._blocks)
        return self._groups

    @groups.setter
    def groups(self, groups: List[BatchGroup]) -> None:
        self._groups, self._blocks = list(groups), None

    def rank_order(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(perm, bounds)``: rank ``r``'s rows of the concatenated groups,
        in list order, are ``perm[bounds[r]:bounds[r + 1]]``."""
        ranks = cat(g.ranks for g in self.groups)
        perm = np.lexsort((cat(g.order for g in self.groups), ranks))
        counts = np.bincount(ranks, minlength=self.nranks)
        return perm, np.concatenate(([0], np.cumsum(counts)))

    @property
    def nblocks(self) -> int:
        """Total number of blocks currently held across all ranks."""
        if self._blocks is None:
            return sum(g.batch.nblocks for g in self._groups)
        return sum(len(blocks) for blocks in self._blocks)

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


def _get_blocks(context: IterationContext) -> List[List[Block]]:
    if context._blocks is None:
        blocks = [b for g in context._groups for b in g.to_blocks()]
        perm, bounds = context.rank_order()
        ordered = [blocks[i] for i in perm.tolist()]
        context._blocks = [ordered[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    return context._blocks


def _set_blocks(context: IterationContext, blocks: Sequence[Sequence[Block]]) -> None:
    context._blocks, context._groups = [list(b) for b in blocks], None


# Installed after the dataclass is built, so ``per_rank_blocks`` stays an
# ordinary constructor argument while reads materialise lazily.
IterationContext.per_rank_blocks = property(
    _get_blocks, _set_blocks, doc="Per-rank block lists (materialised on first read)."
)


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
