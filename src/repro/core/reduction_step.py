"""Step 3: reducing the lowest-scored blocks down the quality ladder.

Given the globally sorted ``<id, score>`` list (identical on every rank) and
the percentage ``p``, the ``p``% blocks with the lowest scores are reduced —
by default all the way to 2×2×2 corner blocks, or, when the pipeline's
``quality_ladder`` has several rungs, spread over the reduction ladder by
score quantile (:func:`select_reduction_levels`): the very lowest scores get
the most aggressive level, better-scored selected blocks keep a level-1
strided downsample.  Every rank takes the same decision locally, then reduces
only the blocks it owns.

The step comes in two implementations of one contract, selected through the
backend registry (the ``"process"`` backend uses the vectorised one):

* :class:`ReductionStep` — the reference loop: every block is tested against
  the reduced-id set and reduced one :func:`~repro.grid.reduction.reduce_block`
  call at a time;
* :class:`VectorizedReductionStep` — the selected rows of the batch-native
  state (one stacked group per payload shape/dtype, carried from the
  engine's single stacking pass) are gathered with one
  :func:`~repro.grid.reduction.reduce_to_level_batch` fancy-index pass per
  group and target level; no ``Block`` is cloned.

All backends produce bitwise-identical reduced payloads and modelled seconds
(the modelled cost is derived from
:attr:`~repro.perfmodel.platform.PlatformModel.seconds_per_reduced_block`);
measured wall-clock is the one quantity that legitimately differs.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.step import IterationContext, StepReport, cat, lookup
from repro.grid.block import Block
from repro.grid.reduction import reduce_block, reduce_to_level_batch
from repro.perfmodel.platform import PlatformModel
from repro.utils.timer import Timer

ScorePair = Tuple[int, float]

#: Default modelled cost of reducing one block (a strided copy of 8 values);
#: used when the step is built without a platform model.  Engine-built steps
#: derive the coefficient from ``PlatformModel.seconds_per_reduced_block``
#: (same default), exactly like scoring and rendering derive their costs.
SECONDS_PER_REDUCED_BLOCK = 2.0e-6

#: The default quality ladder: every selected block goes to the corner rung,
#: which is bit-for-bit the pre-ladder binary behavior.
DEFAULT_QUALITY_LADDER: Tuple[Tuple[int, float], ...] = ((2, 1.0),)

QualityLadder = Tuple[Tuple[int, float], ...]


def validate_quality_ladder(ladder: Sequence[Sequence[float]]) -> QualityLadder:
    """Normalise and validate a quality ladder; returns the canonical tuple.

    A ladder is an ordered sequence of ``(level, fraction)`` rungs: levels
    must be 1 or 2 (level 0 would mean "select a block and leave it full"),
    appear at most once, fractions must be positive and sum to 1.
    """
    rungs = []
    seen = set()
    for rung in ladder:
        if len(rung) != 2:
            raise ValueError(
                f"each quality_ladder rung must be (level, fraction), got {rung!r}"
            )
        level, fraction = int(rung[0]), float(rung[1])
        if level not in (1, 2):
            raise ValueError(
                f"quality_ladder levels must be 1 or 2, got {rung[0]!r}"
            )
        if level in seen:
            raise ValueError(f"quality_ladder repeats level {level}")
        if not (0.0 < fraction <= 1.0):
            raise ValueError(
                f"quality_ladder fractions must be in (0, 1], got {rung[1]!r}"
            )
        seen.add(level)
        rungs.append((level, fraction))
    if not rungs:
        raise ValueError("quality_ladder must have at least one rung")
    total = sum(fraction for _, fraction in rungs)
    if abs(total - 1.0) > 1e-9:
        raise ValueError(
            f"quality_ladder fractions must sum to 1, got {total}"
        )
    return tuple(rungs)


def select_reduction_levels(
    sorted_pairs: Sequence[ScorePair],
    percent: float,
    ladder: QualityLadder = DEFAULT_QUALITY_LADDER,
) -> Dict[int, int]:
    """Map each selected block id to its target reduction-ladder level.

    The selected set is exactly :func:`select_blocks_to_reduce`'s — the
    ``percent``% lowest-scored blocks, counted with the same half-up
    rounding.  Within that ascending-score prefix the ladder's rungs are
    applied in order: the first rung's fraction of the selection (rounded
    half-up) gets that rung's level, and so on, the last rung absorbing the
    rounding remainder.  Every rank computes this from the globally sorted
    list, so the decision is identical everywhere without communication.
    """
    if not (0.0 <= percent <= 100.0):
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    ladder = validate_quality_ladder(ladder)
    nblocks = len(sorted_pairs)
    count = min(int(math.floor(nblocks * percent / 100.0 + 0.5)), nblocks)
    levels: Dict[int, int] = {}
    offset = 0
    for rung_index, (level, fraction) in enumerate(ladder):
        if rung_index == len(ladder) - 1:
            take = count - offset
        else:
            take = min(int(math.floor(count * fraction + 0.5)), count - offset)
        for block_id, _ in sorted_pairs[offset : offset + take]:
            levels[block_id] = level
        offset += take
    return levels


def select_blocks_to_reduce(sorted_pairs: Sequence[ScorePair], percent: float) -> Set[int]:
    """Ids of the ``percent``% lowest-scored blocks.

    ``sorted_pairs`` must already be in ascending (score, id) order — the
    output of the sorting step.  The count is rounded half-up to the nearest
    block (``floor(x + 0.5)``): Python's ``round()`` does banker's rounding,
    under which e.g. 5% of 10 blocks reduced 0 blocks while 5% of 30 reduced
    2 — the same requested percentage must round the same way regardless of
    the block count's parity.
    """
    if not (0.0 <= percent <= 100.0):
        raise ValueError(f"percent must be in [0, 100], got {percent}")
    nblocks = len(sorted_pairs)
    count = int(math.floor(nblocks * percent / 100.0 + 0.5))
    count = min(count, nblocks)
    return {block_id for block_id, _ in sorted_pairs[:count]}


class ReductionStep:
    """Reduces the selected blocks on every rank (per-block reference loop).

    ``platform`` supplies the modelled per-reduced-block cost
    (:meth:`~repro.perfmodel.platform.PlatformModel.reduction_seconds`); when
    omitted the step falls back to :data:`SECONDS_PER_REDUCED_BLOCK`, which is
    also the platform's default, so modelled figures are identical either way.
    """

    name = "reduction"

    def __init__(
        self,
        platform: Optional[PlatformModel] = None,
        quality_ladder: QualityLadder = DEFAULT_QUALITY_LADDER,
    ) -> None:
        self.platform = platform
        self.quality_ladder = validate_quality_ladder(quality_ladder)

    def _reduction_seconds(
        self, nreduced: int, points_copied: Optional[int] = None
    ) -> float:
        """Modelled seconds for one rank to reduce ``nreduced`` blocks.

        ``points_copied`` is the total payload points of the rank's reduced
        blocks; when given, the cost scales with it (in corner-block units of
        8 points), which prices a level-1 downsample by its real copy volume.
        When every selected block goes to the corner rung the two forms are
        bitwise identical.
        """
        if self.platform is not None:
            return self.platform.reduction_seconds(nreduced, points_copied)
        if points_copied is None:
            return nreduced * SECONDS_PER_REDUCED_BLOCK
        return SECONDS_PER_REDUCED_BLOCK * (points_copied / 8.0)

    def run(
        self,
        per_rank_blocks: Sequence[Sequence[Block]],
        sorted_pairs: Sequence[ScorePair],
        percent: float,
    ) -> Tuple[List[List[Block]], Set[int], Dict[str, object]]:
        """Apply the reduction.

        Returns
        -------
        (per_rank_blocks, reduced_ids, info)
            Blocks with the selected ones replaced by their reduced copies,
            the set of reduced block ids, and measured/modelled timing info
            (including the per-block ladder decision under
            ``info["reduction_levels"]``).
        """
        levels = select_reduction_levels(sorted_pairs, percent, self.quality_ladder)
        reduced_ids = set(levels)
        out: List[List[Block]] = []
        measured: List[float] = []
        modelled: List[float] = []
        points_total = 0
        for blocks in per_rank_blocks:
            reduced_count = 0
            points_copied = 0
            with Timer() as timer:
                new_blocks = []
                for block in blocks:
                    target = levels.get(block.block_id)
                    if target is not None:
                        new_block = reduce_block(block, target)
                        new_blocks.append(new_block)
                        reduced_count += 1
                        points_copied += int(new_block.data.size)
                    else:
                        new_blocks.append(block)
            out.append(new_blocks)
            measured.append(timer.elapsed)
            modelled.append(self._reduction_seconds(reduced_count, points_copied))
            points_total += points_copied
        info = {
            "measured_per_rank": measured,
            "modelled_per_rank": modelled,
            "measured_max": max(measured) if measured else 0.0,
            "modelled_max": max(modelled) if modelled else 0.0,
            "nreduced": len(reduced_ids),
            "points_copied": points_total,
            "reduction_levels": levels,
        }
        return out, reduced_ids, info

    def execute(self, context: IterationContext) -> StepReport:
        """Run the step over the context's blocks (PipelineStep contract)."""
        out, reduced_ids, info = self.run(
            context.per_rank_blocks, context.require_sorted(), context.percent
        )
        context.per_rank_blocks = out
        context.reduced_ids = reduced_ids
        context.reduction_levels = dict(info["reduction_levels"])
        return StepReport(
            step=self.name,
            measured_per_rank=list(info["measured_per_rank"]),
            modelled_per_rank=list(info["modelled_per_rank"]),
            counters={
                "nreduced": float(info["nreduced"]),
                "points_copied": float(info["points_copied"]),
            },
        )


class VectorizedReductionStep(ReductionStep):
    """Reduces the selected rows of the batch-native state, group by group.

    The reduction is embarrassingly parallel, so — like the vectorised
    scoring step — it spans *across* ranks: every
    :class:`~repro.core.step.BatchGroup`'s rows are looked up in the ladder
    decision, the rows below their target level are gathered with one
    :func:`~repro.grid.reduction.reduce_to_level_batch` call per target
    level, and the reduced rows become new groups (their payload shape
    changed).  Rows already at or beyond their target are left as they are,
    the no-op :func:`~repro.grid.reduction.reduce_block` performs.  Payloads
    are bitwise those of reducing one block at a time.

    Measured wall-clock of the single pass is attributed to ranks
    proportionally to their selected-block counts (the convention the
    vectorised scoring step set); modelled per-rank seconds are computed
    exactly as in the serial step.
    """

    name = "reduction"
    batch_native = True

    def run(
        self,
        per_rank_blocks: Sequence[Sequence[Block]],
        sorted_pairs: Sequence[ScorePair],
        percent: float,
    ) -> Tuple[List[List[Block]], Set[int], Dict[str, object]]:
        """Block-list adapter: stack, reduce the groups, materialise."""
        context = IterationContext(
            0, percent, len(per_rank_blocks), per_rank_blocks, sorted_pairs=sorted_pairs
        )
        info = self.execute(context).info()
        info["reduction_levels"] = context.reduction_levels
        return context.per_rank_blocks, context.reduced_ids, info

    def execute(self, context: IterationContext) -> StepReport:
        """Reduce the context's groups (PipelineStep contract)."""
        levels = select_reduction_levels(
            context.require_sorted(), context.percent, self.quality_ladder
        )
        keys = np.fromiter(levels, dtype=np.int64, count=len(levels))
        targets = np.fromiter(levels.values(), dtype=np.int64, count=len(levels))
        by_id = np.argsort(keys)
        keys, targets = keys[by_id], targets[by_id]
        with Timer() as timer:
            groups, changed = [], False
            for group in context.groups:
                target = lookup(keys, targets, group.batch.block_ids, 0)
                todo = target > group.batch.levels
                if not todo.any():
                    groups.append(group)
                    continue
                changed = True
                if not todo.all():
                    groups.append(group.take(~todo))
                for level in np.unique(target[todo]).tolist():
                    part = group.take(np.flatnonzero(todo & (target == level)))
                    batch = replace(
                        part.batch,
                        data=reduce_to_level_batch(part.batch.data, level),
                        levels=np.full(part.batch.nblocks, level, dtype=np.int64),
                        reduced=np.ones(part.batch.nblocks, dtype=bool),
                    )
                    groups.append(replace(part, batch=batch))
        if changed:  # an untouched state keeps its blocks, if it has any
            context.groups = groups
        context.reduced_ids = set(levels)
        context.reduction_levels = levels
        selected = cat(
            (lookup(keys, targets, g.batch.block_ids, 0) > 0 for g in groups), bool
        )
        ranks = cat(g.ranks for g in groups)[selected]
        counts = np.bincount(ranks, minlength=context.nranks)
        points = np.bincount(
            ranks,
            weights=cat(g.row_points for g in groups)[selected],
            minlength=context.nranks,
        ).astype(np.int64)
        total = int(counts.sum())
        return StepReport(
            step=self.name,
            measured_per_rank=[
                timer.elapsed * (int(c) / total) if total else 0.0 for c in counts
            ],
            modelled_per_rank=[
                self._reduction_seconds(int(c), int(p)) for c, p in zip(counts, points)
            ],
            counters={
                "nreduced": float(len(levels)),
                "points_copied": float(points.sum()),
            },
        )
