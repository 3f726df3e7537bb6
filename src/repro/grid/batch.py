"""BlockBatch: a structure-of-arrays view over a set of equally-shaped blocks.

The per-block :class:`~repro.grid.block.Block` objects are the unit of
*semantics* at the API boundary, but iterating them one ``np.ndarray`` at a
time keeps every hot loop in Python.  A :class:`BlockBatch` stacks the
payloads of many equally-shaped blocks into one ``(nblocks, sx, sy, sz)``
array — plus parallel arrays for ids, extents, owners, levels and scores — so
kernels run once over the whole batch instead of once per block.

The conversion is lossless: ``BlockBatch.from_blocks(blocks).to_blocks()``
reproduces the input blocks exactly (ids, extents, owners, homes, reduced
flags, ladder levels, scores, field names, payload values, and payload
dtype).  Blocks of mixed shapes or dtypes cannot share one stacked array
without promotion, so :meth:`BlockBatch.from_blocks` rejects them; use
:func:`partition_by_shape` to split an arbitrary block list into homogeneous
batches while remembering each block's original position.

The vectorized and process engine backends keep a whole iteration in this
layout: the engine stacks every rank's blocks once per iteration with
:func:`partition_by_shape` (one batch per payload shape/dtype), and every
step then indexes arrays (:meth:`BlockBatch.take` selects rows) instead of
cloning ``Block`` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from itertools import chain
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.grid.block import Block, BlockExtent
from repro.grid.reduction import (  # re-exported: the ladder's batched twins
    expand_from_level_batch,
    reduce_to_level_batch,
)

__all__ = [
    "BlockBatch",
    "expand_from_level_batch",
    "group_positions_by_shape",
    "partition_by_shape",
    "reduce_to_level_batch",
]


@dataclass(frozen=True)
class BlockBatch:
    """Stacked payloads and metadata of ``nblocks`` equally-shaped blocks.

    Attributes
    ----------
    data:
        ``(nblocks, sx, sy, sz)`` stacked payload array (C-contiguous).
    block_ids:
        ``(nblocks,)`` int64 global block ids.
    starts, stops:
        ``(nblocks, 3)`` int64 extent bounds in global index space.
    owners, homes:
        ``(nblocks,)`` int64 current / original owner ranks.
    reduced:
        ``(nblocks,)`` bool flags (payload reduced, i.e. ``levels > 0``).
    levels:
        ``(nblocks,)`` int64 reduction-ladder rungs (0 full, 1 strided
        downsample, 2 corners).
    scores:
        ``(nblocks,)`` float64 scores; entries are only meaningful where
        ``score_mask`` is True (a block without a score keeps mask False, so
        even NaN scores round-trip losslessly).
    score_mask:
        ``(nblocks,)`` bool — whether the block carries a score.
    field_names:
        Per-block field names.
    """

    data: np.ndarray
    block_ids: np.ndarray
    starts: np.ndarray
    stops: np.ndarray
    owners: np.ndarray
    homes: np.ndarray
    reduced: np.ndarray
    levels: np.ndarray
    scores: np.ndarray
    score_mask: np.ndarray
    field_names: Tuple[str, ...]

    def __post_init__(self) -> None:
        data = np.asarray(self.data)
        if data.ndim != 4:
            raise ValueError(f"batch data must be 4-D, got shape {data.shape}")
        n = data.shape[0]
        object.__setattr__(self, "data", data)
        for name, width in (
            ("block_ids", None),
            ("owners", None),
            ("homes", None),
            ("reduced", None),
            ("levels", None),
            ("scores", None),
            ("score_mask", None),
            ("starts", 3),
            ("stops", 3),
        ):
            arr = np.asarray(getattr(self, name))
            expected = (n,) if width is None else (n, width)
            if arr.shape != expected:
                raise ValueError(
                    f"{name} must have shape {expected}, got {arr.shape}"
                )
            object.__setattr__(self, name, arr)
        if len(self.field_names) != n:
            raise ValueError(
                f"field_names must have {n} entries, got {len(self.field_names)}"
            )

    # -- construction -------------------------------------------------------

    @classmethod
    def from_blocks(cls, blocks: Sequence[Block]) -> "BlockBatch":
        """Stack ``blocks`` (non-empty, one payload shape and dtype) into a batch."""
        if not blocks:
            raise ValueError("cannot build a BlockBatch from an empty block list")
        try:
            # casting="no" rejects a mixed dtype instead of promoting it.
            data = np.concatenate(
                [b.data[None] for b in blocks], dtype=blocks[0].data.dtype, casting="no"
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(
                f"all blocks must share one payload shape and dtype ({exc}); use "
                "partition_by_shape for mixed lists"
            ) from None
        ints = np.fromiter(
            chain.from_iterable(
                (b.block_id, b.owner, b.home, b.level, *b.extent.start, *b.extent.stop)
                for b in blocks
            ),
            dtype=np.int64,
        ).reshape(-1, 10)
        raw_scores = [b.score for b in blocks]
        return cls(
            data=data,
            block_ids=ints[:, 0],
            starts=ints[:, 4:7],
            stops=ints[:, 7:10],
            owners=ints[:, 1],
            homes=ints[:, 2],
            reduced=ints[:, 3] > 0,
            levels=ints[:, 3],
            scores=np.array(
                [0.0 if s is None else float(s) for s in raw_scores], dtype=np.float64
            ),
            score_mask=np.array([s is not None for s in raw_scores], dtype=bool),
            field_names=tuple(b.field_name for b in blocks),
        )

    def to_blocks(self) -> List[Block]:
        """Rebuild the per-block objects (payloads are independent copies)."""
        blocks: List[Block] = []
        for i in range(self.nblocks):
            blocks.append(
                Block(
                    block_id=int(self.block_ids[i]),
                    extent=BlockExtent(
                        start=tuple(int(v) for v in self.starts[i]),
                        stop=tuple(int(v) for v in self.stops[i]),
                    ),
                    data=np.array(self.data[i]),
                    owner=int(self.owners[i]),
                    home=int(self.homes[i]),
                    reduced=bool(self.reduced[i]),
                    level=int(self.levels[i]),
                    score=float(self.scores[i]) if self.score_mask[i] else None,
                    field_name=self.field_names[i],
                )
            )
        return blocks

    def take(self, rows: np.ndarray) -> "BlockBatch":
        """The sub-batch of ``rows`` (an index array or boolean mask)."""
        return BlockBatch(
            **{
                f.name: getattr(self, f.name)[rows]
                for f in fields(self)
                if f.name != "field_names"
            },
            field_names=tuple(np.asarray(self.field_names, dtype=object)[rows]),
        )

    # -- basic properties ---------------------------------------------------

    @property
    def nblocks(self) -> int:
        """Number of blocks in the batch."""
        return int(self.data.shape[0])

    @property
    def block_shape(self) -> Tuple[int, int, int]:
        """Common payload shape of every block."""
        return tuple(int(s) for s in self.data.shape[1:])

    @property
    def npoints(self) -> int:
        """Total number of payload points across the batch."""
        return int(self.data.size)

    @property
    def nbytes(self) -> int:
        """Total payload bytes across the batch."""
        return int(self.data.nbytes)

    @property
    def flat_data(self) -> np.ndarray:
        """``(nblocks, npoints_per_block)`` view of the stacked payloads."""
        return self.data.reshape(self.nblocks, -1)

    # -- updates ------------------------------------------------------------

    def with_scores(self, scores: np.ndarray) -> "BlockBatch":
        """Return a copy of the batch with one score per block attached."""
        arr = np.asarray(scores, dtype=np.float64)
        if arr.shape != (self.nblocks,):
            raise ValueError(
                f"scores must have shape ({self.nblocks},), got {arr.shape}"
            )
        return replace(
            self, scores=arr, score_mask=np.ones(self.nblocks, dtype=bool)
        )


def group_positions_by_shape(blocks: Sequence[Block]) -> List[List[int]]:
    """Group block positions by payload shape *and* dtype.

    This is the batching key of :func:`partition_by_shape`: blocks whose
    payloads share one shape/dtype stack without promotion.  Returns one
    position list per group, positions in input order; a typical
    pre-reduction rank list yields exactly one group, and all reduced
    2×2×2 blocks fall into one group.
    """
    groups: Dict[Tuple[Tuple[int, ...], np.dtype], List[int]] = {}
    for position, block in enumerate(blocks):
        data = block.data
        groups.setdefault((data.shape, data.dtype), []).append(position)
    return list(groups.values())


def partition_by_shape(
    blocks: Sequence[Block],
) -> List[Tuple[List[int], BlockBatch]]:
    """Split ``blocks`` into homogeneous batches, keeping original positions.

    Returns ``(indices, batch)`` pairs where ``blocks[indices[i]]`` is row
    ``i`` of ``batch``; the grouping key is :func:`group_positions_by_shape`'s.
    """
    return [
        (indices, BlockBatch.from_blocks([blocks[i] for i in indices]))
        for indices in group_positions_by_shape(blocks)
    ]
