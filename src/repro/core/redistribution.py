"""Step 4: load redistribution (shuffling) of blocks across processes.

Because every rank holds the same globally sorted block list, every rank can
compute the same target assignment without additional coordination, then
exchange the block payloads with non-blocking point-to-point messages —
modelled here by one personalised all-to-all.

Strategies return their assignment as a pair of parallel NumPy arrays
``(block_ids, dest_ranks)`` — the vectorizable form the exchange planner
consumes: every block's destination is resolved with one ``np.searchsorted``
over the id-sorted assignment, and the movers are grouped by (source,
destination) with one sort — no per-block dict lookups on the planning path.

The exchange is priced by exactly the moved payload bytes: each non-empty
``send_lists[src][dst]`` is a list of objects with an integer ``nbytes``
(``Block`` objects in :meth:`RedistributionStrategy.redistribute`, payload
rows in the batch-native :meth:`RedistributionStrategy.relabel`, which
relabels owner arrays instead of rebuilding blocks).  Both paths make the
same ``comm.alltoallv`` call, so they report the same bytes and seconds.

Two strategies from the paper are provided, plus the no-op:

* :class:`RandomShuffle` — each process receives a random set of blocks (the
  per-process block count stays constant); all ranks derive the permutation
  from the same seed.  Ignores the scores.  This is the paper's baseline.
* :class:`RoundRobin` — blocks sorted by *decreasing* score are dealt to
  processes 0, 1, 2, ... in turn, so the rendering load of the high-score
  region is spread evenly.
* :class:`NoRedistribution` — keep the initial, content-oblivious domain
  decomposition.
"""

from __future__ import annotations

import abc
from dataclasses import replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.step import BatchGroup, IterationContext, StepReport, cat, lookup
from repro.grid.block import Block
from repro.simmpi.communicator import BSPCommunicator
from repro.utils.random import derive_seed, rng_from_seed
from repro.utils.timer import Timer

ScorePair = Tuple[int, float]

#: A strategy's assignment: parallel ``(block_ids, dest_ranks)`` int64 arrays
#: (ids need not be sorted; blocks not listed stay with their current rank).
OwnerAssignment = Tuple[np.ndarray, np.ndarray]


class RedistributionStrategy(abc.ABC):
    """Computes the target owner of every block."""

    name = "strategy"

    @abc.abstractmethod
    def assign_owners(
        self,
        sorted_pairs: Sequence[ScorePair],
        nranks: int,
        iteration: int,
    ) -> OwnerAssignment:
        """Return the assignment as parallel ``(block_ids, dest_ranks)`` arrays."""

    def _plan(
        self,
        comm: BSPCommunicator,
        sorted_pairs: Sequence[ScorePair],
        iteration: int,
        block_ids: np.ndarray,
        src: np.ndarray,
        order: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, List[Tuple[int, int, List[int]]]]:
        """Destination of every block, the movers, and the messages.

        Unassigned blocks stay put.  Each message is ``(src, dst, movers)``
        with the movers in the source rank's list ``order``.
        """
        nranks = comm.nranks
        ids, dests = (
            np.asarray(a, dtype=np.int64)
            for a in self.assign_owners(sorted_pairs, nranks, iteration)
        )
        by_id = np.argsort(ids, kind="stable")
        dest = lookup(ids[by_id], dests[by_id], block_ids, src)
        movers = np.flatnonzero(src != dest)
        pair = src[movers] * nranks + dest[movers]
        perm = np.lexsort((order[movers], pair))
        movers, pair = movers[perm], pair[perm]
        keys, starts = np.unique(pair, return_index=True)
        bounds, rows = starts.tolist() + [movers.size], movers.tolist()
        messages = [
            (key // nranks, key % nranks, rows[lo:hi])
            for key, lo, hi in zip(keys.tolist(), bounds[:-1], bounds[1:])
        ]
        return dest, movers, messages

    @staticmethod
    def _exchange(comm, messages, payload) -> List[List[object]]:
        """``comm.alltoallv`` of ``payload(i)`` for every mover of every message."""
        send_lists: List[List[object]] = [[None] * comm.nranks for _ in range(comm.nranks)]
        for src, dst, movers in messages:
            send_lists[src][dst] = [payload(i, dst) for i in movers]
        return comm.alltoallv(send_lists)

    def redistribute(
        self,
        comm: BSPCommunicator,
        per_rank_blocks: Sequence[Sequence[Block]],
        sorted_pairs: Sequence[ScorePair],
        iteration: int,
    ) -> Tuple[List[List[Block]], Dict[str, float]]:
        """Exchange blocks so every rank ends up with its assigned set.

        Returns the new per-rank block lists (sorted by block id) and timing
        info (measured wall-clock, modelled communication seconds, exchanged
        bytes).
        """
        blocks = [b for rank_blocks in per_rank_blocks for b in rank_blocks]
        src = np.repeat(np.arange(comm.nranks), [len(b) for b in per_rank_blocks])
        ids = np.fromiter((b.block_id for b in blocks), np.int64, len(blocks))
        dest, movers, messages = self._plan(
            comm, sorted_pairs, iteration, ids, src, np.arange(len(blocks))
        )
        before = comm.communication_seconds()
        with Timer() as timer:
            received = self._exchange(
                comm, messages, lambda i, dst: blocks[i].with_owner(dst)
            )
            new_blocks: List[List[Block]] = [[] for _ in range(comm.nranks)]
            for i in np.flatnonzero(src == dest).tolist():
                rank, block = int(src[i]), blocks[i]
                new_blocks[rank].append(
                    block if block.owner == rank else block.with_owner(rank)
                )
            for mine, payloads in zip(new_blocks, received):
                for payload in payloads:
                    mine.extend(payload or ())
                mine.sort(key=lambda b: b.block_id)
        info = {
            "measured": timer.elapsed,
            "modelled": comm.communication_seconds() - before,
            "moved_bytes": float(sum(blocks[i].nbytes for i in movers.tolist())),
            "moved_blocks": float(movers.size),
        }
        return new_blocks, info

    def relabel(
        self,
        comm: BSPCommunicator,
        groups: Sequence[BatchGroup],
        sorted_pairs: Sequence[ScorePair],
        iteration: int,
    ) -> Tuple[List[BatchGroup], Dict[str, float]]:
        """Batch-native :meth:`redistribute`: relabel the owner arrays.

        The exchange is the same ``comm.alltoallv`` call with the same
        non-empty (source, destination) entries, each the list of the moved
        payload rows, so it is priced at exactly the moved payload bytes.
        Every row's owner becomes its destination rank, and every rank's
        list is ordered by block id afterwards, as in :meth:`redistribute`.
        """
        src = cat(g.ranks for g in groups)
        dest, movers, messages = self._plan(
            comm,
            sorted_pairs,
            iteration,
            cat(g.batch.block_ids for g in groups),
            src,
            cat(g.order for g in groups),
        )
        before = comm.communication_seconds()
        with Timer() as timer:
            rows = [row for g in groups for row in g.batch.data]
            self._exchange(comm, messages, lambda i, dst: rows[i])
            offsets = np.cumsum([g.batch.nblocks for g in groups])[:-1]
            relabelled = [
                replace(g, batch=replace(g.batch, owners=d), ranks=d, order=g.batch.block_ids)
                for g, d in zip(groups, np.split(dest, offsets))
            ]
        info = {
            "measured": timer.elapsed,
            "modelled": comm.communication_seconds() - before,
            "moved_bytes": float(sum(rows[i].nbytes for i in movers.tolist())),
            "moved_blocks": float(movers.size),
        }
        return relabelled, info


class NoRedistribution(RedistributionStrategy):
    """Keep the original owners (the paper's "NONE" configuration)."""

    name = "none"

    def assign_owners(
        self, sorted_pairs: Sequence[ScorePair], nranks: int, iteration: int
    ) -> OwnerAssignment:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty

    def redistribute(
        self,
        comm: BSPCommunicator,
        per_rank_blocks: Sequence[Sequence[Block]],
        sorted_pairs: Sequence[ScorePair],
        iteration: int,
    ) -> Tuple[List[List[Block]], Dict[str, float]]:
        # Skip the exchange entirely (no communication, no modelled cost),
        # but refresh the owner metadata exactly like the exchanging path
        # does for kept blocks — every strategy leaves ``block.owner`` equal
        # to the rank that actually holds the block.
        with Timer() as timer:
            out = [
                [
                    block if block.owner == rank else block.with_owner(rank)
                    for block in blocks
                ]
                for rank, blocks in enumerate(per_rank_blocks)
            ]
        return out, self._no_exchange(timer.elapsed)

    def relabel(
        self,
        comm: BSPCommunicator,
        groups: Sequence[BatchGroup],
        sorted_pairs: Sequence[ScorePair],
        iteration: int,
    ) -> Tuple[List[BatchGroup], Dict[str, float]]:
        with Timer() as timer:
            out = [replace(g, batch=replace(g.batch, owners=g.ranks)) for g in groups]
        return out, self._no_exchange(timer.elapsed)

    @staticmethod
    def _no_exchange(measured: float) -> Dict[str, float]:
        zero = {"modelled": 0.0, "moved_bytes": 0.0, "moved_blocks": 0.0}
        return {"measured": measured, **zero}


class RandomShuffle(RedistributionStrategy):
    """Random assignment of blocks to ranks, same seed on every rank."""

    name = "shuffle"

    def __init__(self, seed: int = 2016) -> None:
        self.seed = int(seed)

    def assign_owners(
        self, sorted_pairs: Sequence[ScorePair], nranks: int, iteration: int
    ) -> OwnerAssignment:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        nblocks = len(sorted_pairs)
        block_ids = np.sort(
            np.fromiter(
                (block_id for block_id, _ in sorted_pairs),
                dtype=np.int64,
                count=nblocks,
            )
        )
        # Constant number of blocks per process: deal rank labels then shuffle.
        labels = np.arange(nblocks, dtype=np.int64) % nranks
        rng = rng_from_seed(derive_seed(self.seed, "shuffle", iteration))
        rng.shuffle(labels)
        return block_ids, labels


class RoundRobin(RedistributionStrategy):
    """Deal blocks to ranks in decreasing score order."""

    name = "round_robin"

    def assign_owners(
        self, sorted_pairs: Sequence[ScorePair], nranks: int, iteration: int
    ) -> OwnerAssignment:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        nblocks = len(sorted_pairs)
        block_ids = np.fromiter(
            (block_id for block_id, _ in sorted_pairs),
            dtype=np.int64,
            count=nblocks,
        )
        # sorted_pairs is ascending; the paper deals from the highest score,
        # so the block at ascending index i sits at dealing position
        # nblocks - 1 - i.
        dests = (nblocks - 1 - np.arange(nblocks, dtype=np.int64)) % nranks
        return block_ids, dests


class RedistributionStep:
    """PipelineStep adapter around a :class:`RedistributionStrategy`.

    The strategies stay independent of the step contract (they are also used
    directly by the figure-5 experiments); this thin wrapper binds one
    strategy to a communicator and reports the exchange as a collective.
    """

    name = "redistribution"

    def __init__(self, strategy: RedistributionStrategy, comm: BSPCommunicator) -> None:
        self.strategy = strategy
        self.comm = comm

    #: Whether the step exchanges the batch-native ``context.groups``
    #: (:meth:`RedistributionStrategy.relabel`) instead of the blocks.
    batch_native = False

    def execute(self, context: IterationContext) -> StepReport:
        """Exchange the context's blocks (PipelineStep contract)."""
        args = (context.require_sorted(), context.iteration)
        if self.batch_native:
            context.groups, info = self.strategy.relabel(self.comm, context.groups, *args)
        else:
            context.per_rank_blocks, info = self.strategy.redistribute(
                self.comm, context.per_rank_blocks, *args
            )
        return StepReport.collective(
            self.name,
            measured=float(info["measured"]),
            modelled=float(info["modelled"]),
            payload_bytes=float(info["moved_bytes"]),
            counters={"moved_blocks": float(info["moved_blocks"])},
        )


class VectorizedRedistributionStep(RedistributionStep):
    """Redistribution of the batch-native state: no ``Block`` is cloned."""

    batch_native = True


def make_strategy(name: str, seed: int = 2016) -> RedistributionStrategy:
    """Factory used by the pipeline configuration."""
    key = name.strip().lower()
    if key in ("none", "no", "off"):
        return NoRedistribution()
    if key in ("shuffle", "random", "random_shuffle"):
        return RandomShuffle(seed=seed)
    if key in ("round_robin", "roundrobin", "rr"):
        return RoundRobin()
    raise ValueError(
        f"unknown redistribution strategy {name!r}; "
        "expected 'none', 'shuffle' or 'round_robin'"
    )
