"""Bulk-synchronous (driver-side) simulated communicator.

The :class:`BSPCommunicator` implements the semantics of MPI collectives over
*per-rank lists held by the driver*: ``values[r]`` is the value rank ``r``
contributes.  Each call returns the per-rank results (again indexed by rank)
and charges the modelled communication cost to the per-rank virtual clocks
through :class:`~repro.simmpi.costmodel.NetworkCostModel`.

This style trades MPI's SPMD control flow for a data-parallel driver loop,
which keeps the simulation single-threaded, deterministic, and able to model
hundreds of virtual ranks cheaply.
"""

from __future__ import annotations

import pickle
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.simmpi.costmodel import NetworkCostModel
from repro.simmpi.timing import VirtualClocks


#: Wire-size estimate for payloads that cannot be pickled (open handles,
#: lambdas, ...).  Such objects could not cross a real MPI boundary at all;
#: pricing them as one small pickled envelope keeps the cost model defined
#: without hiding the anomaly behind an inflated transfer.
UNPICKLABLE_PAYLOAD_NBYTES = 64

#: Errors ``pickle.dumps`` raises for unpicklable objects: PicklingError for
#: types pickle rejects itself, TypeError/AttributeError for objects whose
#: reduction fails (e.g. locks, sockets, local classes), RecursionError for
#: pathologically nested structures.  Anything else (MemoryError, ...) is a
#: real failure and propagates.
_PICKLE_ERRORS = (pickle.PicklingError, TypeError, AttributeError, RecursionError)


def _payload_nbytes(obj: Any) -> int:
    """Approximate the wire size of a Python payload.

    NumPy arrays count their buffer size; other objects are priced by their
    pickle length (which is what a real mpi4py lowercase call would send).
    Unpicklable payloads are priced at :data:`UNPICKLABLE_PAYLOAD_NBYTES`.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if isinstance(obj, (list, tuple)) and obj and all(isinstance(x, np.ndarray) for x in obj):
        return int(sum(x.nbytes for x in obj))
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except _PICKLE_ERRORS:
        return UNPICKLABLE_PAYLOAD_NBYTES


class BSPCommunicator:
    """Driver-side communicator over ``nranks`` virtual ranks.

    Parameters
    ----------
    nranks:
        Number of virtual ranks.
    cost_model:
        Network cost model used to charge modelled time; defaults to the
        Blue Waters-like model.
    clocks:
        Existing :class:`VirtualClocks` to account into; a fresh set is
        created when omitted.
    track_stats:
        When True (default), per-operation counters (calls, bytes) are kept
        in :attr:`stats`.
    """

    def __init__(
        self,
        nranks: int,
        cost_model: Optional[NetworkCostModel] = None,
        clocks: Optional[VirtualClocks] = None,
        track_stats: bool = True,
    ) -> None:
        if nranks < 1:
            raise ValueError(f"nranks must be >= 1, got {nranks}")
        self._nranks = int(nranks)
        self.cost_model = cost_model or NetworkCostModel.blue_waters()
        self.clocks = clocks or VirtualClocks(nranks)
        if self.clocks.nranks != nranks:
            raise ValueError(
                f"clocks track {self.clocks.nranks} ranks, expected {nranks}"
            )
        self._track = bool(track_stats)
        self.stats: Dict[str, Dict[str, float]] = {}

    # -- basic properties ---------------------------------------------------

    @property
    def nranks(self) -> int:
        """Number of virtual ranks in the communicator."""
        return self._nranks

    def ranks(self) -> range:
        """Iterator over rank indices."""
        return range(self._nranks)

    def _check_values(self, values: Sequence[Any], name: str = "values") -> None:
        if len(values) != self._nranks:
            raise ValueError(
                f"{name} must have one entry per rank ({self._nranks}), got {len(values)}"
            )

    def _record(self, op: str, nbytes: float, seconds: float) -> None:
        if not self._track:
            return
        entry = self.stats.setdefault(op, {"calls": 0.0, "bytes": 0.0, "seconds": 0.0})
        entry["calls"] += 1
        entry["bytes"] += nbytes
        entry["seconds"] += seconds

    # -- local compute accounting -----------------------------------------------

    def compute(self, seconds_per_rank: Sequence[float]) -> None:
        """Charge per-rank local compute time (no communication)."""
        self._check_values(seconds_per_rank, "seconds_per_rank")
        self.clocks.advance_all(seconds_per_rank)

    def run_per_rank(
        self, func: Callable[[int], Any], charge: Optional[Sequence[float]] = None
    ) -> List[Any]:
        """Run ``func(rank)`` for every rank and return the per-rank results.

        ``charge`` optionally gives per-rank modelled seconds to account for
        the work (when omitted nothing is charged — the caller typically
        charges modelled time computed from the results).
        """
        results = [func(rank) for rank in self.ranks()]
        if charge is not None:
            self.compute(charge)
        return results

    # -- collectives ---------------------------------------------------------------

    def barrier(self) -> float:
        """Synchronise all ranks.  Returns the post-barrier modelled time."""
        cost = self.cost_model.barrier(self._nranks)
        t = self.clocks.synchronize(cost)
        self._record("barrier", 0, cost)
        return t

    def bcast(self, value: Any, root: int = 0) -> List[Any]:
        """Broadcast ``value`` from ``root``; every rank receives it."""
        self._check_rank(root)
        nbytes = _payload_nbytes(value)
        cost = self.cost_model.bcast(nbytes, self._nranks)
        self.clocks.synchronize(cost)
        self._record("bcast", nbytes, cost)
        return [value for _ in self.ranks()]

    def gather(self, values: Sequence[Any], root: int = 0) -> List[Optional[List[Any]]]:
        """Gather per-rank ``values`` at ``root``.

        Returns a per-rank list where only ``root`` holds the gathered list
        (other entries are ``None``), mirroring MPI's convention.
        """
        self._check_rank(root)
        self._check_values(values)
        per_rank = max(_payload_nbytes(v) for v in values)
        cost = self.cost_model.gather(per_rank, self._nranks)
        self.clocks.synchronize(cost)
        self._record("gather", per_rank * self._nranks, cost)
        out: List[Optional[List[Any]]] = [None] * self._nranks
        out[root] = list(values)
        return out

    def allgather(self, values: Sequence[Any]) -> List[List[Any]]:
        """All ranks receive the list of every rank's value."""
        self._check_values(values)
        per_rank = max(_payload_nbytes(v) for v in values)
        cost = self.cost_model.allgather(per_rank, self._nranks)
        self.clocks.synchronize(cost)
        self._record("allgather", per_rank * self._nranks, cost)
        gathered = list(values)
        return [list(gathered) for _ in self.ranks()]

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0) -> List[Any]:
        """Scatter ``values`` (held by ``root``) so rank ``r`` gets ``values[r]``."""
        self._check_rank(root)
        if values is None:
            raise ValueError("scatter requires the root's list of values")
        self._check_values(values)
        per_rank = max(_payload_nbytes(v) for v in values)
        cost = self.cost_model.scatter(per_rank, self._nranks)
        self.clocks.synchronize(cost)
        self._record("scatter", per_rank * self._nranks, cost)
        return list(values)

    def allreduce(
        self, values: Sequence[Any], op: Callable[[Any, Any], Any] = None
    ) -> List[Any]:
        """Combine per-rank values with ``op`` (default: sum) on every rank."""
        self._check_values(values)
        if op is None:
            op = lambda a, b: a + b  # noqa: E731 - tiny default combiner
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        nbytes = _payload_nbytes(values[0])
        cost = self.cost_model.allreduce(nbytes, self._nranks)
        self.clocks.synchronize(cost)
        self._record("allreduce", nbytes, cost)
        return [acc for _ in self.ranks()]

    def reduce(
        self, values: Sequence[Any], op: Callable[[Any, Any], Any] = None, root: int = 0
    ) -> List[Optional[Any]]:
        """Combine per-rank values with ``op`` at ``root`` only."""
        self._check_rank(root)
        self._check_values(values)
        if op is None:
            op = lambda a, b: a + b  # noqa: E731
        acc = values[0]
        for v in values[1:]:
            acc = op(acc, v)
        nbytes = _payload_nbytes(values[0])
        cost = self.cost_model.reduce(nbytes, self._nranks)
        self.clocks.synchronize(cost)
        self._record("reduce", nbytes, cost)
        out: List[Optional[Any]] = [None] * self._nranks
        out[root] = acc
        return out

    def alltoallv(self, send_lists: Sequence[Sequence[Any]]) -> List[List[Any]]:
        """Personalised all-to-all exchange.

        ``send_lists[i][j]`` is the payload rank ``i`` sends to rank ``j``
        (``None`` meaning nothing).  Returns ``recv[j][i]`` = payload received
        by ``j`` from ``i``.  This is the primitive the block-redistribution
        step uses: each rank posts non-blocking sends/receives for the blocks
        it gives away / takes over.
        """
        self._check_values(send_lists, "send_lists")
        # int64 byte matrix: the cost model prices it with one vectorised
        # row/column-sum pass, which is what keeps 10k-virtual-rank sweeps
        # out of O(P^2) Python loops.
        matrix = np.zeros((self._nranks, self._nranks), dtype=np.int64)
        recv: List[List[Any]] = [[None] * self._nranks for _ in range(self._nranks)]
        total_bytes = 0
        for i, row in enumerate(send_lists):
            if len(row) != self._nranks:
                raise ValueError(
                    f"send_lists[{i}] must have {self._nranks} entries, got {len(row)}"
                )
            for j, payload in enumerate(row):
                if payload is None:
                    continue
                nbytes = _payload_nbytes(payload)
                matrix[i, j] = nbytes
                total_bytes += nbytes
                recv[j][i] = payload
        cost = self.cost_model.alltoallv(matrix, self._nranks)
        self.clocks.synchronize(cost)
        self._record("alltoallv", total_bytes, cost)
        return recv

    # -- diagnostics -----------------------------------------------------------------

    def communication_seconds(self) -> float:
        """Total modelled seconds spent in communication so far."""
        return float(sum(e["seconds"] for e in self.stats.values()))

    def reset_stats(self) -> None:
        """Clear the per-operation statistics."""
        self.stats.clear()

    def _check_rank(self, rank: int) -> None:
        if not (0 <= rank < self._nranks):
            raise ValueError(f"rank {rank} out of range [0, {self._nranks})")
