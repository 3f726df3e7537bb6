"""A simulated MPI runtime.

The paper runs on Blue Waters with real MPI; this environment has neither, so
``repro.simmpi`` provides :class:`BSPCommunicator` — a bulk-synchronous,
driver-side communicator.  The caller holds per-rank values in Python lists
indexed by rank and the communicator implements the MPI collective
*semantics* over those lists while charging modelled communication time to
per-rank :class:`VirtualClocks` through a latency/bandwidth
:class:`NetworkCostModel`.  It scales to thousands of virtual ranks in a
single process and is fully deterministic.  The module also provides the
parallel sorts of the pipeline's sorting step (:mod:`repro.simmpi.sort`).
"""

from repro.simmpi.costmodel import NetworkCostModel
from repro.simmpi.timing import VirtualClocks
from repro.simmpi.communicator import BSPCommunicator
from repro.simmpi.sort import (
    parallel_sort_pairs,
    parallel_sort_pairs_numpy,
    sample_sort,
)

__all__ = [
    "NetworkCostModel",
    "VirtualClocks",
    "BSPCommunicator",
    "parallel_sort_pairs",
    "parallel_sort_pairs_numpy",
    "sample_sort",
]
