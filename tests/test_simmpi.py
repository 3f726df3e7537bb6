"""Tests for repro.simmpi: cost model, clocks, BSP communicator, sort."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.simmpi.communicator import BSPCommunicator, _payload_nbytes
from repro.simmpi.costmodel import NetworkCostModel
from repro.simmpi.sort import (
    parallel_sort_pairs,
    parallel_sort_pairs_numpy,
    sample_sort,
)
from repro.simmpi.timing import VirtualClocks


class TestNetworkCostModel:
    def test_p2p_monotone_in_size(self):
        model = NetworkCostModel.blue_waters()
        assert model.p2p(10_000) > model.p2p(100) > 0

    def test_p2p_negative_rejected(self):
        with pytest.raises(ValueError):
            NetworkCostModel().p2p(-1)

    def test_single_rank_collectives_free(self):
        model = NetworkCostModel()
        assert model.bcast(1000, 1) == 0.0
        assert model.allgather(1000, 1) == 0.0
        assert model.allreduce(1000, 1) == 0.0

    def test_bcast_grows_with_ranks(self):
        model = NetworkCostModel()
        assert model.bcast(1 << 20, 64) >= model.bcast(1 << 20, 4)

    def test_allreduce_about_twice_bcast(self):
        model = NetworkCostModel(per_rank_overhead=0.0)
        assert model.allreduce(1 << 20, 16) == pytest.approx(2 * model.bcast(1 << 20, 16))

    def test_gather_scales_with_total_volume(self):
        model = NetworkCostModel()
        assert model.gather(1 << 20, 64) > model.gather(1 << 20, 8)

    def test_alltoallv_dominated_by_busiest_rank(self):
        model = NetworkCostModel(per_rank_overhead=0.0)
        # Rank 0 sends 1 MB to everyone; others send nothing.
        matrix = [[0] * 4 for _ in range(4)]
        for j in range(1, 4):
            matrix[0][j] = 1 << 20
        cost_hot = model.alltoallv(matrix, 4)
        balanced = [[1 << 18 if i != j else 0 for j in range(4)] for i in range(4)]
        cost_balanced = model.alltoallv(balanced, 4)
        assert cost_hot > cost_balanced

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            NetworkCostModel(latency=0.0)
        with pytest.raises(ValueError):
            NetworkCostModel(bandwidth=-1)

    def test_slow_cluster_slower_than_blue_waters(self):
        slow = NetworkCostModel.slow_cluster()
        fast = NetworkCostModel.blue_waters()
        assert slow.p2p(1 << 20) > fast.p2p(1 << 20)


class TestNetworkCostModelBatch:
    """The batch/vectorised pricing paths must match their scalar references."""

    def test_p2p_batch_matches_p2p_elementwise(self):
        model = NetworkCostModel.blue_waters()
        sizes = np.array([0, 1, 17, 1024, 1 << 20, 1 << 30], dtype=np.int64)
        batch = model.p2p_batch(sizes)
        assert batch.shape == sizes.shape
        for size, cost in zip(sizes, batch):
            assert cost == model.p2p(int(size))

    def test_p2p_batch_accepts_lists_and_empty(self):
        model = NetworkCostModel()
        assert model.p2p_batch([100])[0] == model.p2p(100)
        assert model.p2p_batch(np.array([], dtype=np.int64)).size == 0

    def test_p2p_batch_negative_rejected(self):
        with pytest.raises(ValueError):
            NetworkCostModel().p2p_batch(np.array([10, -1, 5]))

    def test_barrier_single_rank(self):
        model = NetworkCostModel(latency=1e-6, per_rank_overhead=1e-5)
        # _log2p clamps to one dissemination round even for P=1.
        assert model.barrier(1) == pytest.approx(1e-6 + 1e-5)

    def test_barrier_huge_rank_count(self):
        model = NetworkCostModel(latency=1e-6, per_rank_overhead=0.0)
        # ceil(log2(2^20)) = 20 rounds, nothing else.
        assert model.barrier(1 << 20) == pytest.approx(20 * 1e-6)

    def test_barrier_monotone_in_ranks(self):
        model = NetworkCostModel()
        costs = [model.barrier(p) for p in (1, 2, 64, 4096, 1 << 20)]
        assert costs == sorted(costs)

    def test_scatter_edges_mirror_gather(self):
        model = NetworkCostModel()
        assert model.scatter(1 << 20, 1) == 0.0
        for nranks in (2, 64, 1 << 16):
            assert model.scatter(1 << 10, nranks) == model.gather(1 << 10, nranks)

    def test_alltoallv_shape_validated(self):
        with pytest.raises(ValueError):
            NetworkCostModel().alltoallv(np.zeros((3, 4)), 4)

    def test_alltoallv_matches_loop_on_random_matrices(self):
        """Vectorised pricing returns the *identical* float as the loop."""
        model = NetworkCostModel.blue_waters()
        rng = np.random.default_rng(42)
        for nranks in (1, 2, 3, 8, 17):
            matrix = rng.integers(0, 1 << 16, size=(nranks, nranks))
            assert model.alltoallv(matrix, nranks) == model.alltoallv_loop(
                matrix, nranks
            )

    def test_alltoallv_matches_loop_on_float_and_negative_entries(self):
        """Floats truncate like int() and non-positive entries carry nothing."""
        model = NetworkCostModel.slow_cluster()
        rng = np.random.default_rng(7)
        for _ in range(10):
            nranks = int(rng.integers(2, 9))
            matrix = rng.uniform(-1000.0, 1e6, size=(nranks, nranks))
            assert model.alltoallv(matrix, nranks) == model.alltoallv_loop(
                matrix, nranks
            )

    def test_alltoallv_accepts_nested_lists(self):
        model = NetworkCostModel()
        matrix = [[0, 10, 0], [5, 0, 0], [0, 0, 0]]
        assert model.alltoallv(matrix, 3) == model.alltoallv_loop(matrix, 3)

    def test_alltoallv_does_not_mutate_input(self):
        model = NetworkCostModel()
        matrix = np.full((4, 4), 100, dtype=np.int64)
        before = matrix.copy()
        model.alltoallv(matrix, 4)
        assert np.array_equal(matrix, before)

    @settings(deadline=None, max_examples=30)
    @given(
        nranks=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_alltoallv_parity_property(self, nranks, seed):
        model = NetworkCostModel.blue_waters()
        rng = np.random.default_rng(seed)
        matrix = rng.integers(-100, 1 << 12, size=(nranks, nranks))
        assert model.alltoallv(matrix, nranks) == model.alltoallv_loop(matrix, nranks)


class TestVirtualClocks:
    def test_advance_and_query(self):
        clocks = VirtualClocks(4)
        clocks.advance(1, 2.0)
        assert clocks.time(1) == 2.0
        assert clocks.time(0) == 0.0
        assert clocks.max_time() == 2.0

    def test_advance_all(self):
        clocks = VirtualClocks(3)
        clocks.advance_all([1.0, 2.0, 3.0])
        assert clocks.times() == [1.0, 2.0, 3.0]

    def test_synchronize_jumps_to_max_plus_cost(self):
        clocks = VirtualClocks(3)
        clocks.advance_all([1.0, 5.0, 3.0])
        t = clocks.synchronize(cost=0.5)
        assert t == pytest.approx(5.5)
        assert clocks.times() == [5.5, 5.5, 5.5]

    def test_synchronize_subset(self):
        clocks = VirtualClocks(4)
        clocks.advance_all([1.0, 2.0, 3.0, 10.0])
        clocks.synchronize(cost=0.0, ranks=[0, 1, 2])
        assert clocks.time(0) == 3.0
        assert clocks.time(3) == 10.0

    def test_imbalance(self):
        clocks = VirtualClocks(2)
        clocks.advance_all([1.0, 3.0])
        assert clocks.imbalance() == pytest.approx(1.5)

    def test_negative_rejected(self):
        clocks = VirtualClocks(2)
        with pytest.raises(ValueError):
            clocks.advance(0, -1.0)
        with pytest.raises(ValueError):
            clocks.synchronize(cost=-1.0)

    def test_reset(self):
        clocks = VirtualClocks(2)
        clocks.advance(0, 1.0)
        clocks.reset()
        assert clocks.max_time() == 0.0


class TestBSPCommunicator:
    def test_bcast_delivers_to_all(self):
        comm = BSPCommunicator(4)
        out = comm.bcast({"a": 1}, root=0)
        assert len(out) == 4 and all(v == {"a": 1} for v in out)

    def test_gather_only_root(self):
        comm = BSPCommunicator(3)
        out = comm.gather([10, 20, 30], root=1)
        assert out[1] == [10, 20, 30]
        assert out[0] is None and out[2] is None

    def test_allgather(self):
        comm = BSPCommunicator(3)
        out = comm.allgather(["a", "b", "c"])
        assert all(v == ["a", "b", "c"] for v in out)

    def test_scatter(self):
        comm = BSPCommunicator(3)
        out = comm.scatter([1, 2, 3], root=0)
        assert out == [1, 2, 3]

    def test_allreduce_sum_default(self):
        comm = BSPCommunicator(4)
        out = comm.allreduce([1, 2, 3, 4])
        assert out == [10, 10, 10, 10]

    def test_reduce_custom_op(self):
        comm = BSPCommunicator(3)
        out = comm.reduce([5, 1, 7], op=max, root=2)
        assert out[2] == 7 and out[0] is None

    def test_alltoallv_exchange(self):
        comm = BSPCommunicator(2)
        send = [[None, "from0"], ["from1", None]]
        recv = comm.alltoallv(send)
        assert recv[1][0] == "from0"
        assert recv[0][1] == "from1"

    def test_alltoallv_shape_validated(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[None], [None, None]])

    def test_clock_advances_with_collectives(self):
        comm = BSPCommunicator(4)
        before = comm.clocks.max_time()
        comm.bcast(np.zeros(1000), root=0)
        assert comm.clocks.max_time() > before
        assert comm.communication_seconds() > 0

    def test_compute_charges_per_rank(self):
        comm = BSPCommunicator(2)
        comm.compute([1.0, 3.0])
        assert comm.clocks.times() == [1.0, 3.0]

    def test_value_count_validated(self):
        comm = BSPCommunicator(3)
        with pytest.raises(ValueError):
            comm.gather([1, 2])

    def test_stats_tracking(self):
        comm = BSPCommunicator(2)
        comm.barrier()
        comm.bcast(1)
        assert comm.stats["barrier"]["calls"] == 1
        assert comm.stats["bcast"]["calls"] == 1
        comm.reset_stats()
        assert comm.stats == {}

    def test_payload_nbytes_array_vs_object(self):
        arr = np.zeros(100, dtype=np.float64)
        assert _payload_nbytes(arr) == 800
        assert _payload_nbytes("hello") > 0

    def test_payload_nbytes_unpicklable_uses_estimate(self):
        import threading

        from repro.simmpi.communicator import UNPICKLABLE_PAYLOAD_NBYTES

        lock = threading.Lock()  # TypeError from pickle
        assert _payload_nbytes(lock) == UNPICKLABLE_PAYLOAD_NBYTES
        assert _payload_nbytes(lambda x: x) == UNPICKLABLE_PAYLOAD_NBYTES

    def test_payload_nbytes_real_errors_propagate(self):
        class Exploding:
            def __reduce__(self):
                raise OSError("disk on fire")

        with pytest.raises(OSError):
            _payload_nbytes(Exploding())


class TestParallelSort:
    def test_gather_sort_broadcast_matches_sequential(self):
        comm = BSPCommunicator(4)
        rng = np.random.default_rng(3)
        per_rank = []
        bid = 0
        for _ in range(4):
            pairs = []
            for _ in range(5):
                pairs.append((bid, float(rng.integers(0, 10))))
                bid += 1
            per_rank.append(pairs)
        out = parallel_sort_pairs(comm, per_rank)
        flat = [p for pairs in per_rank for p in pairs]
        expected = sorted(flat, key=lambda p: (p[1], p[0]))
        assert out[0] == expected
        # Every rank receives the same sorted list.
        assert all(o == expected for o in out)

    def test_sort_handles_empty_rank(self):
        comm = BSPCommunicator(3)
        per_rank = [[(0, 1.0)], [], [(1, 0.5)]]
        out = parallel_sort_pairs(comm, per_rank)
        assert out[0] == [(1, 0.5), (0, 1.0)]

    def test_sort_wrong_rank_count(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            parallel_sort_pairs(comm, [[(0, 1.0)]])

    def test_sample_sort_concatenation_is_sorted(self):
        comm = BSPCommunicator(4)
        rng = np.random.default_rng(9)
        per_rank = []
        bid = 0
        for _ in range(4):
            pairs = []
            for _ in range(20):
                pairs.append((bid, float(rng.normal())))
                bid += 1
            per_rank.append(pairs)
        out = sample_sort(comm, per_rank)
        merged = [p for part in out for p in part]
        flat = [p for pairs in per_rank for p in pairs]
        assert merged == sorted(flat, key=lambda p: (p[1], p[0]))

    def test_sample_sort_single_rank(self):
        comm = BSPCommunicator(1)
        out = sample_sort(comm, [[(1, 2.0), (0, 1.0)]])
        assert out[0] == [(0, 1.0), (1, 2.0)]

    @settings(deadline=None, max_examples=25)
    @given(
        scores=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False), min_size=4, max_size=40
        ),
        nranks=st.sampled_from([2, 3, 4]),
    )
    def test_parallel_sort_property(self, scores, nranks):
        """The distributed sort always equals the sequential (score, id) sort."""
        comm = BSPCommunicator(nranks)
        pairs = [(i, float(s)) for i, s in enumerate(scores)]
        per_rank = [pairs[r::nranks] for r in range(nranks)]
        out = parallel_sort_pairs(comm, per_rank)
        assert out[0] == sorted(pairs, key=lambda p: (p[1], p[0]))


class TestParallelSortNumpy:
    """The lexsort path must be indistinguishable from the Python path —
    values, types, comm calls, bytes, and modelled seconds."""

    def _random_pairs(self, nranks, per_rank_count, seed=3):
        rng = np.random.default_rng(seed)
        per_rank = []
        bid = 0
        for _ in range(nranks):
            pairs = []
            for _ in range(per_rank_count):
                pairs.append((bid, float(rng.integers(0, 10))))
                bid += 1
            per_rank.append(pairs)
        return per_rank

    def test_matches_python_path_bitwise(self):
        per_rank = self._random_pairs(4, 5)
        python_comm = BSPCommunicator(4)
        numpy_comm = BSPCommunicator(4)
        python_out = parallel_sort_pairs(python_comm, per_rank)
        numpy_out = parallel_sort_pairs_numpy(numpy_comm, per_rank)
        assert numpy_out[0] == python_out[0]
        assert all(o == python_out[0] for o in numpy_out)
        # Same tuple element types (int ids, float scores), not np scalars.
        for bid, score in numpy_out[0]:
            assert type(bid) is int and type(score) is float
        # Identical communication: same ops, same calls, same bytes, and
        # therefore identical modelled seconds.
        assert numpy_comm.stats == python_comm.stats

    def test_shared_result_list_across_ranks(self):
        """Every rank holds literally the same list, mirroring the broadcast
        buffer — what makes the sorting step's agreement check O(nranks)."""
        comm = BSPCommunicator(3)
        out = parallel_sort_pairs_numpy(comm, self._random_pairs(3, 4))
        assert all(o is out[0] for o in out)

    def test_handles_empty_ranks(self):
        comm = BSPCommunicator(3)
        out = parallel_sort_pairs_numpy(comm, [[(0, 1.0)], [], [(1, 0.5)]])
        assert out[0] == [(1, 0.5), (0, 1.0)]

    def test_all_empty(self):
        comm = BSPCommunicator(2)
        out = parallel_sort_pairs_numpy(comm, [[], []])
        assert out == [[], []]

    def test_wrong_rank_count(self):
        comm = BSPCommunicator(2)
        with pytest.raises(ValueError):
            parallel_sort_pairs_numpy(comm, [[(0, 1.0)]])

    @settings(deadline=None, max_examples=25)
    @given(
        scores=st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=4,
            max_size=40,
        ),
        nranks=st.sampled_from([2, 3, 4]),
    )
    def test_numpy_sort_property(self, scores, nranks):
        """The lexsort path always equals the sequential (score, id) sort."""
        comm = BSPCommunicator(nranks)
        pairs = [(i, float(s)) for i, s in enumerate(scores)]
        per_rank = [pairs[r::nranks] for r in range(nranks)]
        out = parallel_sort_pairs_numpy(comm, per_rank)
        assert out[0] == sorted(pairs, key=lambda p: (p[1], p[0]))
