"""Tests for the individual pipeline steps (scoring, sorting, reduction, redistribution, rendering)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.redistribution import (
    NoRedistribution,
    RandomShuffle,
    RoundRobin,
    make_strategy,
)
from repro.core.reduction_step import (
    DEFAULT_QUALITY_LADDER,
    ReductionStep,
    VectorizedReductionStep,
    select_blocks_to_reduce,
    select_reduction_levels,
    validate_quality_ladder,
)
from repro.core.rendering_step import RenderingStep
from repro.core.scoring_step import ScoringStep
from repro.core.sorting_step import SortingStep, VectorizedSortingStep


def owners_dict(assignment):
    """Assignment arrays as an id -> destination dict (test convenience)."""
    block_ids, dests = assignment
    return {int(i): int(d) for i, d in zip(block_ids, dests)}
from repro.grid.decomposition import CartesianDecomposition
from repro.metrics.registry import create_metric
from repro.perfmodel.platform import PlatformModel
from repro.simmpi.communicator import BSPCommunicator


@pytest.fixture()
def per_rank_blocks(tiny_field):
    decomp = CartesianDecomposition(tiny_field.shape, nranks=4, blocks_per_subdomain=(2, 2, 1))
    return [decomp.extract_blocks(r, tiny_field) for r in range(4)]


@pytest.fixture()
def platform():
    return PlatformModel.blue_waters(4)


class TestScoringStep:
    def test_scores_every_block(self, per_rank_blocks, platform):
        step = ScoringStep(create_metric("VAR"), platform)
        pairs, scored, info = step.run(per_rank_blocks)
        assert len(pairs) == 4
        total = sum(len(p) for p in pairs)
        assert total == sum(len(b) for b in per_rank_blocks)
        for rank_blocks in scored:
            for blk in rank_blocks:
                assert blk.score is not None
        assert info["modelled_max"] > 0

    def test_scores_match_metric(self, per_rank_blocks, platform):
        metric = create_metric("RANGE")
        step = ScoringStep(metric, platform)
        pairs, scored, _ = step.run(per_rank_blocks)
        for (bid, score), blk in zip(pairs[0], per_rank_blocks[0]):
            assert bid == blk.block_id
            assert score == pytest.approx(metric.score_block(blk.data))


class TestSortingStep:
    def test_global_sort(self, per_rank_blocks, platform):
        comm = BSPCommunicator(4, cost_model=platform.network)
        scoring = ScoringStep(create_metric("VAR"), platform)
        pairs, _, _ = scoring.run(per_rank_blocks)
        sorted_pairs, info = SortingStep(comm).run(pairs)
        scores = [s for _, s in sorted_pairs]
        assert scores == sorted(scores)
        assert len(sorted_pairs) == sum(len(p) for p in pairs)
        assert info["modelled"] >= 0

    def test_numpy_backend_bitwise_identical(self, per_rank_blocks, platform):
        """The vectorized (lexsort) sorting step returns the identical list
        and charges the identical modelled communication seconds."""
        scoring = ScoringStep(create_metric("VAR"), platform)
        pairs, _, _ = scoring.run(per_rank_blocks)
        serial_comm = BSPCommunicator(4, cost_model=platform.network)
        numpy_comm = BSPCommunicator(4, cost_model=platform.network)
        serial_sorted, serial_info = SortingStep(serial_comm).run(pairs)
        numpy_sorted, numpy_info = VectorizedSortingStep(numpy_comm).run(pairs)
        assert numpy_sorted == serial_sorted
        assert numpy_info["modelled"] == serial_info["modelled"]
        assert serial_comm.stats == numpy_comm.stats

    def test_diverging_rank_lists_rejected(self, platform):
        """Regression for the blind ``per_rank_sorted[0]``: a sort backend
        that hands ranks different lists must fail loudly, not silently
        corrupt every downstream decision."""

        class BrokenSortingStep(SortingStep):
            def _sort(self, per_rank_pairs):
                good = [(0, 0.5), (1, 1.5)]
                return [list(good) for _ in range(self.comm.nranks - 1)] + [
                    [(1, 1.5), (0, 0.5)]
                ]

        comm = BSPCommunicator(4, cost_model=platform.network)
        with pytest.raises(RuntimeError, match="diverging"):
            BrokenSortingStep(comm).run([[(0, 0.5)], [(1, 1.5)], [], []])


class TestReductionSelection:
    def test_zero_and_full_percent(self):
        pairs = [(i, float(i)) for i in range(10)]
        assert select_blocks_to_reduce(pairs, 0.0) == set()
        assert select_blocks_to_reduce(pairs, 100.0) == set(range(10))

    def test_fifty_percent_takes_lowest_scores(self):
        pairs = [(i, float(i)) for i in range(10)]
        assert select_blocks_to_reduce(pairs, 50.0) == {0, 1, 2, 3, 4}

    def test_percent_out_of_range(self):
        with pytest.raises(ValueError):
            select_blocks_to_reduce([], 150.0)
        with pytest.raises(ValueError):
            select_blocks_to_reduce([], -1.0)

    def test_empty_pairs(self):
        assert select_blocks_to_reduce([], 0.0) == set()
        assert select_blocks_to_reduce([], 50.0) == set()
        assert select_blocks_to_reduce([], 100.0) == set()

    def test_full_percent_selects_everything(self):
        pairs = [(i, float(i % 3)) for i in range(7)]
        pairs = sorted(pairs, key=lambda p: (p[1], p[0]))
        assert select_blocks_to_reduce(pairs, 100.0) == set(range(7))

    @settings(deadline=None, max_examples=50)
    @given(
        nblocks=st.integers(min_value=1, max_value=200),
        percent=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_selection_size_property(self, nblocks, percent):
        pairs = [(i, float(i % 7)) for i in range(nblocks)]
        pairs = sorted(pairs, key=lambda p: (p[1], p[0]))
        selected = select_blocks_to_reduce(pairs, percent)
        expected = min(nblocks, math.floor(nblocks * percent / 100.0 + 0.5))
        assert len(selected) == expected

    def test_round_half_up_boundaries(self):
        """Half-way counts round up for every parity (regression: Python's
        round() does banker's rounding, so 5% of 10 blocks selected 0 blocks
        while 5% of 30 selected 2)."""
        def count(nblocks, percent):
            pairs = [(i, float(i)) for i in range(nblocks)]
            return len(select_blocks_to_reduce(pairs, percent))

        assert count(10, 5.0) == 1   # 0.5 -> 1 (banker's round gave 0)
        assert count(30, 5.0) == 2   # 1.5 -> 2
        assert count(10, 25.0) == 3  # 2.5 -> 3 (banker's round gave 2)
        assert count(10, 35.0) == 4  # 3.5 -> 4
        assert count(10, 45.0) == 5  # 4.5 -> 5 (banker's round gave 4)
        # Non-boundary values are unaffected.
        assert count(10, 24.0) == 2
        assert count(10, 26.0) == 3

    def test_reduction_step_reduces_selected(self, per_rank_blocks):
        all_pairs = sorted(
            [(b.block_id, float(b.block_id)) for blocks in per_rank_blocks for b in blocks],
            key=lambda p: (p[1], p[0]),
        )
        step = ReductionStep()
        out, reduced_ids, info = step.run(per_rank_blocks, all_pairs, percent=50.0)
        assert info["nreduced"] == len(reduced_ids)
        for blocks in out:
            for blk in blocks:
                assert blk.reduced == (blk.block_id in reduced_ids)
                if blk.reduced:
                    assert blk.data.shape == (2, 2, 2)


class TestReductionBackends:
    """Vectorized reduction must be bitwise identical to serial."""

    def _pairs(self, per_rank_blocks):
        return sorted(
            [
                (b.block_id, float(b.block_id % 5))
                for blocks in per_rank_blocks
                for b in blocks
            ],
            key=lambda p: (p[1], p[0]),
        )

    @pytest.mark.parametrize("percent", [0.0, 35.0, 100.0])
    def test_backends_bitwise_identical(self, per_rank_blocks, platform, percent):
        pairs = self._pairs(per_rank_blocks)
        serial = ReductionStep(platform)
        vector = VectorizedReductionStep(platform)
        s_out, s_ids, s_info = serial.run(per_rank_blocks, pairs, percent)
        out, ids, info = vector.run(per_rank_blocks, pairs, percent)
        assert ids == s_ids
        assert info["modelled_per_rank"] == s_info["modelled_per_rank"]
        assert info["nreduced"] == s_info["nreduced"]
        for s_blocks, blocks in zip(s_out, out):
            assert [b.block_id for b in blocks] == [b.block_id for b in s_blocks]
            for s_blk, blk in zip(s_blocks, blocks):
                assert blk.reduced == s_blk.reduced
                assert blk.data.dtype == s_blk.data.dtype
                np.testing.assert_array_equal(blk.data, s_blk.data)

    def test_already_reduced_blocks_left_alone(self, per_rank_blocks, platform):
        from repro.grid.reduction import reduce_block

        pre_reduced = [
            [reduce_block(b) for b in blocks] for blocks in per_rank_blocks
        ]
        pairs = self._pairs(per_rank_blocks)
        for step in (ReductionStep(platform), VectorizedReductionStep(platform)):
            out, _, info = step.run(pre_reduced, pairs, 100.0)
            for before, after in zip(pre_reduced, out):
                # Reducing a reduced block is a no-op returning the block.
                assert all(a is b for a, b in zip(after, before))
            # The modelled cost still counts the selected blocks, as serial does.
            assert info["modelled_per_rank"] == [
                platform.reduction_seconds(len(blocks)) for blocks in pre_reduced
            ]

    def test_platform_derived_cost_matches_default(self, per_rank_blocks, platform):
        """The platform's default coefficient reproduces the historical
        hard-coded SECONDS_PER_REDUCED_BLOCK figures exactly."""
        from repro.core.reduction_step import SECONDS_PER_REDUCED_BLOCK

        assert platform.seconds_per_reduced_block == SECONDS_PER_REDUCED_BLOCK
        pairs = self._pairs(per_rank_blocks)
        with_platform = ReductionStep(platform)
        without_platform = ReductionStep()
        _, _, a = with_platform.run(per_rank_blocks, pairs, 50.0)
        _, _, b = without_platform.run(per_rank_blocks, pairs, 50.0)
        assert a["modelled_per_rank"] == b["modelled_per_rank"]


class TestQualityLadder:
    """The multi-rung quality ladder: validation, selection, step behavior."""

    def test_validate_normalises(self):
        assert validate_quality_ladder([(2, 1.0)]) == ((2, 1.0),)
        assert validate_quality_ladder([[1, 0.5], [2, 0.5]]) == ((1, 0.5), (2, 0.5))

    @pytest.mark.parametrize(
        "bad",
        [
            [],                       # no rungs
            [(0, 1.0)],               # level 0 is not a reduction
            [(3, 1.0)],               # unknown level
            [(2, 0.5), (2, 0.5)],     # repeated level
            [(2, 0.0)],               # zero fraction
            [(1, 0.4), (2, 0.4)],     # fractions don't sum to 1
            [(2, 1.0, 3.0)],          # malformed rung
        ],
    )
    def test_validate_rejects(self, bad):
        with pytest.raises(ValueError):
            validate_quality_ladder(bad)

    def test_default_ladder_matches_binary_selection(self):
        pairs = [(i, float(i)) for i in range(10)]
        for percent in (0.0, 5.0, 35.0, 50.0, 100.0):
            levels = select_reduction_levels(pairs, percent, DEFAULT_QUALITY_LADDER)
            assert set(levels) == select_blocks_to_reduce(pairs, percent)
            assert all(level == 2 for level in levels.values())

    def test_rungs_applied_over_ascending_prefix(self):
        """The lowest scores take the first rung; the last absorbs remainder."""
        pairs = [(i, float(i)) for i in range(10)]
        levels = select_reduction_levels(pairs, 100.0, ((2, 0.5), (1, 0.5)))
        assert {i for i, l in levels.items() if l == 2} == {0, 1, 2, 3, 4}
        assert {i for i, l in levels.items() if l == 1} == {5, 6, 7, 8, 9}
        # Odd selection count: the last rung takes the rounding remainder.
        levels = select_reduction_levels(pairs, 50.0, ((2, 0.5), (1, 0.5)))
        assert sorted(levels) == [0, 1, 2, 3, 4]
        assert [levels[i] for i in range(5)] == [2, 2, 2, 1, 1]

    def _pairs(self, per_rank_blocks):
        return sorted(
            [
                (b.block_id, float(b.block_id % 5))
                for blocks in per_rank_blocks
                for b in blocks
            ],
            key=lambda p: (p[1], p[0]),
        )

    def test_ladder_backends_bitwise_identical(self, per_rank_blocks, platform):
        ladder = ((2, 0.5), (1, 0.5))
        pairs = self._pairs(per_rank_blocks)
        serial = ReductionStep(platform, quality_ladder=ladder)
        s_out, s_ids, s_info = serial.run(per_rank_blocks, pairs, 60.0)
        vector = VectorizedReductionStep(platform, quality_ladder=ladder)
        out, ids, info = vector.run(per_rank_blocks, pairs, 60.0)
        assert ids == s_ids
        assert info["reduction_levels"] == s_info["reduction_levels"]
        assert info["modelled_per_rank"] == s_info["modelled_per_rank"]
        assert info["points_copied"] == s_info["points_copied"]
        for s_blocks, blocks in zip(s_out, out):
            for s_blk, blk in zip(s_blocks, blocks):
                assert blk.level == s_blk.level
                np.testing.assert_array_equal(blk.data, s_blk.data)

    def test_ladder_produces_mixed_levels(self, per_rank_blocks, platform):
        ladder = ((2, 0.5), (1, 0.5))
        pairs = self._pairs(per_rank_blocks)
        step = ReductionStep(platform, quality_ladder=ladder)
        out, reduced_ids, info = step.run(per_rank_blocks, pairs, 100.0)
        by_level = {}
        for blocks in out:
            for blk in blocks:
                by_level.setdefault(blk.level, []).append(blk)
        assert set(by_level) == {1, 2}
        from repro.grid.block import level_shape

        for blk in by_level[1]:
            assert blk.data.shape == level_shape(1, blk.extent.shape)
        # Level-1 blocks copy more points than corner blocks, and the cost
        # model prices that: the mixed ladder costs more than all-corners.
        all_corners = ReductionStep(platform)
        _, _, corner_info = all_corners.run(per_rank_blocks, pairs, 100.0)
        assert info["points_copied"] > corner_info["points_copied"]
        assert max(info["modelled_per_rank"]) > max(corner_info["modelled_per_rank"])

    def test_execute_records_levels_in_context(self, per_rank_blocks, platform):
        from repro.core.step import IterationContext

        pairs = self._pairs(per_rank_blocks)
        context = IterationContext(
            iteration=0,
            percent=50.0,
            nranks=len(per_rank_blocks),
            per_rank_blocks=[list(b) for b in per_rank_blocks],
            sorted_pairs=pairs,
        )
        step = ReductionStep(platform, quality_ladder=((2, 0.5), (1, 0.5)))
        report = step.execute(context)
        assert context.reduction_levels is not None
        assert set(context.reduction_levels) == context.reduced_ids
        assert report.counters["nreduced"] == len(context.reduced_ids)
        assert report.counters["points_copied"] > 0

    def test_invalid_ladder_rejected_at_step_construction(self, platform):
        with pytest.raises(ValueError):
            ReductionStep(platform, quality_ladder=((3, 1.0),))


class TestRedistribution:
    def _pairs(self, per_rank_blocks):
        return sorted(
            [(b.block_id, float(b.block_id % 5)) for blocks in per_rank_blocks for b in blocks],
            key=lambda p: (p[1], p[0]),
        )

    def test_none_strategy_keeps_everything(self, per_rank_blocks, platform):
        comm = BSPCommunicator(4, cost_model=platform.network)
        out, info = NoRedistribution().redistribute(comm, per_rank_blocks, self._pairs(per_rank_blocks), 0)
        assert info["modelled"] == 0.0
        for original, new in zip(per_rank_blocks, out):
            assert [b.block_id for b in original] == [b.block_id for b in new]

    def test_none_strategy_refreshes_owner_metadata(self, per_rank_blocks, platform):
        """NoRedistribution leaves ``block.owner`` equal to the holding rank,
        like the exchanging strategies do (regression: it used to return the
        blocks untouched, so stale owners survived the step)."""
        comm = BSPCommunicator(4, cost_model=platform.network)
        stale = [
            [b.with_owner((rank + 1) % 4) for b in blocks]
            for rank, blocks in enumerate(per_rank_blocks)
        ]
        out, info = NoRedistribution().redistribute(
            comm, stale, self._pairs(per_rank_blocks), 0
        )
        for rank, blocks in enumerate(out):
            assert all(b.owner == rank for b in blocks)
        assert info["modelled"] == 0.0 and info["moved_bytes"] == 0.0
        # No communication happened: the skip really skips the exchange.
        assert comm.stats == {}

    def test_assignment_arrays_form(self):
        pairs = [(i, float(i)) for i in range(8)]
        for strategy in (NoRedistribution(), RandomShuffle(seed=1), RoundRobin()):
            block_ids, dests = strategy.assign_owners(pairs, nranks=4, iteration=0)
            assert block_ids.dtype == np.int64 and dests.dtype == np.int64
            assert block_ids.shape == dests.shape

    def test_round_robin_assignment_order(self):
        pairs = [(i, float(i)) for i in range(8)]  # ascending scores
        owners = owners_dict(RoundRobin().assign_owners(pairs, nranks=4, iteration=0))
        # Highest score (id 7) goes to rank 0, next (id 6) to rank 1, ...
        assert owners[7] == 0 and owners[6] == 1 and owners[5] == 2 and owners[4] == 3
        assert owners[3] == 0

    def test_round_robin_counts_balanced(self):
        pairs = [(i, float(i)) for i in range(16)]
        owners = owners_dict(RoundRobin().assign_owners(pairs, nranks=4, iteration=0))
        counts = np.bincount(list(owners.values()), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_shuffle_same_seed_same_assignment(self):
        pairs = [(i, float(i)) for i in range(20)]
        a = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=3))
        b = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=3))
        assert a == b

    def test_shuffle_counts_constant_per_rank(self):
        pairs = [(i, float(i)) for i in range(20)]
        owners = owners_dict(RandomShuffle(seed=1).assign_owners(pairs, 4, iteration=0))
        counts = np.bincount(list(owners.values()), minlength=4)
        assert counts.max() - counts.min() <= 1

    def test_shuffle_differs_across_iterations(self):
        pairs = [(i, float(i)) for i in range(40)]
        a = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=0))
        b = owners_dict(RandomShuffle(seed=5).assign_owners(pairs, 4, iteration=1))
        assert a != b

    def test_redistribute_preserves_blocks(self, per_rank_blocks, platform):
        comm = BSPCommunicator(4, cost_model=platform.network)
        pairs = self._pairs(per_rank_blocks)
        out, info = RoundRobin().redistribute(comm, per_rank_blocks, pairs, 0)
        original_ids = sorted(b.block_id for blocks in per_rank_blocks for b in blocks)
        new_ids = sorted(b.block_id for blocks in out for b in blocks)
        assert new_ids == original_ids
        assert info["modelled"] > 0.0
        assert info["moved_bytes"] > 0
        # Owners updated to the rank actually holding the block.
        for rank, blocks in enumerate(out):
            assert all(b.owner == rank for b in blocks)

    def test_redistribute_block_counts_constant(self, per_rank_blocks, platform):
        comm = BSPCommunicator(4, cost_model=platform.network)
        out, _ = RandomShuffle(seed=2).redistribute(
            comm, per_rank_blocks, self._pairs(per_rank_blocks), 0
        )
        counts = [len(blocks) for blocks in out]
        assert max(counts) - min(counts) <= 1

    def test_make_strategy_factory(self):
        assert isinstance(make_strategy("none"), NoRedistribution)
        assert isinstance(make_strategy("shuffle"), RandomShuffle)
        assert isinstance(make_strategy("round_robin"), RoundRobin)
        assert isinstance(make_strategy("RR"), RoundRobin)
        with pytest.raises(ValueError):
            make_strategy("bogus")

    def test_make_strategy_aliases(self):
        for alias in ("no", "off", "NONE", " none "):
            assert isinstance(make_strategy(alias), NoRedistribution)
        for alias in ("random", "random_shuffle", "Shuffle"):
            assert isinstance(make_strategy(alias), RandomShuffle)
        for alias in ("rr", "roundrobin", "Round_Robin"):
            assert isinstance(make_strategy(alias), RoundRobin)

    def test_make_strategy_unknown_name_message(self):
        with pytest.raises(ValueError, match="unknown redistribution strategy"):
            make_strategy("hilbert")
        with pytest.raises(ValueError, match="'none', 'shuffle' or 'round_robin'"):
            make_strategy("")

    def test_make_strategy_seed_forwarded(self):
        strategy = make_strategy("shuffle", seed=7)
        assert isinstance(strategy, RandomShuffle)
        assert strategy.seed == 7


class TestRenderingStep:
    def test_rendering_counts_and_makespan(self, per_rank_blocks, platform):
        step = RenderingStep(platform, isosurface_level=45.0, render_mode="count")
        results, info = step.run(per_rank_blocks, iteration=0)
        assert len(results) == 4
        assert info["modelled_max"] >= max(info["modelled_per_rank"]) - 1e-12
        assert info["total_triangles"] == sum(info["triangles_per_rank"])

    def test_reduced_workload_is_cheaper(self, per_rank_blocks, platform):
        from repro.grid.reduction import reduce_block

        step = RenderingStep(platform, render_mode="count")
        _, full_info = step.run(per_rank_blocks, iteration=0)
        reduced = [[reduce_block(b) for b in blocks] for blocks in per_rank_blocks]
        _, red_info = step.run(reduced, iteration=0)
        assert red_info["modelled_max"] <= full_info["modelled_max"]
