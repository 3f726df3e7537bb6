"""Tests for the batch-native iteration state of the vectorized and process
backends: parity with the per-Block reference, exchange pricing, and the
Block-construction budget."""

from __future__ import annotations

import hashlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import PipelineConfig
from repro.core.engine import ExecutionEngine
from repro.core.reduction_step import VectorizedReductionStep
from repro.core.step import IterationContext
from repro.experiments.common import cached_scenario
from repro.grid.block import Block
from repro.grid.decomposition import CartesianDecomposition
from repro.perfmodel.platform import PlatformModel

BACKENDS = ("serial", "vectorized", "process")
STRATEGIES = ("none", "shuffle", "round_robin")
LADDERS = (((2, 1.0),), ((1, 1.0),), ((2, 0.5), (1, 0.5)), ((1, 0.3), (2, 0.7)))


def block_state(block: Block) -> tuple:
    """Every observable field of a block, payload bytes included."""
    return (
        block.block_id,
        block.extent,
        block.owner,
        block.home,
        block.reduced,
        block.level,
        block.score,
        block.field_name,
        block.data.dtype.str,
        block.data.shape,
        block.data.tobytes(),
    )


def rank_states(per_rank_blocks) -> list:
    return [[block_state(b) for b in blocks] for blocks in per_rank_blocks]


@st.composite
def iteration_inputs(draw):
    """A decomposed random field spread over ranks, some of them empty.

    Axes of length 1, uneven block splits (several payload shapes), mixed
    payload dtypes and shuffled per-rank block orders all occur.
    """
    rank_dims = tuple(draw(st.integers(1, 2)) for _ in range(3))
    per_subdomain = tuple(draw(st.integers(1, 2)) for _ in range(3))
    shape = tuple(
        draw(st.integers(r * b, r * b + 4)) for r, b in zip(rank_dims, per_subdomain)
    )
    nranks = int(np.prod(rank_dims))
    decomposition = CartesianDecomposition(shape, nranks, per_subdomain, rank_dims)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    field = rng.uniform(0.0, 90.0, size=shape)
    per_rank = []
    for rank in range(nranks):
        blocks = decomposition.extract_blocks(rank, field)
        if draw(st.booleans()):
            blocks = [b.with_data(b.data.astype(np.float32), reduced=False) for b in blocks]
        per_rank.append([blocks[i] for i in rng.permutation(len(blocks))])
    # Empty ranks anywhere in the rank order.
    per_rank += [[] for _ in range(draw(st.integers(0, 2)))]
    per_rank = [per_rank[i] for i in rng.permutation(len(per_rank))]
    return per_rank


def run_engine(per_rank, backend, strategy, ladder, percent, render_mode):
    config = PipelineConfig(
        metric="VAR",
        redistribution=strategy,
        engine=backend,
        quality_ladder=ladder,
        render_mode=render_mode,
    )
    engine = ExecutionEngine(config, PlatformModel.blue_waters(len(per_rank)))
    context = engine.run_iteration(per_rank, percent, 0)
    return engine.iteration_result(context), context


def comparable(result) -> tuple:
    """Every IterationResult field except measured wall-clock."""
    reports = {
        name: (
            r.modelled_per_rank,
            r.payload_bytes,
            r.counters,
            r.per_rank_counters,
            len(r.measured_per_rank),
        )
        for name, r in result.step_reports.items()
    }
    return (
        result.iteration,
        result.percent_reduced,
        result.nblocks,
        result.nreduced,
        result.modelled_steps,
        set(result.measured_steps),
        result.triangles_per_rank,
        result.moved_bytes,
        reports,
    )


class TestBatchNativeProperties:
    """Invariants of the batch-native state, checked over many generated grids."""

    @settings(max_examples=40, deadline=None)
    @given(
        per_rank=iteration_inputs(),
        strategy=st.sampled_from(STRATEGIES),
        ladder=st.sampled_from(LADDERS),
        percent=st.floats(0.0, 100.0),
        render_mode=st.sampled_from(("count", "mesh")),
    )
    def test_vectorized_equals_serial(self, per_rank, strategy, ladder, percent, render_mode):
        args = (strategy, ladder, percent, render_mode)
        ref_result, ref_context = run_engine(per_rank, "serial", *args)
        result, context = run_engine(per_rank, "vectorized", *args)
        assert comparable(result) == comparable(ref_result)
        assert context.per_rank_pairs == ref_context.per_rank_pairs
        assert context.sorted_pairs == ref_context.sorted_pairs
        assert context.reduction_levels == ref_context.reduction_levels
        assert rank_states(context.per_rank_blocks) == rank_states(
            ref_context.per_rank_blocks
        )

    @settings(max_examples=40, deadline=None)
    @given(per_rank=iteration_inputs(), percent=st.floats(0.0, 100.0))
    def test_level_1_then_2_equals_2(self, per_rank, percent):
        pairs = sorted(
            ((b.block_id, float(b.block_id % 7)) for blocks in per_rank for b in blocks),
            key=lambda p: (p[1], p[0]),
        )

        def context():
            return IterationContext(0, percent, len(per_rank), per_rank, sorted_pairs=pairs)

        stepwise = context()
        VectorizedReductionStep(quality_ladder=((1, 1.0),)).execute(stepwise)
        VectorizedReductionStep(quality_ladder=((2, 1.0),)).execute(stepwise)
        direct = context()
        VectorizedReductionStep(quality_ladder=((2, 1.0),)).execute(direct)
        assert rank_states(stepwise.per_rank_blocks) == rank_states(direct.per_rank_blocks)


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("backend", BACKENDS)
def test_exchange_bytes_equal_moved_bytes(tiny_scenario, backend, strategy):
    """The redistribution exchange is priced at exactly the moved payload."""
    pipeline = tiny_scenario.build_pipeline(
        metric="VAR", redistribution=strategy, engine=backend
    )
    stats = pipeline.engine.redistribution.comm.stats
    before = stats.get("alltoallv", {}).get("bytes", 0.0)
    result, _ = pipeline.process_iteration(
        tiny_scenario.blocks_for(0), percent_override=50.0
    )
    exchanged = stats.get("alltoallv", {}).get("bytes", 0.0) - before
    assert exchanged == result.step_reports["redistribution"].payload_bytes
    assert (exchanged > 0) == (strategy != "none")


def test_vectorized_iteration_never_pickles(tiny_scenario, monkeypatch):
    pipeline = tiny_scenario.build_pipeline(
        metric="VAR", redistribution="shuffle", engine="vectorized"
    )

    def refuse(*args, **kwargs):
        raise AssertionError("pickle.dumps called during a vectorized iteration")

    monkeypatch.setattr(pickle, "dumps", refuse)
    result, _ = pipeline.process_iteration(
        tiny_scenario.blocks_for(0), percent_override=50.0
    )
    assert result.moved_bytes > 0


@pytest.fixture()
def block_events(monkeypatch):
    """Counts of ``Block.with_*`` calls and of Block constructions."""
    counts = {"with": 0, "built": 0}

    def counting(method, key):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return method(*args, **kwargs)

        return wrapper

    for name in [n for n in vars(Block) if n.startswith("with_")]:
        monkeypatch.setattr(Block, name, counting(vars(Block)[name], "with"))
    monkeypatch.setattr(Block, "_clone_with", counting(Block._clone_with, "built"))
    monkeypatch.setattr(Block, "__post_init__", counting(Block.__post_init__, "built"))
    return counts


def test_count_mode_iteration_builds_no_block(block_events):
    scenario = cached_scenario(name="blue_waters_64_fine")
    blocks = scenario.blocks_for(0)
    pipeline = scenario.build_pipeline(
        metric="VAR", redistribution="shuffle", render_mode="count", engine="vectorized"
    )
    block_events.update(dict.fromkeys(block_events, 0))
    result, _ = pipeline.process_iteration(blocks, percent_override=50.0)
    assert result.nreduced > 0 and result.moved_bytes > 0
    assert block_events == {"with": 0, "built": 0}


def test_mesh_mode_iteration_builds_no_block(tiny_scenario, block_events):
    blocks = tiny_scenario.blocks_for(0)
    pipeline = tiny_scenario.build_pipeline(
        metric="VAR", redistribution="round_robin", render_mode="mesh", engine="vectorized"
    )
    block_events.update(dict.fromkeys(block_events, 0))
    result, renders = pipeline.process_iteration(blocks, percent_override=50.0)
    assert result.nreduced > 0 and sum(r.ntriangles for r in renders) > 0
    assert block_events == {"with": 0, "built": 0}


#: sha256 of the ``tiny`` scenario's per-rank merged mesh vertices (see
#: :func:`tiny_mesh_digest`), computed with the per-block extractor the
#: batched kernel replaced.
TINY_MESH_DIGEST = "f5cf3f92c74f2f16501e0923d4aeb77e57fd00d8d5a9086bb647e018cae63e20"


def tiny_mesh_digest(backend: str) -> str:
    """Digest of every rank's mesh vertices over both ``tiny`` snapshots, at
    0 % and at 60 % reduced over a level-2/level-1 ladder."""
    scenario = cached_scenario(name="tiny")
    digest = hashlib.sha256()
    for percent in (0.0, 60.0):
        pipeline = scenario.build_pipeline(
            metric="VAR",
            redistribution="round_robin",
            render_mode="mesh",
            engine=backend,
            quality_ladder=((2, 0.5), (1, 0.5)),
        )
        for blocks in scenario.iteration_blocks():
            _, renders = pipeline.process_iteration(blocks, percent_override=percent)
            for render in renders:
                digest.update(render.mesh.vertices.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("backend", BACKENDS)
def test_tiny_mesh_geometry_is_pinned(backend):
    assert tiny_mesh_digest(backend) == TINY_MESH_DIGEST
