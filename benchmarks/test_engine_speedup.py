"""Engine benchmark: the vectorized backend must beat the serial per-block
loops ≥3x on the hot data-parallel steps — scoring, for the array metrics
(VAR) *and* for the coder metrics (FPZIP, the most expensive scorer of the
paper's Table I and the one its figures plot), and counting-mode rendering
(the load proxy the large virtual-rank experiments run) — and, now that
sorting, reduction, and redistribution are batched too, on the *entire*
fig11 pipeline end to end.  All three backends (serial, vectorized,
process) must reproduce the fig10/fig11 runs identically, down to every
field of every step report.

The speedup scenario uses the paper's 64-rank configuration with a finer
4×4×4 block decomposition (4,096 blocks): the regime the redistribution step
prefers (many small blocks to balance) and exactly where per-block Python
overhead dominates the serial scoring and rendering loops.
"""

from __future__ import annotations

import time

import pytest

from repro.cm1.dataset import CM1Dataset
from repro.core.config import AdaptationConfig
from repro.core.rendering_step import (
    ProcessRenderingStep,
    RenderingStep,
    VectorizedRenderingStep,
)
from repro.core.scoring_step import ScoringStep, VectorizedScoringStep
from repro.experiments.common import ExperimentScenario, cached_scenario
from repro.experiments.fig10_adaptation import PAPER_FIG10_TARGETS
from repro.experiments.fig11_full_pipeline import PAPER_FIG11_TARGETS
from repro.metrics.registry import create_metric
from repro.scenarios import get_scenario
from repro.utils.benchjson import record_bench

#: Minimum serial/vectorized wall-clock ratio the engine must deliver on the
#: gated hot paths (scoring and counting-mode rendering).
MIN_SPEEDUP = 3.0

#: Minimum end-to-end wall-clock ratio of the streaming execution path
#: (mmap replay) over the one-shot path (live CM1 simulation) on a
#: multi-snapshot fig11 run; both run the sequential engine.
MIN_STREAMING_SPEEDUP = 1.3


@pytest.fixture(scope="module")
def fine_scenario_64() -> ExperimentScenario:
    """64 ranks, 64 blocks per rank (finer granularity than the default 32).

    Resolved through the scenario registry ("blue_waters_64_fine"), so the
    gate configuration is listed by ``python -m repro list`` and covered by
    the registry-driven parity sweep like every other workload.
    """
    return cached_scenario(name="blue_waters_64_fine")


def _best_of(run, repeats: int = 5) -> float:
    """Best wall-clock of ``repeats`` calls of the zero-argument ``run``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.mark.parametrize("metric_name,repeats", [("VAR", 5), ("FPZIP", 2)])
def test_vectorized_scoring_speedup(fine_scenario_64, metric_name, repeats):
    """Vectorized scoring beats the serial per-block loop by ≥3x.

    VAR gates the array-metric path (PR 1); FPZIP gates the coder-metric
    path, whose batched ``compressed_size_batch`` collapses per-block
    payload assembly into one pass over the stacked batch.
    """
    blocks = fine_scenario_64.blocks_for(0)
    serial = ScoringStep(create_metric(metric_name), fine_scenario_64.platform)
    vector = VectorizedScoringStep(
        create_metric(metric_name), fine_scenario_64.platform
    )
    # Identical outputs first (the speedup must not come from doing less).
    serial_pairs, _, _ = serial.run(blocks)
    vector_pairs, _, _ = vector.run(blocks)
    assert serial_pairs == vector_pairs
    # Wall-clock gate: re-measure on transient noise (shared CI runners)
    # before failing; a genuine regression fails all attempts.
    for _attempt in range(3):
        serial_seconds = _best_of(lambda: serial.run(blocks), repeats=repeats)
        vector_seconds = _best_of(lambda: vector.run(blocks), repeats=repeats)
        speedup = serial_seconds / vector_seconds
        if speedup >= MIN_SPEEDUP:
            break
    record_bench(
        gate=f"scoring_speedup_{metric_name}",
        scenario="blue_waters_64_fine",
        backend="vectorized",
        seconds=vector_seconds,
        baseline_backend="serial",
        baseline_seconds=serial_seconds,
        passed=speedup >= MIN_SPEEDUP,
    )
    print(
        f"\nscoring 4096 blocks / 64 ranks ({metric_name}): "
        f"serial {serial_seconds * 1e3:.1f} ms, "
        f"vectorized {vector_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized {metric_name} scoring speedup {speedup:.2f}x below required "
        f"{MIN_SPEEDUP}x (serial {serial_seconds:.3f}s, vectorized "
        f"{vector_seconds:.3f}s)"
    )


def test_vectorized_rendering_speedup(fine_scenario_64):
    """Batched count-mode rendering beats the serial per-block loop by ≥3x.

    Rendering is the step the paper's adaptation loop exists to control; the
    vectorised backend replaces the per-block ``count_active_cells`` calls
    with one stacked ``count_active_cells_batch`` pass per shape group.  The
    speedup must not come from doing less: counts, triangle estimates, and
    modelled seconds are asserted identical (for all three backends) before
    the wall-clock gate.
    """
    blocks = fine_scenario_64.blocks_for(0)
    platform = fine_scenario_64.platform
    serial = RenderingStep(platform, render_mode="count")
    vector = VectorizedRenderingStep(platform, render_mode="count")
    proc = ProcessRenderingStep(platform, render_mode="count")

    def observable(step):
        results, info = step.run(blocks, 0)
        return (
            [r.per_block_active_cells for r in results],
            [r.per_block_triangles for r in results],
            [r.npoints for r in results],
            info["triangles_per_rank"],
            info["modelled_per_rank"],
        )

    reference = observable(serial)
    assert observable(vector) == reference
    assert observable(proc) == reference

    for _attempt in range(3):
        serial_seconds = _best_of(lambda: serial.run(blocks, 0))
        vector_seconds = _best_of(lambda: vector.run(blocks, 0))
        speedup = serial_seconds / vector_seconds
        if speedup >= MIN_SPEEDUP:
            break
    record_bench(
        gate="rendering_speedup",
        scenario="blue_waters_64_fine",
        backend="vectorized",
        seconds=vector_seconds,
        baseline_backend="serial",
        baseline_seconds=serial_seconds,
        passed=speedup >= MIN_SPEEDUP,
    )
    print(
        f"\nrendering (count) 4096 blocks / 64 ranks: "
        f"serial {serial_seconds * 1e3:.1f} ms, "
        f"vectorized {vector_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized rendering speedup {speedup:.2f}x below required "
        f"{MIN_SPEEDUP}x (serial {serial_seconds:.3f}s, vectorized "
        f"{vector_seconds:.3f}s)"
    )


def test_reduction_ladder_quality_vs_cost(fine_scenario_64):
    """The mipmap ladder's middle rung earns its payload bytes: level-1
    strided reduction must reconstruct with strictly lower TRILIN error than
    corner reduction while shipping at most 1/4 of the full-block payload.

    The tracked quantity is the level-1/corner error ratio (lower is
    better), recorded through ``record_bench`` so ``compare_trend.py`` flags
    a ladder-quality regression across runs exactly like a wall-clock one.
    """
    import numpy as np

    from repro.grid.block import level_shape
    from repro.grid.reduction import reduction_error_batch

    blocks = fine_scenario_64.all_blocks(0)
    by_shape = {}
    for b in blocks:
        by_shape.setdefault(tuple(b.data.shape), []).append(
            np.asarray(b.data, dtype=np.float64)
        )
    level1_sum = corner_sum = 0.0
    level1_points = full_points = 0
    worst_fraction = 0.0  # largest single-block level-1 payload fraction
    for shape, group in by_shape.items():
        stacked = np.stack(group)
        level1_sum += float(reduction_error_batch(stacked, level=1).sum())
        corner_sum += float(reduction_error_batch(stacked, level=2).sum())
        level1_points += len(group) * int(np.prod(level_shape(1, shape)))
        full_points += len(group) * int(np.prod(shape))
        worst_fraction = max(
            worst_fraction, float(np.prod(level_shape(1, shape)) / np.prod(shape))
        )
    level1_mean = level1_sum / len(blocks)
    corner_mean = corner_sum / len(blocks)
    error_ratio = level1_mean / corner_mean
    # Cost is what the pipeline ships: total level-1 payload bytes over
    # total full-block bytes (tiny remainder blocks can individually sit a
    # shade above 1/4 — e.g. 6x6x5 -> 4*4*3/180 = 0.267 — without moving
    # the shipped volume).
    payload_fraction = level1_points / full_points

    full_shape = blocks[0].extent.shape

    passed = level1_mean < corner_mean and payload_fraction <= 0.25
    record_bench(
        gate="reduction_ladder_quality",
        scenario="blue_waters_64_fine",
        backend="level1",
        seconds=error_ratio,
        baseline_backend="corners",
        baseline_seconds=1.0,
        passed=passed,
        payload_fraction=payload_fraction,
        worst_block_payload_fraction=worst_fraction,
        level1_mean_error=level1_mean,
        corner_mean_error=corner_mean,
        nblocks=len(blocks),
    )
    print(
        f"\nreduction ladder quality ({len(blocks)} blocks, "
        f"block shape {full_shape}): level-1 error {level1_mean:.4g}, "
        f"corner error {corner_mean:.4g} (ratio {error_ratio:.3f}), "
        f"level-1 payload fraction {payload_fraction:.3f}"
    )
    assert level1_mean < corner_mean, (
        f"level-1 reduction must beat corners on TRILIN error "
        f"(level-1 {level1_mean:.4g} >= corners {corner_mean:.4g})"
    )
    assert payload_fraction <= 0.25, (
        f"level-1 payload fraction {payload_fraction:.3f} exceeds the 1/4 "
        f"full-block budget for block shape {full_shape}"
    )


def test_fig11_full_pipeline_speedup(fine_scenario_64):
    """The whole fig11 iteration — all five Figure-2 steps — runs ≥3x faster
    on the vectorized backend than on the serial reference.

    This is the gate the backend registry exists to win: after PRs 1–3 the
    fig11 hot path was dominated by the unvectorized middle of the pipeline
    (per-block sorting/reduction/redistribution loops), so scoring and
    rendering speedups alone could not move the end-to-end number.  The
    measured iteration runs the fig11 configuration (VAR metric, round-robin
    redistribution) at a 50% reduction percentage, the middle of the
    adaptive band the fig11 runs settle into.
    """
    blocks = fine_scenario_64.blocks_for(0)

    def build(engine):
        return fine_scenario_64.build_pipeline(
            metric="VAR", redistribution="round_robin", engine=engine
        )

    serial = build("serial")
    vector = build("vectorized")

    def iteration(pipeline):
        return lambda: pipeline.process_iteration(blocks, percent_override=50.0)

    for _attempt in range(3):
        serial_seconds = _best_of(iteration(serial), repeats=3)
        vector_seconds = _best_of(iteration(vector), repeats=3)
        speedup = serial_seconds / vector_seconds
        if speedup >= MIN_SPEEDUP:
            break
    record_bench(
        gate="fig11_pipeline_speedup",
        scenario="blue_waters_64_fine",
        backend="vectorized",
        seconds=vector_seconds,
        baseline_backend="serial",
        baseline_seconds=serial_seconds,
        passed=speedup >= MIN_SPEEDUP,
    )
    print(
        f"\nfig11 full pipeline 4096 blocks / 64 ranks: "
        f"serial {serial_seconds * 1e3:.1f} ms, "
        f"vectorized {vector_seconds * 1e3:.1f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"vectorized full-pipeline speedup {speedup:.2f}x below required "
        f"{MIN_SPEEDUP}x (serial {serial_seconds:.3f}s, vectorized "
        f"{vector_seconds:.3f}s)"
    )


def test_fig11_multisnapshot_streaming_speedup(tmp_path):
    """The streaming execution path — a raw-layout mmap replay, the path
    ``repro serve`` takes on a cache hit — beats the one-shot path (live
    CM1 simulation) ≥1.3x end to end on a multi-snapshot fig11 run.

    Both sides do the complete job of "turn a scenario config into per-
    iteration fig11 results" on the sequential engine: the baseline
    simulates every CM1 snapshot (what ``python -m repro run`` does); the
    gated path replays the snapshots through read-only ``np.memmap`` views
    of a raw-layout :class:`DatasetStore` — zero deserialisation, no
    re-simulation.

    The speedup must not come from doing less: every per-iteration result
    of the streaming run is asserted identical to the one-shot run first.
    """
    config = get_scenario("blue_waters_64").build(nsnapshots=4)
    store_dir = tmp_path / "fig11-replay"

    def run_with(scenario):
        pipeline = scenario.build_pipeline(metric="VAR", redistribution="round_robin")
        return pipeline.run(scenario.iteration_blocks(), percent_override=50.0)

    def cold_run():
        # Fresh scenario: simulates CM1 from scratch, like a one-shot CLI run.
        return run_with(ExperimentScenario(config))

    def warm_run():
        dataset = CM1Dataset.load(store_dir, mmap=True)
        return run_with(ExperimentScenario(config, dataset=dataset))

    # Warm the replay store once; persisting is charged to neither side
    # (serve mode pays it on the first request only).
    ExperimentScenario(config).dataset.save(store_dir, layout="raw")

    def rows(run):
        return [
            (
                r.iteration, r.percent_reduced, r.nblocks, r.nreduced,
                r.moved_bytes, dict(r.modelled_steps), r.modelled_total,
                tuple(r.triangles_per_rank),
            )
            for r in run.iterations
        ]

    assert rows(warm_run()) == rows(cold_run())

    for _attempt in range(3):
        cold_seconds = _best_of(cold_run, repeats=2)
        warm_seconds = _best_of(warm_run, repeats=2)
        speedup = cold_seconds / warm_seconds
        if speedup >= MIN_STREAMING_SPEEDUP:
            break
    record_bench(
        gate="fig11_streaming_speedup",
        scenario="blue_waters_64",
        backend="sequential+mmap-replay",
        seconds=warm_seconds,
        baseline_backend="sequential+simulate",
        baseline_seconds=cold_seconds,
        passed=speedup >= MIN_STREAMING_SPEEDUP,
        snapshots=4,
    )
    print(
        f"\nfig11 4-snapshot run: one-shot {cold_seconds * 1e3:.0f} ms, "
        f"streaming {warm_seconds * 1e3:.0f} ms, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_STREAMING_SPEEDUP, (
        f"streaming fig11 speedup {speedup:.2f}x below required "
        f"{MIN_STREAMING_SPEEDUP}x (one-shot {cold_seconds:.3f}s, "
        f"streaming {warm_seconds:.3f}s)"
    )


def test_fig11_step_reports_identical_on_every_field(fine_scenario_64):
    """Serial, vectorized, and process step reports agree on *every* field
    of *every* step of a fig11 adaptive run — modelled per-rank seconds,
    payload bytes, counters, and per-rank counters; measured wall-clock is
    the one field that legitimately differs (only its per-rank shape is
    compared)."""

    def fig11_reports(engine, niterations=2):
        pipeline = fine_scenario_64.build_pipeline(
            metric="VAR",
            redistribution="round_robin",
            adaptation=AdaptationConfig(
                enabled=True, target_seconds=PAPER_FIG11_TARGETS[64][0]
            ),
            engine=engine,
        )
        reports = []
        for _ in range(niterations):
            result, _ = pipeline.process_iteration(fine_scenario_64.blocks_for(0))
            reports.append(result.step_reports)
        return reports

    reference = fig11_reports("serial")
    for engine in ("vectorized", "process"):
        other = fig11_reports(engine)
        for ref_iter, other_iter in zip(reference, other):
            assert set(other_iter) == set(ref_iter)
            for name, ref in ref_iter.items():
                report = other_iter[name]
                assert report.step == ref.step
                assert report.modelled_per_rank == ref.modelled_per_rank, (
                    engine,
                    name,
                )
                assert report.payload_bytes == ref.payload_bytes, (engine, name)
                assert report.counters == ref.counters, (engine, name)
                assert report.per_rank_counters == ref.per_rank_counters, (
                    engine,
                    name,
                )
                assert len(report.measured_per_rank) == len(ref.measured_per_rank)


def _adaptive_trace(scenario, redistribution, target, engine, niterations=4):
    pipeline = scenario.build_pipeline(
        metric="VAR",
        redistribution=redistribution,
        adaptation=AdaptationConfig(enabled=True, target_seconds=target),
        engine=engine,
    )
    trace = []
    for i in range(niterations):
        result, _ = pipeline.process_iteration(
            scenario.blocks_for(i % len(scenario.dataset))
        )
        trace.append(
            (
                result.percent_reduced,
                result.nreduced,
                result.moved_bytes,
                tuple(result.triangles_per_rank),
                result.modelled_total,
            )
        )
    return trace


@pytest.mark.parametrize(
    "redistribution,target",
    [
        ("none", PAPER_FIG10_TARGETS[64][1]),
        ("round_robin", PAPER_FIG11_TARGETS[64][0]),
    ],
    ids=["fig10", "fig11"],
)
def test_backends_identical_on_paper_scenarios(scenario_64, redistribution, target):
    """Serial, vectorized, and process fig10/fig11 runs are identical."""
    serial = _adaptive_trace(scenario_64, redistribution, target, "serial")
    vector = _adaptive_trace(scenario_64, redistribution, target, "vectorized")
    proc = _adaptive_trace(scenario_64, redistribution, target, "process")
    assert serial == vector
    assert serial == proc


@pytest.mark.parametrize(
    "redistribution,target",
    [
        ("none", PAPER_FIG10_TARGETS[64][1]),
        ("round_robin", PAPER_FIG11_TARGETS[64][0]),
    ],
    ids=["fig10", "fig11"],
)
def test_backends_identical_with_coder_metric(scenario_64, redistribution, target):
    """The coder-metric (FPZIP) batched path reproduces the paper protocols
    identically on every backend — the parity discipline of the ≥3x gate."""

    def trace(engine):
        pipeline = scenario_64.build_pipeline(
            metric="FPZIP",
            redistribution=redistribution,
            adaptation=AdaptationConfig(enabled=True, target_seconds=target),
            engine=engine,
        )
        result, _ = pipeline.process_iteration(scenario_64.blocks_for(0))
        return (
            result.percent_reduced,
            result.nreduced,
            result.moved_bytes,
            tuple(result.triangles_per_rank),
            result.modelled_total,
        )

    serial = trace("serial")
    assert serial == trace("vectorized")
    assert serial == trace("process")
