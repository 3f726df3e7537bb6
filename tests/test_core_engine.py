"""Tests for the ExecutionEngine, the step contract, and backend parity."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import backends as backends_module
from repro.core.backends import (
    STEP_NAMES,
    StepBuildContext,
    build_step,
    engine_backends,
    register_step_backend,
    registered_steps,
    resolve_step_factory,
)
from repro.core.config import AdaptationConfig, PipelineConfig
from repro.core.engine import ENGINE_BACKENDS, ExecutionEngine
from repro.core.reduction_step import ReductionStep, VectorizedReductionStep
from repro.core.rendering_step import (
    ProcessRenderingStep,
    RenderingStep,
    VectorizedRenderingStep,
)
from repro.core.scoring_step import (
    ProcessScoringStep,
    ScoringStep,
    VectorizedScoringStep,
)
from repro.core.sorting_step import SortingStep, VectorizedSortingStep
from repro.core.step import IterationContext, PipelineStep, StepReport
from repro.metrics.base import ScoreMetric
from repro.perfmodel.platform import PlatformModel


# User-style metrics for the process backend live at module level so they
# pickle by reference into the pool workers.


class Spiky(ScoreMetric):
    """A user-style scalar metric with no batch implementation."""

    name = "SPIKY"

    def score_block(self, data):
        return float(np.abs(np.asarray(data)).max())


class RankNormalized(ScoreMetric):
    """Cross-block semantics: chunking would change the peak."""

    name = "RANKNORM"

    def score_block(self, data):
        return float(np.ptp(np.asarray(data)))

    def score_blocks(self, blocks):
        raw = [self.score_block(b) for b in blocks]
        peak = max(raw) or 1.0
        return [r / peak for r in raw]


class TestStepReport:
    def test_maxima(self):
        report = StepReport(
            step="scoring",
            measured_per_rank=[0.1, 0.3, 0.2],
            modelled_per_rank=[1.0, 4.0, 2.0],
        )
        assert report.measured_max == pytest.approx(0.3)
        assert report.modelled_max == pytest.approx(4.0)

    def test_empty_maxima(self):
        report = StepReport(step="x")
        assert report.measured_max == 0.0
        assert report.modelled_max == 0.0

    def test_collective(self):
        report = StepReport.collective(
            "sorting", measured=0.5, modelled=2.5, payload_bytes=128.0
        )
        assert report.measured_per_rank == [0.5]
        assert report.modelled_max == pytest.approx(2.5)
        assert report.payload_bytes == pytest.approx(128.0)


class TestIterationContext:
    def test_requires_raise_before_steps(self):
        context = IterationContext(
            iteration=0, percent=0.0, nranks=1, per_rank_blocks=[[]]
        )
        with pytest.raises(RuntimeError):
            context.require_pairs()
        with pytest.raises(RuntimeError):
            context.require_sorted()


class TestEngineConstruction:
    def test_invalid_backend(self):
        with pytest.raises(ValueError):
            ExecutionEngine(
                PipelineConfig(), PlatformModel.blue_waters(4), backend="gpu"
            )

    def test_invalid_engine_in_config(self):
        for name in ("banana", "parallel"):
            with pytest.raises(ValueError, match="process"):
                PipelineConfig(engine=name)

    def test_backend_selects_scoring_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        proc = ExecutionEngine(PipelineConfig(engine="process"), platform)
        assert type(serial.scoring) is ScoringStep
        assert type(vector.scoring) is VectorizedScoringStep
        assert type(proc.scoring) is ProcessScoringStep
        assert serial.backend == "serial"
        assert vector.backend == "vectorized"
        assert proc.backend == "process"

    def test_backend_selects_rendering_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        proc = ExecutionEngine(PipelineConfig(engine="process"), platform)
        assert type(serial.rendering) is RenderingStep
        assert type(vector.rendering) is VectorizedRenderingStep
        assert type(proc.rendering) is ProcessRenderingStep

    def test_backend_selects_sorting_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        proc = ExecutionEngine(PipelineConfig(engine="process"), platform)
        assert type(serial.sorting) is SortingStep
        # The sort is a rooted collective: vectorized and process share the
        # NumPy lexsort path.
        assert type(vector.sorting) is VectorizedSortingStep
        assert type(proc.sorting) is VectorizedSortingStep

    def test_backend_selects_reduction_step(self):
        platform = PlatformModel.blue_waters(4)
        serial = ExecutionEngine(PipelineConfig(engine="serial"), platform)
        vector = ExecutionEngine(PipelineConfig(engine="vectorized"), platform)
        proc = ExecutionEngine(PipelineConfig(engine="process"), platform)
        assert type(serial.reduction) is ReductionStep
        assert type(vector.reduction) is VectorizedReductionStep
        # Reduction copies a few values per block: shipping payloads to a
        # worker would cost more than the gather, so process reuses it.
        assert type(proc.reduction) is VectorizedReductionStep
        # The step derives its modelled cost from the engine's platform.
        assert vector.reduction.platform is platform

    def test_steps_satisfy_protocol(self):
        engine = ExecutionEngine(PipelineConfig(), PlatformModel.blue_waters(4))
        assert [step.name for step in engine.steps] == list(STEP_NAMES)
        for step in engine.steps:
            assert isinstance(step, PipelineStep)

    def test_backends_constant(self):
        assert ENGINE_BACKENDS == ("serial", "vectorized", "process")


class TestBackendRegistry:
    """The registry is the single source of step implementations."""

    @pytest.fixture(autouse=True)
    def _cleanup_custom_backend(self):
        """Remove any test-registered backend so registrations don't leak."""
        yield
        for key in [k for k in backends_module._REGISTRY if k[1] == "warp10"]:
            del backends_module._REGISTRY[key]
        if "warp10" in backends_module._BACKEND_ORDER:
            backends_module._BACKEND_ORDER.remove("warp10")

    def test_engine_backends_derived_from_registry(self):
        assert engine_backends() == ("serial", "vectorized", "process")
        register_step_backend(
            "scoring", "warp10", lambda ctx: ScoringStep(ctx.metric, ctx.platform)
        )
        assert engine_backends() == (
            "serial", "vectorized", "process", "warp10",
        )
        # The config/engine re-exports see the registration too.
        from repro.core import config as config_module
        from repro.core import engine as engine_module

        assert config_module.ENGINE_BACKENDS == engine_backends()
        assert engine_module.ENGINE_BACKENDS == engine_backends()

    def test_every_builtin_step_registered_per_backend(self):
        for backend in ("serial", "vectorized", "process"):
            assert set(registered_steps(backend)) == set(STEP_NAMES)

    def test_resolve_unknown_step_raises(self):
        with pytest.raises(KeyError):
            resolve_step_factory("composition", "serial")

    def test_third_party_backend_with_serial_fallback(self, tiny_scenario):
        """A backend registering only one step is selectable; the other steps
        fall back to the serial reference implementations."""

        class TracingScoringStep(ScoringStep):
            pass

        register_step_backend(
            "scoring",
            "warp10",
            lambda ctx: TracingScoringStep(ctx.metric, ctx.platform),
        )
        config = PipelineConfig(engine="warp10", redistribution="round_robin")
        engine = ExecutionEngine(
            config, tiny_scenario.platform, nranks=tiny_scenario.nranks
        )
        assert type(engine.scoring) is TracingScoringStep
        assert type(engine.sorting) is SortingStep
        assert type(engine.reduction) is ReductionStep
        assert type(engine.rendering) is RenderingStep
        # And the engine actually runs with the hybrid step set.
        context = engine.run_iteration(tiny_scenario.blocks_for(0), 25.0, 0)
        assert set(context.reports) == set(STEP_NAMES)

    def test_decorator_registration(self):
        @register_step_backend("scoring", "warp10")
        def make_scoring(ctx):
            return ScoringStep(ctx.metric, ctx.platform)

        assert resolve_step_factory("scoring", "warp10") is make_scoring
        assert "warp10" in engine_backends()

    def test_registration_validates_names(self):
        with pytest.raises(ValueError):
            register_step_backend("", "gpu", lambda ctx: None)
        with pytest.raises(ValueError):
            register_step_backend("scoring", "  ", lambda ctx: None)

    def test_build_step_uses_context(self, tiny_scenario):
        from repro.core.redistribution import make_strategy
        from repro.metrics.registry import create_metric
        from repro.simmpi.communicator import BSPCommunicator

        config = PipelineConfig()
        comm = BSPCommunicator(
            tiny_scenario.nranks, cost_model=tiny_scenario.platform.network
        )
        context = StepBuildContext(
            config=config,
            platform=tiny_scenario.platform,
            comm=comm,
            metric=create_metric("VAR"),
            strategy=make_strategy("none"),
            nranks=tiny_scenario.nranks,
            backend="serial",
        )
        step = build_step("sorting", "serial", context)
        assert type(step) is SortingStep
        assert step.comm is comm


class TestEngineExecution:
    def test_run_iteration_reports(self, tiny_scenario):
        engine = ExecutionEngine(
            PipelineConfig(redistribution="round_robin"),
            tiny_scenario.platform,
            nranks=tiny_scenario.nranks,
        )
        context = engine.run_iteration(tiny_scenario.blocks_for(0), 50.0, 0)
        assert set(context.reports) == {
            "scoring",
            "sorting",
            "reduction",
            "redistribution",
            "rendering",
        }
        scoring = context.reports["scoring"]
        assert scoring.counters["nblocks"] == tiny_scenario.nblocks
        assert context.reports["reduction"].counters["nreduced"] > 0
        assert context.reports["redistribution"].payload_bytes > 0
        assert context.reports["sorting"].payload_bytes > 0
        assert len(context.reports["rendering"].per_rank_counters["triangles"]) == (
            tiny_scenario.nranks
        )
        result = engine.iteration_result(context)
        assert result.step_reports is context.reports or result.step_reports == context.reports
        assert result.moved_bytes == context.reports["redistribution"].payload_bytes

    def test_rank_count_validated(self, tiny_scenario):
        engine = ExecutionEngine(PipelineConfig(), tiny_scenario.platform, nranks=4)
        with pytest.raises(ValueError):
            engine.run_iteration([[]], 0.0, 0)

    def test_percent_validated(self, tiny_scenario):
        engine = ExecutionEngine(
            PipelineConfig(), tiny_scenario.platform, nranks=tiny_scenario.nranks
        )
        with pytest.raises(ValueError):
            engine.run_iteration(tiny_scenario.blocks_for(0), 120.0, 0)

    def test_private_communicators_per_stage(self, tiny_scenario):
        """Each collective stage accumulates modelled time on its own
        communicator, so its reported deltas ignore the other stages."""
        engine = ExecutionEngine(
            PipelineConfig(), tiny_scenario.platform, nranks=tiny_scenario.nranks
        )
        comms = [step.comm for step in engine.steps if hasattr(step, "comm")]
        assert len(comms) == 2
        assert len({id(comm) for comm in comms}) == len(comms)


@pytest.mark.parametrize("metric", ["VAR", "ITL", "TRILIN", "LEA", "FPZIP"])
@pytest.mark.parametrize("redistribution", ["none", "round_robin"])
class TestBackendParity:
    """All three backends must be indistinguishable downstream."""

    def _trace(self, scenario, metric, redistribution, engine):
        pipeline = scenario.build_pipeline(
            metric=metric,
            redistribution=redistribution,
            adaptation=AdaptationConfig(enabled=True, target_seconds=5.0),
            engine=engine,
        )
        trace = []
        for i in range(4):
            result, _ = pipeline.process_iteration(scenario.blocks_for(i % 3))
            scoring = result.step_reports["scoring"]
            trace.append(
                (
                    result.percent_reduced,
                    result.nreduced,
                    result.moved_bytes,
                    tuple(result.triangles_per_rank),
                    result.modelled_total,
                    scoring.modelled_per_rank,
                )
            )
        return trace

    def test_identical_trajectories(self, tiny_scenario, metric, redistribution):
        serial = self._trace(tiny_scenario, metric, redistribution, "serial")
        vector = self._trace(tiny_scenario, metric, redistribution, "vectorized")
        proc = self._trace(tiny_scenario, metric, redistribution, "process")
        assert serial == vector
        assert serial == proc

    def test_identical_scores_and_ids(self, tiny_scenario, metric, redistribution):
        blocks = tiny_scenario.blocks_for(0)
        traces = {}
        for engine in ("serial", "vectorized", "process"):
            pipeline = tiny_scenario.build_pipeline(
                metric=metric, redistribution=redistribution, engine=engine
            )
            context = pipeline.engine.run_iteration(blocks, 25.0, 0)
            traces[engine] = (
                context.sorted_pairs,
                sorted(context.reduced_ids),
                [
                    [(b.block_id, b.score) for b in rank]
                    for rank in context.per_rank_blocks
                ],
            )
        assert traces["serial"] == traces["vectorized"]
        assert traces["serial"] == traces["process"]


class TestProcessScoringStep:
    """The process backend's chunking must never perturb scores."""

    def test_scalar_metric_chunked_identically(self, tiny_scenario):
        blocks = tiny_scenario.blocks_for(0)
        serial = ScoringStep(Spiky(), tiny_scenario.platform)
        proc = ProcessScoringStep(Spiky(), tiny_scenario.platform, max_workers=3)
        assert serial.run(blocks)[0] == proc.run(blocks)[0]

    def test_score_blocks_override_not_chunked(self, tiny_scenario):
        blocks = tiny_scenario.blocks_for(0)
        serial = ScoringStep(RankNormalized(), tiny_scenario.platform)
        proc = ProcessScoringStep(
            RankNormalized(), tiny_scenario.platform, max_workers=3
        )
        assert serial.run(blocks)[0] == proc.run(blocks)[0]

    def test_batch_metric_chunked_identically(self, tiny_scenario):
        from repro.metrics.registry import create_metric

        blocks = tiny_scenario.blocks_for(0)
        # max_workers=2 forces several chunks per shape group.
        serial = ScoringStep(create_metric("FPZIP"), tiny_scenario.platform)
        proc = ProcessScoringStep(
            create_metric("FPZIP"), tiny_scenario.platform, max_workers=2
        )
        assert serial.run(blocks)[0] == proc.run(blocks)[0]

    def test_max_workers_validated(self, tiny_scenario):
        from repro.metrics.registry import create_metric

        with pytest.raises(ValueError):
            ProcessScoringStep(
                create_metric("VAR"), tiny_scenario.platform, max_workers=0
            )


class TestRenderingBackends:
    """All rendering backends must be indistinguishable downstream."""

    @staticmethod
    def _observable(step, blocks, iteration=0):
        results, info = step.run(blocks, iteration)
        return (
            [r.per_block_active_cells for r in results],
            [r.per_block_triangles for r in results],
            [r.npoints for r in results],
            info["triangles_per_rank"],
            info["modelled_per_rank"],
            info["total_triangles"],
        )

    @pytest.mark.parametrize("render_mode", ["count", "mesh"])
    def test_backend_parity(self, tiny_scenario, render_mode):
        blocks = tiny_scenario.blocks_for(0)
        platform = tiny_scenario.platform
        serial = RenderingStep(platform, render_mode=render_mode)
        vector = VectorizedRenderingStep(platform, render_mode=render_mode)
        # max_workers=3 forces several chunks per shape group.
        proc = ProcessRenderingStep(platform, render_mode=render_mode, max_workers=3)
        reference = self._observable(serial, blocks)
        assert self._observable(vector, blocks) == reference
        assert self._observable(proc, blocks) == reference

    def test_parity_with_reduced_blocks(self, tiny_scenario):
        from repro.grid.reduction import reduce_block

        blocks = [
            [reduce_block(b) if i % 2 else b for i, b in enumerate(rank_blocks)]
            for rank_blocks in tiny_scenario.blocks_for(0)
        ]
        platform = tiny_scenario.platform
        serial = RenderingStep(platform, render_mode="count")
        vector = VectorizedRenderingStep(platform, render_mode="count")
        proc = ProcessRenderingStep(platform, render_mode="count", max_workers=3)
        reference = self._observable(serial, blocks)
        assert self._observable(vector, blocks) == reference
        assert self._observable(proc, blocks) == reference

    def test_mesh_backends_preserve_merged_mesh(self, tiny_scenario):
        """Batched mesh mode must merge per-block meshes in block order, so
        the merged per-rank mesh is identical to the serial backend's."""
        blocks = tiny_scenario.blocks_for(0)
        platform = tiny_scenario.platform
        serial_results, _ = RenderingStep(platform, render_mode="mesh").run(blocks, 0)
        for step in (
            VectorizedRenderingStep(platform, render_mode="mesh"),
            ProcessRenderingStep(platform, render_mode="mesh", max_workers=3),
        ):
            results, _ = step.run(blocks, 0)
            for serial_result, result in zip(serial_results, results):
                np.testing.assert_array_equal(
                    result.mesh.vertices, serial_result.mesh.vertices
                )
                np.testing.assert_array_equal(
                    result.mesh.triangles, serial_result.mesh.triangles
                )

    def test_process_handles_empty_ranks(self, tiny_scenario):
        platform = tiny_scenario.platform
        blocks = [list(tiny_scenario.blocks_for(0)[0]), [], []]
        for mode in ("count", "mesh"):
            serial = RenderingStep(platform, render_mode=mode)
            proc = ProcessRenderingStep(platform, render_mode=mode, max_workers=2)
            assert self._observable(proc, blocks) == self._observable(serial, blocks)

    def test_max_workers_validated(self, tiny_scenario):
        with pytest.raises(ValueError):
            ProcessRenderingStep(tiny_scenario.platform, max_workers=0)


def test_backends_identical_in_mesh_mode(tiny_scenario):
    """The backends also agree when rendering real marching-cubes geometry."""

    def trace(engine):
        pipeline = tiny_scenario.build_pipeline(
            metric="VAR",
            redistribution="round_robin",
            render_mode="mesh",
            engine=engine,
        )
        result, renders = pipeline.process_iteration(
            tiny_scenario.blocks_for(0), percent_override=50.0
        )
        return (
            tuple(result.triangles_per_rank),
            result.modelled_total,
            tuple(r.active_cells for r in renders),
        )

    serial = trace("serial")
    assert trace("vectorized") == serial
    assert trace("process") == serial


class TestMonitorStepReportQueries:
    def test_payload_and_counter_series(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(metric="VAR", redistribution="round_robin")
        for i in range(2):
            pipeline.process_iteration(tiny_scenario.blocks_for(i), percent_override=50.0)
        moved = pipeline.monitor.payload_bytes_series("redistribution")
        assert len(moved) == 2 and all(m > 0 for m in moved)
        reduced = pipeline.monitor.counter_series("reduction", "nreduced")
        assert all(r > 0 for r in reduced)
        with pytest.raises(ValueError):
            pipeline.monitor.payload_bytes_series("warp")
        with pytest.raises(ValueError):
            pipeline.monitor.counter_series("warp", "x")

    def test_config_summary_reports_engine(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(engine="serial")
        assert pipeline.config_summary()["engine"] == "serial"

    def test_monitor_accepts_custom_recorded_steps(self):
        """Steps recorded by a custom engine are first-class: the series
        queries must validate against what was recorded, not a hard-coded
        step tuple."""
        from repro.core.monitor import PerformanceMonitor
        from repro.core.results import IterationResult

        monitor = PerformanceMonitor()
        report = StepReport(
            step="warp",
            measured_per_rank=[0.1],
            modelled_per_rank=[1.5],
            payload_bytes=64.0,
            counters={"jumps": 2.0},
        )
        monitor.record_iteration(
            IterationResult(
                iteration=0,
                percent_reduced=0.0,
                nblocks=1,
                nreduced=0,
                modelled_steps={"warp": 1.5},
                measured_steps={"warp": 0.1},
                step_reports={"warp": report},
            )
        )
        assert monitor.step_series("warp") == [1.5]
        assert monitor.step_series("warp", modelled=False) == [0.1]
        assert monitor.payload_bytes_series("warp") == [64.0]
        assert monitor.counter_series("warp", "jumps") == [2.0]
        # The canonical steps stay queryable, and unknown names still raise.
        assert monitor.step_series("rendering") == [0.0]
        with pytest.raises(ValueError):
            monitor.step_series("hyperdrive")
        with pytest.raises(ValueError):
            monitor.payload_bytes_series("hyperdrive")
        with pytest.raises(ValueError):
            monitor.counter_series("hyperdrive", "x")
