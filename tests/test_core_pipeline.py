"""Integration tests of the full adaptive pipeline on small scenarios."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.core.config import AdaptationConfig, PipelineConfig
from repro.core.pipeline import InSituPipeline
from repro.core.results import IterationResult
from repro.perfmodel.platform import PlatformModel


class TestPipelineConfig:
    def test_defaults_valid(self):
        config = PipelineConfig()
        assert config.metric == "VAR"

    def test_invalid_redistribution(self):
        with pytest.raises(ValueError):
            PipelineConfig(redistribution="banana")

    def test_invalid_render_mode(self):
        with pytest.raises(ValueError):
            PipelineConfig(render_mode="gpu")

    def test_empty_metric(self):
        with pytest.raises(ValueError):
            PipelineConfig(metric="")


class TestPipelineIntegration:
    def test_process_iteration_structure(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(metric="VAR", redistribution="round_robin")
        blocks = tiny_scenario.blocks_for(0)
        result, renders = pipeline.process_iteration(blocks, percent_override=0.0)
        assert isinstance(result, IterationResult)
        assert result.nblocks == tiny_scenario.nblocks
        assert result.nreduced == 0
        assert len(renders) == tiny_scenario.nranks
        assert set(result.modelled_steps) == {
            "scoring",
            "sorting",
            "reduction",
            "redistribution",
            "rendering",
        }
        assert result.modelled_total > 0

    def test_rank_count_validated(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        with pytest.raises(ValueError):
            pipeline.process_iteration([[]])

    def test_percent_override_bounds(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        with pytest.raises(ValueError):
            pipeline.process_iteration(tiny_scenario.blocks_for(0), percent_override=150.0)

    def test_full_reduction_reduces_all_blocks(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        result, _ = pipeline.process_iteration(tiny_scenario.blocks_for(0), percent_override=100.0)
        assert result.nreduced == result.nblocks

    def test_reduction_lowers_rendering_time(self, tiny_scenario):
        p_full = tiny_scenario.build_pipeline()
        full, _ = p_full.process_iteration(tiny_scenario.blocks_for(0), percent_override=0.0)
        p_red = tiny_scenario.build_pipeline()
        reduced, _ = p_red.process_iteration(tiny_scenario.blocks_for(0), percent_override=100.0)
        assert reduced.modelled_rendering < full.modelled_rendering

    def test_redistribution_improves_balance(self, small_scenario_16):
        scenario = small_scenario_16
        none_result, _ = scenario.build_pipeline(redistribution="none").process_iteration(
            scenario.blocks_for(0), percent_override=0.0
        )
        rr_result, _ = scenario.build_pipeline(redistribution="round_robin").process_iteration(
            scenario.blocks_for(0), percent_override=0.0
        )
        assert rr_result.load_imbalance <= none_result.load_imbalance
        assert rr_result.modelled_rendering <= none_result.modelled_rendering

    def test_monitor_records_iterations(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        for i in range(2):
            pipeline.process_iteration(tiny_scenario.blocks_for(i), percent_override=0.0)
        assert pipeline.monitor.niterations == 2
        series = pipeline.monitor.step_series("rendering")
        assert len(series) == 2
        run = pipeline.monitor.to_run_result(pipeline.config_summary())
        assert run.niterations == 2
        assert run.summary()["iterations"] == 2

    def test_adaptation_moves_percent_toward_target(self, tiny_scenario):
        adaptation = AdaptationConfig(enabled=True, target_seconds=5.0)
        pipeline = tiny_scenario.build_pipeline(
            metric="VAR", redistribution="none", adaptation=adaptation
        )
        percents = []
        for i in range(4):
            blocks = tiny_scenario.blocks_for(i % len(tiny_scenario.dataset))
            result, _ = pipeline.process_iteration(blocks)
            percents.append(result.percent_reduced)
        # Starts at 0 and increases because the target is far below the baseline.
        assert percents[0] == 0.0
        assert percents[1] > 50.0

    def test_run_convenience(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline()
        run = pipeline.run([tiny_scenario.blocks_for(0), tiny_scenario.blocks_for(1)], percent_override=0.0)
        assert run.niterations == 2
        assert run.mean_modelled_rendering() > 0

    def test_raising_on_iteration_stops_run(self, tiny_scenario):
        """An ``on_iteration`` callback that raises (serve cancellation)
        stops the run between iterations and propagates unchanged."""

        class Cancel(Exception):
            pass

        seen = []

        def cancel_after_first(result):
            seen.append(result.iteration)
            raise Cancel("stop")

        pipeline = tiny_scenario.build_pipeline()
        blocks = [tiny_scenario.blocks_for(i) for i in range(3)]
        with pytest.raises(Cancel):
            pipeline.run(blocks, percent_override=50.0, on_iteration=cancel_after_first)
        assert seen == [0]
        assert pipeline.monitor.to_run_result({}).niterations == 1

    def test_config_summary_contents(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(metric="LEA", redistribution="shuffle")
        summary = pipeline.config_summary()
        assert summary["metric"] == "LEA"
        assert summary["redistribution"] == "shuffle"
        assert summary["nranks"] == tiny_scenario.nranks

    def test_quickstart_helper(self):
        run = repro.quickstart_pipeline(nranks=4, nsnapshots=2)
        assert run.niterations == 2
        assert all(t > 0 for t in run.modelled_totals())

    def test_mesh_render_mode(self, tiny_scenario):
        pipeline = tiny_scenario.build_pipeline(render_mode="mesh")
        result, renders = pipeline.process_iteration(
            tiny_scenario.blocks_for(0), percent_override=0.0
        )
        assert result.modelled_rendering > 0
        assert any(r.mesh is not None for r in renders)

    def test_nranks_mismatch_with_comm(self, tiny_scenario):
        from repro.simmpi.communicator import BSPCommunicator

        with pytest.raises(ValueError):
            InSituPipeline(
                PipelineConfig(),
                PlatformModel.blue_waters(4),
                nranks=4,
                comm=BSPCommunicator(8),
            )


class TestIterationResult:
    def test_totals_and_imbalance(self):
        result = IterationResult(
            iteration=0,
            percent_reduced=10.0,
            nblocks=8,
            nreduced=1,
            modelled_steps={"rendering": 10.0, "scoring": 1.0},
            measured_steps={"rendering": 0.1},
            triangles_per_rank=[10, 30],
        )
        assert result.modelled_total == pytest.approx(11.0)
        assert result.measured_total == pytest.approx(0.1)
        assert result.modelled_rendering == pytest.approx(10.0)
        assert result.load_imbalance == pytest.approx(1.5)

    def test_empty_triangles_imbalance_one(self):
        result = IterationResult(iteration=0, percent_reduced=0, nblocks=0, nreduced=0)
        assert result.load_imbalance == 1.0
