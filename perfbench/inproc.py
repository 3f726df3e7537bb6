"""The in-process workloads: ``InSituPipeline.process_iteration`` in a loop.

One request is a fresh pipeline (``ExperimentScenario.build_pipeline``) run
over a fixed iteration sequence, so every request does the same work and its
decisions can be checked, iteration by iteration, against the ``serial``
reference backend.  The loop is closed: the next request starts when the
previous one has finished, until the measuring window has passed.
"""

from __future__ import annotations

import gc
import random
import resource
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import spans


@dataclass(frozen=True)
class InProcessWorkload:
    scenario: str
    metric: str
    redistribution: str
    render_mode: str
    #: Fixed reduction percentage, or ``None`` to let Algorithm 1 steer.
    percent: Optional[float]
    #: Adaptation target in modelled seconds (used when ``percent`` is None).
    target_seconds: Optional[float]
    #: Snapshots the scenario simulates (``None``: the registered default).
    nsnapshots: Optional[int]
    #: Iterations per request; each replays the snapshot sequence in order.
    iterations: int
    #: Leading iterations of a request checked against the serial backend.
    reference_iterations: int
    #: Whether ``--seed`` sets the CM1 turbulence seed.  When it does not,
    #: the registered storm is used and the seed only permutes the order of
    #: each rank's blocks, an input the decisions must not depend on.
    seeded_data: bool


WORKLOADS: Dict[str, InProcessWorkload] = {
    "fine_fixed": InProcessWorkload(
        scenario="blue_waters_64_fine",
        metric="VAR",
        redistribution="shuffle",
        render_mode="count",
        percent=50.0,
        target_seconds=None,
        nsnapshots=None,
        iterations=2,
        reference_iterations=2,
        seeded_data=True,
    ),
    "adaptive_mesh": InProcessWorkload(
        scenario="blue_waters_64",
        metric="FPZIP",
        redistribution="round_robin",
        render_mode="mesh",
        percent=None,
        target_seconds=25.0,
        nsnapshots=3,
        iterations=3,
        reference_iterations=2,
        # Algorithm 1's trajectory follows the turbulence phases closely: in
        # a probe over five turbulence seeds the per-iteration p50 ranged
        # from 1.2 to 2.3 s, so the spread would measure the seed, not the
        # code.
        seeded_data=False,
    ),
}


def decision(result) -> dict:
    """The per-iteration decisions every backend must agree on bitwise."""
    return {
        "percent_reduced": result.percent_reduced,
        "nreduced": result.nreduced,
        "moved_bytes": result.moved_bytes,
        "triangles_per_rank": list(result.triangles_per_rank),
        "modelled_steps": dict(result.modelled_steps),
    }


def _setup(spec: InProcessWorkload, seed: int):
    """Scenario build, CM1 simulation and block extraction of every snapshot."""
    from repro.experiments.common import ExperimentScenario
    from repro.scenarios import create_scenario_config

    config = create_scenario_config(
        spec.scenario, seed=seed if spec.seeded_data else None, nsnapshots=spec.nsnapshots
    )
    scenario = ExperimentScenario(config)
    snapshots = scenario.iteration_blocks()
    if not spec.seeded_data:
        rng = random.Random(seed)
        snapshots = [[rng.sample(blocks, len(blocks)) for blocks in per_rank]
                     for per_rank in snapshots]
    sequence = [snapshots[i % len(snapshots)] for i in range(spec.iterations)]
    return scenario, sequence


def _pipeline(spec: InProcessWorkload, scenario, engine: Optional[str] = None):
    from repro.core.config import AdaptationConfig

    adaptation = None
    if spec.percent is None:
        adaptation = AdaptationConfig(enabled=True, target_seconds=spec.target_seconds)
    return scenario.build_pipeline(
        metric=spec.metric,
        redistribution=spec.redistribution,
        adaptation=adaptation,
        render_mode=spec.render_mode,
        engine=engine,
    )


def _request(spec, scenario, sequence, engine=None, count=None):
    """One request; returns (request ms, ttfe ms, iteration ms list, decisions)."""
    t0 = time.perf_counter()
    pipeline = _pipeline(spec, scenario, engine)
    iter_ms: List[float] = []
    rows: List[dict] = []
    ttfe = 0.0
    for blocks in sequence[: count or len(sequence)]:
        t_it = time.perf_counter()
        result, _ = pipeline.process_iteration(blocks, percent_override=spec.percent)
        now = time.perf_counter()
        iter_ms.append((now - t_it) * 1e3)
        if not rows:
            ttfe = (now - t0) * 1e3
        rows.append(decision(result))
    return (time.perf_counter() - t0) * 1e3, ttfe, iter_ms, rows


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one in-process workload; returns the benchmark's result fields."""
    spec = WORKLOADS[name]
    rec = spans.Recorder()
    setups: List[float] = []
    scenario = sequence = None
    for _ in range(1 if trace else 3):
        scenario = sequence = None
        gc.collect()
        handle = spans.install(rec) if trace else None
        rec.set_request("setup")
        t0 = time.perf_counter()
        scenario, sequence = _setup(spec, seed)
        setups.append(time.perf_counter() - t0)
        if handle is not None:
            handle.uninstall()

    # Measuring window: closed loop, one request at a time.  Traced runs
    # alternate untraced and traced requests, which gives the paired
    # untraced figures the trace overhead is computed from.
    requests = []
    start = time.perf_counter()
    deadline = start + seconds
    while True:
        traced = trace and len(requests) % 2 == 1
        rid = f"req{len(requests)}"
        handle = spans.install(rec) if traced else None
        rec.set_request(rid if traced else None)
        try:
            request_ms, ttfe, iter_ms, rows = _request(spec, scenario, sequence)
        finally:
            if handle is not None:
                handle.uninstall()
        requests.append(
            {"rid": rid, "traced": traced, "request_ms": request_ms, "ttfe_ms": ttfe,
             "iter_ms": iter_ms, "rows": rows}
        )
        if time.perf_counter() >= deadline and (not trace or len(requests) % 2 == 0):
            break
    elapsed = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # Output checks, outside the window and outside set-up.
    _, _, _, reference = _request(
        spec, scenario, sequence, engine="serial", count=spec.reference_iterations
    )
    attempted = failed = 0
    problems: List[str] = []
    for req in requests:
        for index, row in enumerate(req["rows"]):
            attempted += 1
            expected = reference[index] if index < len(reference) else requests[0]["rows"][index]
            if row != expected:
                failed += 1
                problems.append(f"{req['rid']} iteration {index}: {row} != {expected}")

    plain = [r for r in requests if not r["traced"]]
    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "samples": {
            "iter_ms": [ms for r in plain for ms in r["iter_ms"]],
            "ttfe_ms": [r["ttfe_ms"] for r in plain],
            "request_ms": [r["request_ms"] for r in plain],
        },
        "iterations": sum(len(r["iter_ms"]) for r in plain),
        "requests": len(plain),
        "elapsed_s": elapsed,
        "setup_s": spans.p50(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        traced = [r for r in requests if r["traced"]]
        result["trace"] = {
            "dumps": [rec.snapshot()],
            "measured_rids": [r["rid"] for r in traced],
            "identical_requests": True,
            "overhead_frac": spans.p50(ms for r in traced for ms in r["iter_ms"])
            / spans.p50(ms for r in plain for ms in r["iter_ms"])
            - 1.0,
            "client": {},
        }
    return result
