"""The repository benchmark: one workload, one seed, one measuring window.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fine_fixed --seed 1 --seconds 8 --trace 0

Workloads (see ``perfbench/NOTES.md`` for why each was chosen):

* ``fine_fixed``, ``adaptive_mesh`` — ``InSituPipeline.process_iteration``
  in process (:mod:`inproc`);
* ``serve_replay``, ``serve_cold`` — closed-loop ``POST /run`` clients
  against ``python -m repro serve`` (:mod:`serving`).

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs with the
span wrappers of :mod:`spans` installed, prints a per-layer self-time table
and every per-layer metric, and writes a Chrome trace to
``.perfbench/trace-<workload>-<seed>.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  Output checks run in both modes; an operation that fails one
counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from collections import defaultdict
from pathlib import Path

import inproc
import serving
import spans as sp

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"

#: Unix socket paths (multiprocessing's manager) must stay under 108 bytes.
_MAX_TMPDIR_LEN = 60

STEPS = ("scoring", "sorting", "reduction", "redistribution", "rendering")

#: Per-iteration layers: inclusive time per iteration, p50 over iterations.
ITERATION_LAYERS = (
    "grid.batch_stack", "grid.reduce_batch", "metrics.score_batch",
    "compress.size_batch", "simmpi.alltoallv", "simmpi.sort",
    "viz.count_cells", "viz.isosurface", "core.adaptation",
)

#: Per-call layers: p50 over calls.
CALL_LAYERS = (
    "cm1.snapshot", "io.append", "io.load", "experiments.scenario_build",
    "serve.cache.acquire",
)

#: Exact counters, per request.
COUNTERS = {
    "grid.block_clones.count": "grid.block_clones",
    "grid.batch_stack.calls": "grid.batch_stack.calls",
    "metrics.points_scored": "metrics.points_scored",
    "metrics.bytes_scored": "metrics.bytes_scored",
    "simmpi.exchange_bytes": "simmpi.exchange_bytes",
    "simmpi.messages": "simmpi.messages",
    "viz.triangles": "viz.triangles",
    "io.bytes_written": "io.bytes_written",
}

CLIENT_LAYERS = (
    "serve.cache.hit_ratio", "serve.cache.evictions", "serve.admit.ms",
    "serve.first_iter.ms", "serve.stream_gap.ms",
)


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _prepare_environment() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no repro sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    WORKDIR.mkdir(exist_ok=True)
    tmp = WORKDIR / "tmp"
    if len(str(tmp)) <= _MAX_TMPDIR_LEN:
        tmp.mkdir(exist_ok=True)
        os.environ["TMPDIR"] = str(tmp)
    os.environ.setdefault("PYTHONDONTWRITEBYTECODE", "1")
    sys.dont_write_bytecode = True


# -- per-layer metrics ---------------------------------------------------------


def _units(spans_rows):
    """Iteration unit of each span: a ``core.iteration`` subtree, or the
    (request, iteration) of the step span it sits under."""
    units = [None] * len(spans_rows)
    for i, row in enumerate(spans_rows):
        parent = row[sp.PARENT]
        if row[sp.NAME] == "core.iteration":
            units[i] = ("i", i)
        elif parent >= 0 and units[parent] is not None:
            units[i] = units[parent]
        elif row[sp.NAME] in tuple("core." + s for s in STEPS):
            units[i] = ("s", row[sp.RID], row[sp.IT])
    return units


def layer_metrics(trace: dict):
    """Every per-layer metric of a traced run, and the problems found."""
    dumps = trace["dumps"]
    measured = set(trace.get("measured_rids", ()))
    window = trace.get("window_start_ns")
    for dump in dumps:
        if window is not None:
            measured.update(r for r, t in dump["rid_start"].items() if t >= window)

    per_unit = defaultdict(lambda: defaultdict(float))
    # name -> (durations in measured requests, durations elsewhere), in ms;
    # perfmodel.calibrate is summed per scenario build first.
    calls = defaultdict(lambda: ([], []))
    for dump in dumps:
        rows = dump["spans"]
        selfs = sp.self_times(rows)
        units = _units(rows)
        calib_by_build = defaultdict(float)
        for i, row in enumerate(rows):
            if row[sp.END] <= 0:
                continue
            name, dur = row[sp.NAME], (row[sp.END] - row[sp.START]) / 1e6
            in_window = row[sp.RID] in measured
            unit = units[i]
            if unit is not None and in_window:
                key = (dump["pid"],) + unit
                per_unit[key]["_seen"] = 1.0
                if name.startswith("core.") and name[5:] in STEPS:
                    per_unit[key][name] += selfs[i] / 1e6
                    parent = row[sp.PARENT]
                    if parent >= 0 and rows[parent][sp.NAME] == "core.iteration":
                        per_unit[key]["_steps"] += dur
                elif name == "core.iteration":
                    per_unit[key]["_iteration"] += dur
                elif name in ITERATION_LAYERS:
                    per_unit[key][name] += dur
            if name in CALL_LAYERS:
                calls[name][0 if in_window else 1].append(dur)
            if name == "perfmodel.calibrate":
                # Self time: the CM1 snapshot and kernels it calls have their own.
                j = row[sp.PARENT]
                while j >= 0 and rows[j][sp.NAME] != "experiments.scenario_build":
                    j = rows[j][sp.PARENT]
                calib_by_build[(j, in_window)] += selfs[i] / 1e6
        for (_, in_window), dur in calib_by_build.items():
            calls["perfmodel.calibrate"][0 if in_window else 1].append(dur)

    units = list(per_unit.values())
    metrics = {}
    for step in STEPS:
        metrics[f"core.{step}.ms"] = sp.p50(u[f"core.{step}"] for u in units)
    metrics["core.engine_overhead.ms"] = sp.p50(
        u["_iteration"] - u["_steps"] for u in units if u["_iteration"] > 0
    )
    for name in ITERATION_LAYERS:
        metrics[f"{name}.ms"] = sp.p50(u[name] for u in units)
    for name, (inside, elsewhere) in calls.items():
        metrics[f"{name}.ms"] = sp.p50(inside or elsewhere)
    for name in CALL_LAYERS + ("perfmodel.calibrate",):
        metrics.setdefault(f"{name}.ms", 0.0)

    # Exact counters of the designated request (the first measured one).
    per_request = defaultdict(lambda: defaultdict(int))
    starts = {}
    for dump in dumps:
        starts.update(dump["rid_start"])
        for name, rid, value in dump["counts"]:
            if rid in measured:
                per_request[rid][name] += value
    problems = []
    if trace.get("identical_requests"):
        signatures = {
            json.dumps(sorted(per_request[r].items())) for r in measured if per_request[r]
        }
        if len(signatures) > 1:
            problems.append(f"exact counters differ between identical requests: {signatures}")
    designated = _designated(trace, measured, starts)
    for metric, counter in COUNTERS.items():
        metrics[metric] = float(sum(per_request[r].get(counter, 0) for r in designated))

    for name in CLIENT_LAYERS:
        metrics[name] = float(trace["client"].get(name, 0.0))
    metrics["trace.overhead_frac"] = float(trace["overhead_frac"])
    return metrics, problems


def _designated(trace: dict, measured: set, starts: dict) -> list:
    key = trace.get("first_request_key")
    if key is None:
        return sorted(measured, key=lambda r: starts.get(r, 0))[:1]
    parents = sorted(
        (r for r in measured if r.endswith(":" + key) and not r.startswith("w:")),
        key=lambda r: starts.get(r, 0),
    )
    return parents[:1] + ["w:" + key]


# -- main ------------------------------------------------------------------------


def _end_to_end(result: dict) -> dict:
    samples = result["samples"]
    elapsed = result["elapsed_s"]
    attempted = max(1, result["attempted"])
    return {
        "iter_ms.p50": (sp.p50(samples["iter_ms"]), "ms"),
        "iters_per_s": (result["iterations"] / elapsed, "1/s"),
        "ttfe_ms.p50": (sp.p50(samples["ttfe_ms"]), "ms"),
        "request_ms.p50": (sp.p50(samples["request_ms"]), "ms"),
        "requests_per_s": (result["requests"] / elapsed, "1/s"),
        "ok_frac": ((attempted - result["failed"]) / attempted, "ratio"),
        "setup_s": (result["setup_s"], "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def _print_p90s(samples: dict) -> None:
    """p90 only where at least ten samples lie beyond it."""
    for name, values in samples.items():
        values = sorted(values)
        if len(values) >= 100:
            p90 = values[int(0.9 * (len(values) - 1))]
            print(f"  {name}.p90 {p90:.3f} ms (n={len(values)})")
        else:
            print(f"  {name}.p90 not reported: n={len(values)} < 100")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _prepare_environment()

    trace = bool(args.trace)
    work = WORKDIR / f"run-{os.getpid()}"
    try:
        if args.workload in inproc.WORKLOADS:
            result = inproc.run(args.workload, args.seed, args.seconds, trace)
        elif args.workload in serving.WORKLOADS:
            result = serving.run(args.workload, args.seed, args.seconds, trace, ROOT, work)
        else:
            _fail(f"unknown workload {args.workload!r}; "
                  f"known: {sorted(inproc.WORKLOADS) + sorted(serving.WORKLOADS)}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    problems = list(result["problems"])
    print(f"workload {args.workload} seed {args.seed} "
          f"({result['requests']} requests, {result['iterations']} iterations, "
          f"{result['elapsed_s']:.2f} s measured)")
    if trace:
        metrics, trace_problems = layer_metrics(result["trace"])
        problems.extend(trace_problems)
        print("layer self time (all traced spans):")
        print(f"  {'span':32s} {'calls':>7s} {'incl ms':>11s} {'self ms':>11s}")
        for name, count, inclusive, own in sp.layer_table(result["trace"]["dumps"]):
            print(f"  {name:32s} {count:7d} {inclusive:11.2f} {own:11.2f}")
        path = WORKDIR / f"trace-{args.workload}-{args.seed}.json"
        path.write_text(json.dumps(sp.chrome_trace(
            result["trace"]["dumps"], result["trace"].get("client_events"))))
        print(f"chrome trace: {path.relative_to(ROOT)}")
        units = _per_layer_units()
        reported = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    else:
        reported = {
            n: {"value": v, "unit": u} for n, (v, u) in _end_to_end(result).items()
        }
        _print_p90s(result["samples"])
    failed_frac = result["failed"] / max(1, result["attempted"])
    print(f"  failed_frac {failed_frac:.4f} ratio "
          f"({result['failed']} of {result['attempted']} operations)")
    for name, entry in reported.items():
        print(f"  {name} {entry['value']:.6g} {entry['unit']}")
    for problem in problems:
        print(f"CHECK FAILED: {problem[:400]}")
    print(json.dumps({
        "correct": not problems and result["failed"] == 0,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": reported,
    }))
    return 0


def _per_layer_units() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
