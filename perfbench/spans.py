"""Span recorder and runtime wrappers for the benchmark's traced runs.

The benchmark measures layers from the outside: :func:`install` replaces a
fixed list of public functions and methods of the ``repro`` package with
wrappers that record a span (name, start, end, parent span, request id,
iteration) or bump an exact counter, and returns a handle whose
``uninstall`` puts the originals back.  Nothing under ``src/`` is edited.

Spans live in memory and are written out when a run ends, as plain JSON
(:meth:`Recorder.dump`) or as Chrome Trace Event JSON (:func:`chrome_trace`),
which Perfetto and chrome://tracing load.

Request ids: the in-process workloads set one per request
(:meth:`Recorder.set_request`).  In the serve launcher a request begins at
``ReplayCache.acquire``/``acquire_store``, which assign the id to the runner
thread; pipeline stage threads inherit it through the ``IterationContext``
that ``ExecutionEngine.make_context`` built on that thread.  In a process-tier
worker the id is ``w:<cache key>`` and the worker's spans are appended to
``<spans dir>/worker-<pid>.jsonl`` when each task ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

#: Index of each field in a recorded span row.
NAME, START, END, PARENT, RID, IT, TID = range(7)


class Recorder:
    """In-memory span and counter store shared by every installed wrapper."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Dict[tuple, int] = defaultdict(int)
        self.rid_start: Dict[str, int] = {}
        self.worker_dir: Optional[Path] = None
        self._local = threading.local()
        self._context_rid: Dict[int, str] = {}
        self._seq = 0
        self._lock = threading.Lock()

    # -- request ids -----------------------------------------------------------

    def set_request(self, rid: Optional[str]) -> None:
        """Make ``rid`` the request id of spans opened on this thread."""
        self._local.rid = rid
        if rid is not None and rid not in self.rid_start:
            self.rid_start[rid] = time.perf_counter_ns()

    def next_request(self, label: str) -> str:
        with self._lock:
            self._seq += 1
            rid = f"{self._seq}:{label}"
        self.set_request(rid)
        return rid

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _current(self) -> tuple:
        stack = self._stack()
        if stack:
            top = self.spans[stack[-1]]
            return top[RID], top[IT]
        return getattr(self._local, "rid", None), -1

    # -- spans and counters ----------------------------------------------------

    def open(self, name: str, rid: Optional[str] = None, it: Optional[int] = None):
        """Open a span; returns its index, or ``None`` on same-name re-entry."""
        stack = self._stack()
        if stack and self.spans[stack[-1]][NAME] == name:
            return None
        cur_rid, cur_it = self._current()
        row = [
            name,
            time.perf_counter_ns(),
            0,
            stack[-1] if stack else -1,
            cur_rid if rid is None else rid,
            cur_it if it is None else it,
            threading.get_ident(),
        ]
        with self._lock:
            index = len(self.spans)
            self.spans.append(row)
        stack.append(index)
        return index

    def close(self, index) -> None:
        if index is None:
            return
        self.spans[index][END] = time.perf_counter_ns()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def count(self, name: str, value: int = 1) -> None:
        rid, _ = self._current()
        key = (name, rid)
        with self._lock:
            self.counts[key] += int(value)

    def bind_context(self, context) -> None:
        self._context_rid[id(context)] = self._current()[0]

    def context_rid(self, context) -> Optional[str]:
        return self._context_rid.get(id(context))

    # -- output ----------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "pid": os.getpid(),
                "spans": [list(row) for row in self.spans],
                "counts": [[n, r, v] for (n, r), v in self.counts.items()],
                "rid_start": dict(self.rid_start),
            }

    def reset(self) -> None:
        with self._lock:
            self.spans = []
            self.counts = defaultdict(int)
            self.rid_start = {}
            self._context_rid = {}
        self._local = threading.local()

    def dump(self, path: Path) -> None:
        Path(path).write_text(json.dumps(self.snapshot()))


# -- wrappers --------------------------------------------------------------------


def _timed(rec: Recorder, name, fn, after=None, tags=None):
    """Wrap ``fn`` in a span; ``name`` may be a callable of the call args."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        rid, it = tags(args) if tags is not None else (None, None)
        index = rec.open(span_name, rid, it)
        try:
            result = fn(*args, **kwargs)
            if after is not None and index is not None:
                after(args, kwargs, result)  # counts go to this span's request
            return result
        finally:
            rec.close(index)

    return wrapper


def _counted(rec: Recorder, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.count(name)
        return fn(*args, **kwargs)

    return wrapper


class _TimedEnter:
    """Context-manager proxy whose ``__enter__`` is one span."""

    def __init__(self, rec: Recorder, name: str, inner, on_enter) -> None:
        self._rec, self._name, self._inner, self._on_enter = rec, name, inner, on_enter

    def __enter__(self):
        self._on_enter()
        index = self._rec.open(self._name)
        try:
            return self._inner.__enter__()
        finally:
            self._rec.close(index)

    def __exit__(self, *exc):
        return self._inner.__exit__(*exc)


class Installed:
    """Handle of installed wrappers; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._restore: List[tuple] = []

    def patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_function(self, fn, wrapper) -> None:
        """Replace ``fn`` in every ``repro`` module that binds it by name."""
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


def _classes_defining(package: str, method: str):
    """Classes of ``package``'s loaded modules that define ``method`` themselves."""
    seen = []
    for name, module in list(sys.modules.items()):
        if not name.startswith(package):
            continue
        for value in list(vars(module).values()):
            if (
                isinstance(value, type)
                and value.__module__ == name
                and method in value.__dict__
                and value not in seen
            ):
                seen.append(value)
    return seen


def _import_layers() -> None:
    """Import every module whose functions get wrapped, so all bindings exist."""
    import repro.core.backends  # noqa: F401
    import repro.experiments.common  # noqa: F401
    import repro.io.store  # noqa: F401
    import repro.serve.cache  # noqa: F401
    import repro.serve.procrun  # noqa: F401
    import repro.serve.server  # noqa: F401


def install(rec: Recorder) -> Installed:
    """Wrap the public functions of every benchmarked layer."""
    _import_layers()
    from repro.cm1.simulation import CM1Simulation
    from repro.core.adaptation import AdaptationController
    from repro.core.engine import ExecutionEngine
    from repro.core.pipeline import InSituPipeline
    from repro.experiments.common import ExperimentScenario
    from repro.grid.block import Block
    from repro.io.store import DatasetStore
    from repro.perfmodel.calibration import calibrate_render_model
    from repro.serve import procrun
    from repro.serve.cache import ReplayCache, scenario_cache_key
    from repro.simmpi.communicator import BSPCommunicator
    from repro.simmpi.sort import parallel_sort_pairs_numpy

    # Submodules by path: the packages re-export functions under these names.
    grid_batch = importlib.import_module("repro.grid.batch")
    grid_reduction = importlib.import_module("repro.grid.reduction")
    marching_cubes = importlib.import_module("repro.viz.marching_cubes")
    handle = Installed()

    # core: every step's execute, the iteration, the controller.
    def step_tags(args):
        context = args[1]
        return rec.context_rid(context), int(context.iteration)

    def after_step(args, kwargs, report):
        if getattr(report, "step", None) == "rendering":
            triangles = report.per_rank_counters.get("triangles", [])
            rec.count("viz.triangles", int(sum(int(t) for t in triangles)))

    for cls in _classes_defining("repro.core", "execute"):
        handle.patch(
            cls,
            "execute",
            _timed(
                rec,
                lambda args: "core." + str(getattr(args[0], "name", "step")),
                cls.__dict__["execute"],
                after=after_step,
                tags=step_tags,
            ),
        )
    make_context = ExecutionEngine.__dict__["make_context"]

    @functools.wraps(make_context)
    def bound_make_context(*args, **kwargs):
        context = make_context(*args, **kwargs)
        rec.bind_context(context)
        return context

    handle.patch(ExecutionEngine, "make_context", bound_make_context)

    handle.patch(
        InSituPipeline,
        "process_iteration",
        _timed(
            rec,
            "core.iteration",
            InSituPipeline.__dict__["process_iteration"],
        ),
    )
    handle.patch(
        AdaptationController,
        "observe",
        _timed(rec, "core.adaptation", AdaptationController.__dict__["observe"]),
    )

    # grid: Block clones (counted), batch stacking, batched reductions.
    for attr in sorted(Block.__dict__):
        if attr.startswith("with_") and callable(Block.__dict__[attr]):
            handle.patch(
                Block, attr, _counted(rec, "grid.block_clones", Block.__dict__[attr])
            )

    def after_stack(args, kwargs, result):
        rec.count("grid.batch_stack.calls")

    from_blocks = grid_batch.BlockBatch.__dict__["from_blocks"].__func__
    handle.patch(
        grid_batch.BlockBatch,
        "from_blocks",
        classmethod(_timed(rec, "grid.batch_stack", from_blocks, after=after_stack)),
    )
    for fn in (grid_batch.group_positions_by_shape, grid_batch.partition_by_shape):
        handle.patch_function(
            fn, _timed(rec, "grid.batch_stack", fn, after=after_stack)
        )
    for fn in (grid_reduction.reduce_to_level_batch, grid_reduction.reduce_to_corners_batch):
        handle.patch_function(fn, _timed(rec, "grid.reduce_batch", fn))

    # metrics / compress: batched scoring and compressed sizes.
    def after_score(args, kwargs, result):
        batch = args[1]
        rec.count("metrics.points_scored", int(getattr(batch, "size", 0)))
        rec.count("metrics.bytes_scored", int(getattr(batch, "nbytes", 0)))

    for cls in _classes_defining("repro.metrics", "score_batch"):
        handle.patch(
            cls,
            "score_batch",
            _timed(rec, "metrics.score_batch", cls.__dict__["score_batch"], after=after_score),
        )
    for cls in _classes_defining("repro.compress", "compressed_size_batch"):
        handle.patch(
            cls,
            "compressed_size_batch",
            _timed(rec, "compress.size_batch", cls.__dict__["compressed_size_batch"]),
        )

    # simmpi: the block exchange and the score sort.
    def alltoallv_bytes(fn):
        @functools.wraps(fn)
        def wrapper(self, send_lists):
            before = self.stats.get("alltoallv", {}).get("bytes", 0.0)
            result = fn(self, send_lists)
            after = self.stats.get("alltoallv", {}).get("bytes", 0.0)
            rec.count("simmpi.exchange_bytes", int(after - before))
            rec.count(
                "simmpi.messages",
                sum(1 for row in send_lists for p in row if p is not None),
            )
            return result

        return wrapper

    handle.patch(
        BSPCommunicator,
        "alltoallv",
        _timed(
            rec,
            "simmpi.alltoallv",
            alltoallv_bytes(BSPCommunicator.__dict__["alltoallv"]),
        ),
    )
    handle.patch_function(
        parallel_sort_pairs_numpy,
        _timed(rec, "simmpi.sort", parallel_sort_pairs_numpy),
    )

    # viz kernels.
    handle.patch_function(
        marching_cubes.count_active_cells_batch,
        _timed(rec, "viz.count_cells", marching_cubes.count_active_cells_batch),
    )
    handle.patch_function(
        marching_cubes.extract_isosurface,
        _timed(rec, "viz.isosurface", marching_cubes.extract_isosurface),
    )

    # cm1, io, experiments, perfmodel.
    handle.patch(
        CM1Simulation,
        "snapshot",
        _timed(rec, "cm1.snapshot", CM1Simulation.__dict__["snapshot"]),
    )

    def after_append(args, kwargs, record):
        rec.count("io.bytes_written", int(getattr(record, "nbytes", 0)))

    handle.patch(
        DatasetStore,
        "append",
        _timed(rec, "io.append", DatasetStore.__dict__["append"], after=after_append),
    )
    handle.patch(
        DatasetStore,
        "load_iteration",
        _timed(rec, "io.load", DatasetStore.__dict__["load_iteration"]),
    )
    handle.patch(
        ExperimentScenario,
        "__init__",
        _timed(rec, "experiments.scenario_build", ExperimentScenario.__dict__["__init__"]),
    )
    handle.patch(
        ExperimentScenario,
        "reference_workload",
        _timed(rec, "perfmodel.calibrate", ExperimentScenario.__dict__["reference_workload"]),
    )
    handle.patch_function(
        calibrate_render_model,
        _timed(rec, "perfmodel.calibrate", calibrate_render_model),
    )

    # serve: cache acquisition opens a request on the runner thread.
    for attr in ("acquire", "acquire_store"):
        original = ReplayCache.__dict__[attr]

        def acquire(self, config, _original=original):
            inner = _original(self, config)

            def on_enter():
                if rec._stack():
                    return  # acquire -> acquire_store: same request
                rec.next_request(scenario_cache_key(config))

            return _TimedEnter(rec, "serve.cache.acquire", inner, on_enter)

        functools.update_wrapper(acquire, original)
        handle.patch(ReplayCache, attr, acquire)

    # Process-tier workers: one request id per task, spans flushed per task.
    run_in_worker = procrun.run_scenario_in_worker

    @functools.wraps(run_in_worker)
    def traced_worker_run(request, config, store_dir, *rest):
        in_child = os.getpid() != rec.pid
        if in_child:
            rec.reset()
            rec.set_request("w:" + Path(store_dir).name)
        try:
            return run_in_worker(request, config, store_dir, *rest)
        finally:
            if in_child and rec.worker_dir is not None:
                line = json.dumps(rec.snapshot())
                with open(rec.worker_dir / f"worker-{os.getpid()}.jsonl", "a") as fh:
                    fh.write(line + "\n")

    handle.patch_function(run_in_worker, traced_worker_run)
    return handle


# -- analysis ----------------------------------------------------------------------


def load_dumps(paths) -> List[dict]:
    """Read recorder snapshots from ``.json`` dumps and ``.jsonl`` worker files."""
    out = []
    for path in paths:
        text = Path(path).read_text()
        if str(path).endswith(".jsonl"):
            out.extend(json.loads(line) for line in text.splitlines() if line.strip())
        else:
            out.append(json.loads(text))
    return out


def self_times(spans: List[list]) -> List[int]:
    """Self time (ns) of each span: its duration minus its children's."""
    own = [max(0, row[END] - row[START]) for row in spans]
    out = list(own)
    for row in spans:
        if row[PARENT] >= 0:
            out[row[PARENT]] -= max(0, row[END] - row[START])
    return [max(0, v) for v in out]


def layer_table(dumps: List[dict]) -> List[tuple]:
    """``(name, calls, inclusive ms, self ms)`` per span name, slowest first."""
    agg: Dict[str, list] = defaultdict(lambda: [0, 0, 0])
    for dump in dumps:
        spans = dump["spans"]
        for row, own in zip(spans, self_times(spans)):
            entry = agg[row[NAME]]
            entry[0] += 1
            entry[1] += max(0, row[END] - row[START])
            entry[2] += own
    rows = [(n, c, inc / 1e6, own / 1e6) for n, (c, inc, own) in agg.items()]
    return sorted(rows, key=lambda r: -r[3])


def chrome_trace(dumps: List[dict], extra_events: Optional[List[dict]] = None) -> dict:
    """Chrome Trace Event JSON of every span (complete ``X`` events, µs)."""
    events = []
    for dump in dumps:
        pid = dump["pid"]
        for index, row in enumerate(dump["spans"]):
            if row[END] <= 0:
                continue
            events.append(
                {
                    "name": row[NAME],
                    "cat": row[NAME].split(".", 1)[0],
                    "ph": "X",
                    "ts": row[START] / 1e3,
                    "dur": max(0, row[END] - row[START]) / 1e3,
                    "pid": pid,
                    "tid": row[TID],
                    "args": {"rid": row[RID], "it": row[IT], "parent": row[PARENT], "id": index},
                }
            )
    events.extend(extra_events or [])
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def p50(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0
