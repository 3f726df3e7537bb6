"""The asyncio scenario-run service behind ``python -m repro serve``.

A deliberately small stdlib-only HTTP/1.1 server (``asyncio.start_server``
plus hand-rolled request parsing — no web framework in the image), because
the protocol is tiny:

``GET /health``
    ``{"status": "ok", "execution": ..., "cache": {...}, "executor": {...}}``
    — liveness plus cache counters (hits/misses/evictions/occupancy) and
    executor depth (active runs, queued runs, worker count, execution tier).

``GET /scenarios``
    The registered workload names.

``POST /run``
    JSON body selecting a registered scenario and optional overrides
    (``ranks``, ``snapshots``, ``seed``, ``metric``, ``redistribution``,
    ``percent``, ``target``, ``render_mode``, ``backend``, ``timeout_s``),
    validated in full — unknown fields, a ``percent`` outside [0, 100], a
    non-positive ``target`` — with a JSON 400 before any ``200`` header is
    sent.  The response streams NDJSON: one ``start`` event (with
    the cache verdict), one ``iteration`` event per completed pipeline
    iteration *as it completes*, and a final ``summary`` event matching
    ``python -m repro run``'s machine-readable contract — or a terminal
    ``error`` event whose ``reason`` distinguishes a ``"timeout"`` (the
    request's ``timeout_s`` or the server's ``--max-run-seconds`` cap
    expired), a ``"shutdown"`` (the server is draining), and an
    ``"exception"``.

Two execution tiers (``ServeApp(execution=...)``, CLI ``--execution``):

``"thread"`` (default)
    Runs execute on a shared :class:`~concurrent.futures.ThreadPoolExecutor`
    — many concurrent requests multiplex over a bounded pool while the
    event loop keeps streaming.  NumPy-heavy runs overlap well; runs
    dominated by *GIL-bound* Python (scalar user metrics like ``PYVAR``)
    serialise on one core.

``"process"``
    Each run executes in a worker process from the shared
    :func:`~repro.utils.procpool.shared_process_pool`, GIL-free.  Snapshot
    data is never pickled to workers: the worker re-opens the replay
    cache's raw-layout store by path through read-only memory maps (see
    :mod:`repro.serve.procrun`), and iteration events stream back over a
    manager queue, so NDJSON latency-to-first-event stays flat.

Scenario data resolves through the :class:`~repro.serve.cache.ReplayCache`:
the first request for a config simulates CM1 and persists the snapshots,
every identical request after it replays them via read-only memory maps.
The cache entry stays pinned (eviction-exempt) for the duration of each run.
"""

from __future__ import annotations

import asyncio
import json
import queue as queue_module
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

from repro.core.backends import engine_backends
from repro.core.config import AdaptationConfig
from repro.grid.shm import purge_owned_segments
from repro.metrics.registry import default_registry
from repro.scenarios import get_scenario, scenario_names
from repro.serve.cache import ReplayCache, scenario_cache_key
from repro.serve.procrun import RunCancelled, iteration_row, run_scenario_in_worker
from repro.utils.procpool import (
    default_process_workers,
    shared_manager,
    shared_process_pool,
    warm_shared_pool,
)

__all__ = ["EXECUTION_TIERS", "RunRequest", "ServeApp", "serve_forever"]

_SENTINEL = object()

#: Valid values of ``ServeApp(execution=...)`` / ``serve --execution``.
EXECUTION_TIERS = ("thread", "process")

#: Seconds past a request deadline before the *streaming* side force-closes
#: the response.  The cooperative cancel normally fires first (between
#: iterations); this watchdog only catches a run stuck inside one iteration.
STREAM_GRACE_SECONDS = 2.0

#: Poll interval of the process-tier event drain and the shutdown drain.
_POLL_SECONDS = 0.05


@dataclass(frozen=True)
class RunRequest:
    """One validated ``POST /run`` payload."""

    scenario: str
    ranks: Optional[int] = None
    snapshots: Optional[int] = None
    seed: Optional[int] = None
    metric: str = "VAR"
    redistribution: str = "none"
    percent: Optional[float] = None
    target: Optional[float] = None
    render_mode: str = "count"
    backend: Optional[str] = None
    timeout_s: Optional[float] = None

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunRequest":
        """Build a request from a decoded JSON body; raises ``ValueError``."""
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        scenario = payload.get("scenario")
        if not isinstance(scenario, str) or not scenario.strip():
            raise ValueError("'scenario' (a registered name) is required")
        known = {
            "scenario", "ranks", "snapshots", "seed", "metric",
            "redistribution", "percent", "target", "render_mode", "backend",
            "timeout_s",
        }
        unknown = set(payload) - known
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)}")
        request = cls(
            scenario=scenario.strip(),
            ranks=None if payload.get("ranks") is None else int(payload["ranks"]),
            snapshots=(
                None if payload.get("snapshots") is None else int(payload["snapshots"])
            ),
            seed=None if payload.get("seed") is None else int(payload["seed"]),
            metric=str(payload.get("metric", "VAR")),
            redistribution=str(payload.get("redistribution", "none")),
            percent=(
                None if payload.get("percent") is None else float(payload["percent"])
            ),
            target=None if payload.get("target") is None else float(payload["target"]),
            render_mode=str(payload.get("render_mode", "count")),
            backend=(
                None
                if payload.get("backend") is None
                else str(payload["backend"]).strip().lower()
            ),
            timeout_s=(
                None
                if payload.get("timeout_s") is None
                else float(payload["timeout_s"])
            ),
        )
        if request.metric.strip().upper() not in default_registry():
            raise ValueError(
                f"unknown metric {request.metric!r}; available: "
                f"{', '.join(default_registry().names())}"
            )
        if request.redistribution not in ("none", "shuffle", "round_robin"):
            raise ValueError(
                f"redistribution must be 'none', 'shuffle' or 'round_robin', "
                f"got {request.redistribution!r}"
            )
        if request.render_mode not in ("count", "mesh"):
            raise ValueError(
                f"render_mode must be 'count' or 'mesh', got {request.render_mode!r}"
            )
        if request.backend is not None and request.backend not in engine_backends():
            raise ValueError(
                f"unknown backend {request.backend!r}; available: "
                f"{', '.join(engine_backends())}"
            )
        if request.percent is not None and not 0.0 <= request.percent <= 100.0:
            raise ValueError(f"percent must be in [0, 100], got {request.percent}")
        if request.target is not None and not request.target > 0:
            raise ValueError(f"target must be > 0, got {request.target}")
        if request.timeout_s is not None and not request.timeout_s > 0:
            raise ValueError(f"timeout_s must be > 0, got {request.timeout_s}")
        return request


def _json_default(value):
    if hasattr(value, "tolist"):
        return value.tolist()
    if hasattr(value, "item"):
        return value.item()
    raise TypeError(f"not JSON serialisable: {type(value).__name__}")


class _RunScope:
    """Cancellation scope of one run: deadline + cancel flag + shutdown.

    Shared between the streaming coroutine (which enforces the hard stream
    deadline), the runner thread (which checks cooperatively between
    iterations via :meth:`check`), and — in the process tier — a manager
    Event proxy mirrored into the worker process.
    """

    def __init__(
        self, timeout_s: Optional[float], shutdown: threading.Event
    ) -> None:
        self.timeout_s = timeout_s
        self.started = time.monotonic()
        self.deadline = None if timeout_s is None else self.started + timeout_s
        self._shutdown = shutdown
        self._cancel = threading.Event()
        self._reason: Optional[str] = None
        self._remote_cancel = None  # manager Event proxy (process tier)

    def attach_remote_cancel(self, remote) -> None:
        self._remote_cancel = remote
        if self.cancelled() is not None:
            remote.set()

    def request_cancel(self, reason: str) -> None:
        if self._reason is None:
            self._reason = reason
        self._cancel.set()
        if self._remote_cancel is not None:
            self._remote_cancel.set()

    def cancelled(self) -> Optional[str]:
        """The cancel reason if this run should stop, else ``None``."""
        if self._cancel.is_set():
            return self._reason or "timeout"
        if self._shutdown.is_set():
            return "shutdown"
        if self.deadline is not None and time.monotonic() > self.deadline:
            return "timeout"
        return None

    def check(self) -> None:
        """Raise :class:`RunCancelled` when the run should stop."""
        reason = self.cancelled()
        if reason is not None:
            self.request_cancel(reason)
            raise RunCancelled(reason)

    def stream_expired(self) -> bool:
        """Whether the streaming side should give up on the runner."""
        return (
            self.deadline is not None
            and time.monotonic() > self.deadline + STREAM_GRACE_SECONDS
        )


class ServeApp:
    """The service: cache + worker pools + request handling.

    Parameters
    ----------
    cache_dir:
        Directory for the on-disk replay cache.
    max_workers:
        Number of scenario runs that can execute concurrently (further
        requests queue).  In the process tier this bounds the server-side
        streaming threads; worker processes are bounded by the shared
        process pool (:func:`default_process_workers`).
    execution:
        ``"thread"`` (default) or ``"process"`` — see the module docstring.
    max_run_seconds:
        Server-side cap on each run's duration.  A request's ``timeout_s``
        can only tighten it; the effective deadline is the minimum of both.
    cache_max_entries, cache_max_bytes:
        LRU bounds forwarded to :class:`~repro.serve.cache.ReplayCache`.
    shutdown_grace:
        Seconds :meth:`close` waits for cancelled in-flight runs to drain
        before abandoning them.
    """

    def __init__(
        self,
        cache_dir: Path,
        max_workers: int = 8,
        execution: str = "thread",
        max_run_seconds: Optional[float] = None,
        cache_max_entries: Optional[int] = None,
        cache_max_bytes: Optional[int] = None,
        shutdown_grace: float = 10.0,
    ) -> None:
        if execution not in EXECUTION_TIERS:
            raise ValueError(
                f"execution must be one of {EXECUTION_TIERS}, got {execution!r}"
            )
        if max_run_seconds is not None and not max_run_seconds > 0:
            raise ValueError(
                f"max_run_seconds must be > 0, got {max_run_seconds}"
            )
        self.execution = execution
        self.max_run_seconds = max_run_seconds
        self.shutdown_grace = float(shutdown_grace)
        self.cache = ReplayCache(
            Path(cache_dir),
            max_entries=cache_max_entries,
            max_bytes=cache_max_bytes,
        )
        self.max_workers = int(max_workers)
        self.executor = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="repro-serve"
        )
        self._shutdown = threading.Event()
        self._runs_lock = threading.Lock()
        self._submitted = 0
        self._active = 0
        self._completed = 0
        if execution == "process":
            # Fork the worker processes (and the manager daemon) during
            # single-threaded startup, not from the first request thread.
            shared_manager()
            warm_shared_pool()

    # -- run accounting ------------------------------------------------------

    def _run_submitted(self) -> None:
        with self._runs_lock:
            self._submitted += 1

    def _run_started(self) -> None:
        with self._runs_lock:
            self._active += 1

    def _run_finished(self) -> None:
        with self._runs_lock:
            self._active -= 1
            self._completed += 1

    def executor_stats(self) -> Dict[str, object]:
        """Executor depth for ``GET /health``."""
        with self._runs_lock:
            active = self._active
            queued = max(0, self._submitted - self._completed - active)
            completed = self._completed
        workers = (
            default_process_workers()
            if self.execution == "process"
            else self.max_workers
        )
        return {
            "execution": self.execution,
            "workers": workers,
            "active": active,
            "queued": queued,
            "completed": completed,
        }

    def _timeout_for(self, request: RunRequest) -> Optional[float]:
        """Effective run timeout: request ``timeout_s`` ∧ server cap."""
        bounds = [
            t for t in (request.timeout_s, self.max_run_seconds) if t is not None
        ]
        return min(bounds) if bounds else None

    # -- run execution -------------------------------------------------------

    def _execute_run(
        self, request: RunRequest, config, emit, scope: _RunScope
    ) -> Dict[str, object]:
        """Blocking scenario run (worker-pool side), either tier.

        ``emit(event_dict)`` is called for the start event and every
        completed iteration; the returned dict is the final summary event.
        Raises :class:`RunCancelled` when the scope's deadline expires or a
        cancellation (shutdown, disconnect) is requested — always between
        iterations, so partial NDJSON output stays well-formed.
        """
        if self.execution == "process":
            return self._execute_process_run(request, config, emit, scope)
        with self.cache.acquire(config) as (scenario, was_hit):
            emit(self._start_event(request, config, was_hit))
            scope.check()
            adaptation: Optional[AdaptationConfig] = None
            if request.target is not None:
                adaptation = AdaptationConfig(
                    enabled=True, target_seconds=request.target
                )
            pipeline = scenario.build_pipeline(
                metric=request.metric,
                redistribution=request.redistribution,
                adaptation=adaptation,
                render_mode=request.render_mode,
                engine=request.backend,
            )

            def on_iteration(result) -> None:
                scope.check()
                emit({"type": "iteration", **iteration_row(result)})

            run = pipeline.run(
                scenario.iteration_blocks(),
                percent_override=request.percent,
                on_iteration=on_iteration,
            )
            scope.check()
            return {
                "type": "summary",
                "scenario": {
                    "name": config.name or request.scenario,
                    "ncores": config.ncores,
                    "shape": list(config.shape),
                    "nsnapshots": config.nsnapshots,
                    "seed": config.seed,
                },
                "config": pipeline.config_summary(),
                "run": run.summary(),
                "cache": self.cache.stats(),
            }

    def _execute_process_run(
        self, request: RunRequest, config, emit, scope: _RunScope
    ) -> Dict[str, object]:
        """Dispatch one run to a worker process and relay its event stream.

        The cache entry stays pinned (``acquire_store``) while the worker
        re-opens the store by path; iteration events arrive over a manager
        queue and are forwarded as they land.  Cancellation mirrors the
        scope into the worker through a manager Event — the worker aborts
        between iterations and its ``finally`` purges any shm segments.
        """
        with self.cache.acquire_store(config) as (store_dir, was_hit):
            emit(self._start_event(request, config, was_hit))
            scope.check()
            manager = shared_manager()
            events = manager.Queue()
            remote_cancel = manager.Event()
            scope.attach_remote_cancel(remote_cancel)
            deadline_wall = (
                None
                if scope.deadline is None
                else time.time() + max(0.0, scope.deadline - time.monotonic())
            )
            future = shared_process_pool().submit(
                run_scenario_in_worker,
                asdict(request),
                config,
                str(store_dir),
                events,
                remote_cancel,
                deadline_wall,
            )
            try:
                while True:
                    reason = scope.cancelled()
                    if reason is not None:
                        scope.request_cancel(reason)  # mirrors to the worker
                        future.cancel()  # no-op once running; frees a queued task
                        raise RunCancelled(reason)
                    try:
                        event = events.get(timeout=_POLL_SECONDS)
                    except queue_module.Empty:
                        if future.done():
                            while True:  # worker returned: drain stragglers
                                try:
                                    event = events.get_nowait()
                                except queue_module.Empty:
                                    break
                                emit(event)
                            break
                        continue
                    emit(event)
                summary = future.result()
                summary["cache"] = self.cache.stats()
                return summary
            finally:
                # A cancelled parent never leaks segments of its own, and a
                # cancelled worker purges its side (procrun's finally).
                if scope.cancelled() is not None:
                    purge_owned_segments()

    def _start_event(
        self, request: RunRequest, config, was_hit: bool
    ) -> Dict[str, object]:
        return {
            "type": "start",
            "scenario": config.name or request.scenario,
            "cache": "hit" if was_hit else "miss",
            "cache_key": scenario_cache_key(config),
            "iterations": config.nsnapshots,
            "execution": self.execution,
        }

    async def stream_run(self, request: RunRequest, write_line) -> None:
        """Run a request on the pool, awaiting ``write_line`` per event."""
        loop = asyncio.get_running_loop()
        out_queue: asyncio.Queue = asyncio.Queue()
        spec = get_scenario(request.scenario)  # KeyError -> handled by caller
        config = spec.build(
            ncores=request.ranks,
            nsnapshots=request.snapshots,
            seed=request.seed,
        )
        scope = _RunScope(self._timeout_for(request), self._shutdown)

        def emit(event: Dict[str, object]) -> None:
            loop.call_soon_threadsafe(out_queue.put_nowait, event)

        def runner() -> None:
            self._run_started()
            try:
                summary = self._execute_run(request, config, emit, scope)
                emit(summary)
            except RunCancelled as exc:
                emit(
                    {
                        "type": "error",
                        "reason": exc.reason,
                        "error": self._cancel_message(exc.reason, scope),
                    }
                )
            except Exception as exc:  # surfaced as an error event
                emit({"type": "error", "reason": "exception", "error": str(exc)})
            finally:
                self._run_finished()
                loop.call_soon_threadsafe(out_queue.put_nowait, _SENTINEL)

        self._run_submitted()
        future = loop.run_in_executor(self.executor, runner)
        finished = False
        try:
            while True:
                try:
                    event = await asyncio.wait_for(
                        out_queue.get(), timeout=_POLL_SECONDS * 5
                    )
                except asyncio.TimeoutError:
                    # Watchdog: the cooperative cancel normally ends the
                    # stream via the runner's error event; this only fires
                    # for a run wedged inside a single iteration.
                    if scope.stream_expired():
                        scope.request_cancel("timeout")
                        await write_line(
                            json.dumps(
                                {
                                    "type": "error",
                                    "reason": "timeout",
                                    "error": self._cancel_message(
                                        "timeout", scope
                                    ),
                                },
                                default=_json_default,
                            )
                        )
                        return
                    continue
                if event is _SENTINEL:
                    finished = True
                    break
                await write_line(json.dumps(event, default=_json_default))
        finally:
            if not finished:
                # Client gone or stream abandoned: stop the run promptly.
                if scope.cancelled() is None:
                    scope.request_cancel("disconnect")
                with _suppress_concurrent_errors():
                    await future

    @staticmethod
    def _cancel_message(reason: str, scope: _RunScope) -> str:
        if reason == "timeout":
            bound = scope.timeout_s
            return (
                f"run exceeded its deadline of {bound:.3f}s"
                if bound is not None
                else "run cancelled by deadline"
            )
        if reason == "shutdown":
            return "server is shutting down"
        return f"run cancelled ({reason})"

    # -- protocol ------------------------------------------------------------

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One HTTP/1.1 exchange (the server always closes after it)."""
        try:
            method, path, headers = await _read_request_head(reader)
            body = b""
            length = int(headers.get("content-length", "0") or "0")
            if length:
                body = await reader.readexactly(length)
            await self._dispatch(writer, method, path, body)
        except (asyncio.IncompleteReadError, ConnectionResetError, ValueError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _dispatch(
        self, writer: asyncio.StreamWriter, method: str, path: str, body: bytes
    ) -> None:
        if method == "GET" and path == "/health":
            await _respond_json(
                writer,
                200,
                {
                    "status": "ok",
                    "execution": self.execution,
                    "cache": self.cache.stats(),
                    "executor": self.executor_stats(),
                },
            )
            return
        if method == "GET" and path == "/scenarios":
            await _respond_json(writer, 200, {"scenarios": scenario_names()})
            return
        if method == "POST" and path == "/run":
            await self._handle_run(writer, body)
            return
        await _respond_json(writer, 404, {"error": f"no route {method} {path}"})

    async def _handle_run(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
            request = RunRequest.from_payload(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            await _respond_json(writer, 400, {"error": str(exc)})
            return
        try:
            get_scenario(request.scenario)
        except KeyError:
            await _respond_json(
                writer,
                404,
                {
                    "error": f"unknown scenario {request.scenario!r}",
                    "available": scenario_names(),
                },
            )
            return

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n"
            b"\r\n"
        )
        await writer.drain()

        async def write_line(line: str) -> None:
            writer.write(line.encode("utf-8") + b"\n")
            await writer.drain()

        await self.stream_run(request, write_line)

    # -- lifecycle -----------------------------------------------------------

    async def start(self, host: str, port: int) -> asyncio.AbstractServer:
        """Bind and return the listening server (``port=0`` picks a free one)."""
        return await asyncio.start_server(self.handle_connection, host, port)

    def close(self, grace_s: Optional[float] = None) -> None:
        """Shut down, cancelling in-flight runs within a bounded grace.

        Sets the shutdown flag every run scope observes (thread-tier runs
        abort at their next iteration boundary, process-tier drains mirror
        the cancel into their workers), waits up to ``grace_s`` (default:
        the configured ``shutdown_grace``) for active runs to drain, then
        abandons whatever is left rather than blocking exit on it.
        """
        grace = self.shutdown_grace if grace_s is None else float(grace_s)
        self._shutdown.set()
        deadline = time.monotonic() + max(0.0, grace)
        while time.monotonic() < deadline:
            with self._runs_lock:
                drained = self._active == 0 and self._submitted == self._completed
            if drained:
                break
            time.sleep(_POLL_SECONDS)
        self.executor.shutdown(wait=False, cancel_futures=True)
        purge_owned_segments()


class _suppress_concurrent_errors:
    """``await future`` in cleanup must never mask the original error."""

    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> bool:
        return exc_type is not None and issubclass(
            exc_type, (Exception, asyncio.CancelledError)
        )


async def _read_request_head(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str]]:
    """Parse the request line + headers; raises ``ValueError`` on garbage."""
    head = await reader.readuntil(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split()
    if len(parts) != 3:
        raise ValueError(f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return method.upper(), path, headers


async def _respond_json(
    writer: asyncio.StreamWriter, status: int, payload: Dict[str, object]
) -> None:
    reasons = {200: "OK", 400: "Bad Request", 404: "Not Found"}
    body = json.dumps(payload, default=_json_default).encode("utf-8") + b"\n"
    writer.write(
        f"HTTP/1.1 {status} {reasons.get(status, 'Error')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n"
        f"\r\n".encode("latin-1")
        + body
    )
    await writer.drain()


async def serve_forever(
    host: str,
    port: int,
    cache_dir: Path,
    max_workers: int = 8,
    execution: str = "thread",
    max_run_seconds: Optional[float] = None,
    cache_max_entries: Optional[int] = None,
    cache_max_bytes: Optional[int] = None,
    shutdown_grace: float = 10.0,
    ready_message: bool = True,
) -> None:
    """Run the service until cancelled or sent SIGTERM (the ``python -m
    repro serve`` body).

    SIGTERM drains like SIGINT: :meth:`ServeApp.close` cancels in-flight
    runs, and the function returns normally, so the interpreter's exit
    handlers shut down the shared process pool and its manager.
    """
    app = ServeApp(
        cache_dir,
        max_workers=max_workers,
        execution=execution,
        max_run_seconds=max_run_seconds,
        cache_max_entries=cache_max_entries,
        cache_max_bytes=cache_max_bytes,
        shutdown_grace=shutdown_grace,
    )
    # Installed after ServeApp forked its workers, which keep the default
    # SIGTERM action.
    loop = asyncio.get_running_loop()
    terminated = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, terminated.set)
    server = await app.start(host, port)
    try:
        bound = server.sockets[0].getsockname()
        if ready_message:
            print(f"repro serve listening on {bound[0]}:{bound[1]}", file=sys.stderr)
            sys.stderr.flush()
        async with server:
            await terminated.wait()
        print("serve: terminated, shutting down", file=sys.stderr)
    finally:
        loop.remove_signal_handler(signal.SIGTERM)
        app.close()
