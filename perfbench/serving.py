"""The serve workloads: closed-loop ``POST /run`` clients against ``repro serve``.

The harness owns the server's whole life: it starts ``python -m repro serve``
(or the traced launcher) on port 0 in a session of its own, reads the port
from the ``listening on`` line, and stops it with SIGINT, the supported drain
path, with a bounded wait.  A server that does not exit, leaves a process in
its process group, or leaves a shared-memory segment in ``/dev/shm`` is
killed or cleaned up, and the run counts as failed.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import spans

#: Closed-loop client connections (the box has two CPUs).
CLIENTS = 2

#: Seconds a stopped server may take to drain and exit.
STOP_TIMEOUT_S = 30.0

#: Seconds a server may take to print its ``listening on`` line.
START_TIMEOUT_S = 60.0

SHM_DIR = Path("/dev/shm")


@dataclass(frozen=True)
class ServeWorkload:
    server_args: tuple
    #: Request body without its ``seed``, which the harness derives.
    payload: dict
    #: Cache verdict every measured request must report.
    expect_cache: str
    #: Whether each request gets a fresh seed (and so misses the cache).
    fresh_seeds: bool


WORKLOADS: Dict[str, ServeWorkload] = {
    "serve_replay": ServeWorkload(
        server_args=(),
        payload={
            "scenario": "blue_waters_64",
            "snapshots": 4,
            "percent": 50,
            "redistribution": "shuffle",
        },
        expect_cache="hit",
        fresh_seeds=False,
    ),
    "serve_cold": ServeWorkload(
        server_args=("--execution", "process", "--cache-max-entries", "2"),
        payload={"scenario": "squall_line", "percent": 50, "redistribution": "shuffle"},
        expect_cache="miss",
        fresh_seeds=True,
    ),
}


def _shm_segments() -> set:
    try:
        return {p.name for p in SHM_DIR.iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def _group_members(pgid: int) -> List[int]:
    """PIDs of live processes whose process group is ``pgid``."""
    members = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(int(entry.name))
    return members


def _peak_rss_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


class Server:
    """One ``repro serve`` process group started by the harness."""

    def __init__(self, argv: List[str], env: dict, cwd: Path) -> None:
        self.shm_before = _shm_segments()
        self.proc = subprocess.Popen(
            argv,
            cwd=str(cwd),
            env=env,
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        self.stderr: List[str] = []
        self._ready = threading.Event()
        self.port: Optional[int] = None
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._ready.wait(START_TIMEOUT_S) or self.port is None:
            self.stop()
            raise RuntimeError("server did not start: " + "".join(self.stderr[-20:]))

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self.stderr.append(line)
            if self.port is None and "listening on" in line:
                self.port = int(line.strip().rsplit(":", 1)[1])
                self._ready.set()
        self._ready.set()

    def tree_peak_rss_mb(self) -> float:
        return sum(_peak_rss_kb(pid) for pid in _group_members(self.proc.pid)) / 1024.0

    def stop(self) -> List[str]:
        """SIGINT, bounded wait, then leak checks; returns the problems found."""
        problems = []
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
        try:
            code = self.proc.wait(STOP_TIMEOUT_S)
            if code != 0:
                problems.append(f"server exited with {code}")
        except subprocess.TimeoutExpired:
            problems.append("server ignored SIGINT")
        deadline = time.monotonic() + 5.0
        while _group_members(pgid) and time.monotonic() < deadline:
            time.sleep(0.05)
        leftover = _group_members(pgid)
        if leftover:
            problems.append(f"processes left in the server's group: {leftover}")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        try:
            self.proc.wait(10)
        except subprocess.TimeoutExpired:
            problems.append("server survived SIGKILL")
        self._reader.join(10)
        segments = _shm_segments() - self.shm_before
        if segments:
            problems.append(f"shared-memory segments left: {sorted(segments)}")
            for name in segments:
                try:
                    (SHM_DIR / name).unlink()
                except OSError:
                    pass
        return problems


def post_run(port: int, payload: dict) -> dict:
    """One ``POST /run``; returns status and events stamped on arrival."""
    body = json.dumps(payload).encode("utf-8")
    sent = time.perf_counter()
    events = []
    status = ""
    with socket.create_connection(("127.0.0.1", port), timeout=120) as sock:
        sock.sendall(
            b"POST /run HTTP/1.1\r\nHost: perfbench\r\n"
            + f"Content-Length: {len(body)}\r\n\r\n".encode("ascii")
            + body
        )
        stream = sock.makefile("rb")
        status = stream.readline().decode("latin-1").strip()
        while stream.readline().strip():
            pass
        for line in stream:
            if line.strip():
                events.append((time.perf_counter(), json.loads(line)))
    return {"payload": payload, "sent": sent, "status": status, "events": events}


def get_json(port: int, path: str) -> dict:
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n".encode("ascii"))
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
    return json.loads(data.partition(b"\r\n\r\n")[2])


def _seed_of(seed: int, client: int, index: int) -> int:
    """Request seed of a workload seed; index < 0 marks warm-up requests."""
    return 1_000_000 + seed * 10_000 + client * 1_000 + index + 100


def _payload(spec: ServeWorkload, seed: int, client: int, index: int) -> dict:
    request_seed = _seed_of(seed, client, index) if spec.fresh_seeds else seed + 1
    return {**spec.payload, "seed": request_seed}


def _check(reply: dict, expect_cache: str) -> List[str]:
    problems = []
    kinds = [event.get("type") for _, event in reply["events"]]
    if not reply["status"].startswith("HTTP/1.1 200"):
        problems.append(f"status {reply['status']!r}")
    if "error" in kinds:
        problems.append("error event")
    if not kinds or kinds[-1] != "summary":
        problems.append("no summary event")
    if not kinds or kinds[0] != "start":
        problems.append("no start event")
    elif reply["events"][0][1].get("cache") != expect_cache:
        problems.append(f"cache {reply['events'][0][1].get('cache')!r}, expected {expect_cache!r}")
    return problems


def _iteration_rows(reply: dict) -> List[dict]:
    return [
        {k: v for k, v in event.items() if k != "type"}
        for _, event in reply["events"]
        if event.get("type") == "iteration"
    ]


def _config(payload: dict):
    """The scenario config the server resolves ``payload`` to."""
    from repro.scenarios import get_scenario

    return get_scenario(payload["scenario"]).build(
        ncores=payload.get("ranks"), nsnapshots=payload.get("snapshots"), seed=payload.get("seed")
    )


def reference_rows(payload: dict) -> List[dict]:
    """The rows the in-process pipeline produces for ``payload``."""
    from repro.core.config import AdaptationConfig
    from repro.experiments.common import ExperimentScenario
    from repro.serve.procrun import iteration_row

    scenario = ExperimentScenario(_config(payload))
    adaptation = None
    if payload.get("target") is not None:
        adaptation = AdaptationConfig(enabled=True, target_seconds=float(payload["target"]))
    pipeline = scenario.build_pipeline(
        metric=payload.get("metric", "VAR"),
        redistribution=payload.get("redistribution", "none"),
        adaptation=adaptation,
        render_mode=payload.get("render_mode", "count"),
        engine=payload.get("backend"),
    )
    rows: List[dict] = []
    percent = payload.get("percent")
    pipeline.run(
        scenario.iteration_blocks(),
        percent_override=None if percent is None else float(percent),
        on_iteration=lambda result: rows.append(iteration_row(result)),
    )
    return json.loads(json.dumps(rows))


class _Phase:
    """One server's set-up plus measuring window."""

    def __init__(self, root: Path, work: Path, spec: ServeWorkload, seed: int,
                 traced: bool, tag: str) -> None:
        self.spec, self.seed = spec, seed
        self.dir = work / tag
        self.dir.mkdir(parents=True, exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        serve = ["serve", "--port", "0", "--cache-dir", str(self.dir / "cache"),
                 *spec.server_args]
        if traced:
            self.spans_dir = self.dir / "spans"
            self.spans_dir.mkdir(exist_ok=True)
            argv = [sys.executable, str(Path(__file__).with_name("launcher.py")),
                    str(self.spans_dir), *serve]
        else:
            argv = [sys.executable, "-m", "repro", *serve]
        self.problems: List[str] = []
        self.by_client: List[List[dict]] = []
        self.replies: List[dict] = []
        t0 = time.perf_counter()
        self.server = Server(argv, env, root)
        try:
            self.warm()
        except BaseException:
            self.server.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def warm(self) -> None:
        """Fill the cache (replay) or warm the workers (cold) before timing."""
        if self.spec.fresh_seeds:
            payloads = [_payload(self.spec, self.seed, c, -1) for c in range(CLIENTS)]
        else:
            payloads = [_payload(self.spec, self.seed, 0, -1)]
        replies = _concurrently([lambda p=p: post_run(self.server.port, p) for p in payloads])
        for reply in replies:
            problems = _check(reply, "miss")
            if problems:
                raise RuntimeError(f"warm-up request failed: {problems}")

    def measure(self, seconds: float) -> None:
        before = get_json(self.server.port, "/health")["cache"]
        self.start = time.perf_counter()
        deadline = self.start + seconds

        # Both clients send in rounds: each round starts when both previous
        # requests have finished, so the two always contend in the same way
        # instead of drifting in and out of phase from run to run.
        go = [True]

        def decide() -> None:
            go[0] = time.perf_counter() < deadline

        barrier = threading.Barrier(CLIENTS, action=decide)

        def client(c: int) -> List[dict]:
            replies = []
            while True:
                barrier.wait(timeout=300)
                if not go[0]:
                    return replies
                payload = _payload(self.spec, self.seed, c, len(replies))
                try:
                    replies.append(post_run(self.server.port, payload))
                except (OSError, ValueError) as exc:
                    replies.append({"payload": payload, "sent": time.perf_counter(),
                                    "status": f"client error: {exc}", "events": []})

        self.by_client = _concurrently([lambda c=c: client(c) for c in range(CLIENTS)])
        self.replies = [r for replies in self.by_client for r in replies]
        self.elapsed = max(r["events"][-1][0] if r["events"] else r["sent"] for r in self.replies) - self.start
        after = get_json(self.server.port, "/health")["cache"]
        self.cache_delta = {k: after[k] - before[k] for k in ("hits", "misses", "evictions")}
        self.tree_rss_mb = self.server.tree_peak_rss_mb()

    def stop(self) -> None:
        self.problems.extend(self.server.stop())

    def dumps(self) -> List[dict]:
        paths = sorted(self.spans_dir.glob("*.json")) + sorted(self.spans_dir.glob("*.jsonl"))
        return spans.load_dumps(paths)


def _concurrently(calls) -> list:
    results: list = [None] * len(calls)
    errors: list = []

    def target(i, call):
        try:
            results[i] = call()
        except BaseException as exc:  # re-raised on the harness thread
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(i, c)) for i, c in enumerate(calls)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


def _timings(by_client: List[List[dict]]) -> dict:
    """Latency samples of one window.

    The two requests of a round race for admission, so per-request latency
    is bimodal and a median over requests falls between the modes.  The
    headline samples (``ttfe_ms``, ``request_ms``, ``iter_ms``) are therefore
    per-round means; the per-layer samples stay per request.
    """
    out = {"ttfe_ms": [], "request_ms": [], "iter_ms": [], "admit_ms": [],
           "first_iter_ms": [], "gap_ms": []}
    for round_replies in zip(*by_client):
        per_round = defaultdict(list)
        for reply in round_replies:
            events = reply["events"]
            stamps = [t for t, e in events if e.get("type") == "iteration"]
            starts = [t for t, e in events if e.get("type") == "start"]
            summary = [t for t, e in events if e.get("type") == "summary"]
            if not (stamps and starts and summary):
                continue
            sent = reply["sent"]
            per_round["ttfe_ms"].append((stamps[0] - sent) * 1e3)
            per_round["request_ms"].append((summary[0] - sent) * 1e3)
            per_round["iter_ms"].append((summary[0] - sent) * 1e3 / len(stamps))
            out["admit_ms"].append((starts[0] - sent) * 1e3)
            out["first_iter_ms"].append((stamps[0] - starts[0]) * 1e3)
            out["gap_ms"].extend((b - a) * 1e3 for a, b in zip(stamps, stamps[1:]))
        for name, values in per_round.items():
            out[name].append(sum(values) / len(values))
    return out


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, work: Path) -> dict:
    """Run one serve workload; returns the benchmark's result fields."""
    spec = WORKLOADS[name]
    phases: List[_Phase] = []
    setups: List[float] = []
    try:
        if trace:
            # Paired phases: untraced server, then the traced launcher.
            plain = _Phase(root, work, spec, seed, False, "plain")
            phases.append(plain)
            plain.measure(seconds)
            plain.stop()
            measured = _Phase(root, work, spec, seed, True, "traced")
            phases.append(measured)
        else:
            for k in range(3):
                phase = _Phase(root, work, spec, seed, False, f"setup{k}")
                phases.append(phase)
                setups.append(phase.setup_s)
                if k < 2:
                    phase.stop()
            measured = phases[-1]
        measured.measure(seconds)
        peak_rss_mb = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 + measured.tree_rss_mb
        )
    finally:
        for phase in phases:
            if phase.server.proc.returncode is None:
                phase.stop()

    # Output checks, outside the window and outside set-up.
    problems = [p for phase in phases for p in phase.problems]
    lifecycle_failed = len(problems)
    replies = [r for phase in phases for r in phase.replies]
    failed = 0
    references: Dict[int, List[dict]] = {}
    for phase in phases:
        for client, client_replies in enumerate(phase.by_client):
            for index, reply in enumerate(client_replies):
                found = _check(reply, spec.expect_cache)
                # Replay requests are all identical, so every one is checked
                # against the in-process rows; cold requests each carry their
                # own seed, so the first request of client 0 is.
                if not spec.fresh_seeds or (client == 0 and index == 0):
                    seed_key = reply["payload"]["seed"]
                    if seed_key not in references:
                        references[seed_key] = reference_rows(reply["payload"])
                    if _iteration_rows(reply) != references[seed_key]:
                        found.append("iteration rows differ from the in-process rows")
                if found:
                    failed += 1
                    problems.append(f"request {reply['payload']}: {found}")
    timings = _timings(measured.by_client)
    iterations = sum(len(_iteration_rows(r)) for r in measured.replies)
    result = {
        "attempted": len(replies) + len(phases),
        "failed": failed + lifecycle_failed,
        "problems": problems,
        "samples": {k: timings[k] for k in ("iter_ms", "ttfe_ms", "request_ms")},
        "iterations": iterations,
        "requests": len(measured.replies),
        "elapsed_s": measured.elapsed,
        "setup_s": spans.p50(setups) if setups else measured.setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        from repro.serve.cache import scenario_cache_key

        first = measured.by_client[0][0]
        delta = measured.cache_delta
        lookups = delta["hits"] + delta["misses"]
        result["trace"] = {
            "dumps": measured.dumps(),
            "window_start_ns": int(measured.start * 1e9),
            "first_request_key": scenario_cache_key(_config(first["payload"])),
            "identical_requests": not spec.fresh_seeds,
            "overhead_frac": spans.p50(timings["request_ms"])
            / spans.p50(_timings(phases[0].by_client)["request_ms"])
            - 1.0,
            "client": {
                "serve.admit.ms": spans.p50(timings["admit_ms"]),
                "serve.first_iter.ms": spans.p50(timings["first_iter_ms"]),
                "serve.stream_gap.ms": spans.p50(timings["gap_ms"]),
                "serve.cache.hit_ratio": delta["hits"] / lookups if lookups else 0.0,
                "serve.cache.evictions": delta["evictions"] / lookups if lookups else 0.0,
            },
            "client_events": [
                {"name": "client.request", "cat": "client", "ph": "X",
                 "ts": r["sent"] * 1e6, "dur": (r["events"][-1][0] - r["sent"]) * 1e6,
                 "pid": os.getpid(), "tid": i, "args": {"seed": r["payload"]["seed"]}}
                for i, r in enumerate(measured.replies) if r["events"]
            ],
        }
    for phase in phases:
        shutil.rmtree(phase.dir / "cache", ignore_errors=True)
    return result
