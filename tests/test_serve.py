"""Tests for ``python -m repro serve``: streaming runs + the replay cache.

The CI serve smoke-test step runs exactly this file (with a hard step
timeout): in-process ``ServeApp`` tests cover concurrent streamed runs and
the cache-hit guarantees, and one subprocess test exercises the real
``python -m repro serve`` entry point end to end.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cm1.dataset import StoredCM1Dataset
from repro.grid.shm import live_owned_segments
from repro.io.store import DatasetStore
from repro.scenarios import get_scenario, scenario_names
from repro.serve import ReplayCache, RunRequest, ServeApp, scenario_cache_key

TINY_RUN = {"scenario": "tiny", "snapshots": 2, "percent": 40.0}

#: A field of a removed execution option: now an unknown field like any other.
REMOVED_FIELD = {"pipelined": False}


def _tiny_config(**overrides):
    return get_scenario("tiny").build(**overrides)


# -- cache key + replay cache -------------------------------------------------


class TestScenarioCacheKey:
    def test_equal_configs_share_a_key(self):
        assert scenario_cache_key(_tiny_config()) == scenario_cache_key(_tiny_config())

    def test_overrides_change_the_key(self):
        base = scenario_cache_key(_tiny_config())
        assert scenario_cache_key(_tiny_config(seed=999)) != base
        assert scenario_cache_key(_tiny_config(nsnapshots=7)) != base

    def test_key_is_filesystem_safe_and_named(self):
        key = scenario_cache_key(_tiny_config())
        assert key.startswith("tiny-")
        assert key.replace("-", "").replace("_", "").isalnum()


class TestReplayCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)
        assert not cache.peek(config)
        _, was_hit = cache.scenario_for(config)
        assert was_hit is False
        assert cache.peek(config)
        scenario, was_hit = cache.scenario_for(config)
        assert was_hit is True
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["evictions"] == 0 and stats["entries"] == 1
        # The hit replays a raw-layout store through read-only memory maps.
        assert isinstance(scenario.dataset, StoredCM1Dataset)
        store = DatasetStore(cache.store_path(config))
        assert store.layout == "raw"

    def test_hit_serves_mmap_backed_fields(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=1)
        cache.scenario_for(config)  # warm
        scenario, was_hit = cache.scenario_for(config)
        assert was_hit is True
        field = scenario.dataset.snapshot(0).get_field(config.field_name)
        # Domain validation wraps the memmap in an ndarray view; the backing
        # buffer must still be the file mapping (zero-copy, no owndata).
        assert not field.flags.owndata
        assert isinstance(field.base, np.memmap)

    def test_replayed_data_matches_live_simulation(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)
        live, _ = cache.scenario_for(config)
        replay, was_hit = cache.scenario_for(config)
        assert was_hit is True
        for index in range(config.nsnapshots):
            np.testing.assert_array_equal(
                live.dataset.snapshot(index).get_field(config.field_name),
                replay.dataset.snapshot(index).get_field(config.field_name),
            )

    def test_concurrent_identical_requests_simulate_once(self, tmp_path, monkeypatch):
        import repro.cm1.simulation as simulation

        calls = []
        original = simulation.CM1Simulation.snapshot

        def counting(self, snapshot_index):
            calls.append(snapshot_index)
            return original(self, snapshot_index)

        monkeypatch.setattr(simulation.CM1Simulation, "snapshot", counting)
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)

        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=4) as pool:
            verdicts = [
                f.result()[1]
                for f in [pool.submit(cache.scenario_for, config) for _ in range(4)]
            ]
        assert sorted(verdicts) == [False, True, True, True]
        # Exactly one simulation of each snapshot: the per-key lock made the
        # other three requests wait, then replay from disk.
        assert sorted(calls) == [0, 1]


class TestReplayCacheEviction:
    """The LRU bounds: entries/bytes accounting, pinning, and counters."""

    @pytest.mark.parametrize("kwargs", [{"max_entries": 0}, {"max_bytes": 0}])
    def test_bounds_validated(self, tmp_path, kwargs):
        with pytest.raises(ValueError):
            ReplayCache(tmp_path / "cache", **kwargs)

    def test_lru_order_evicts_least_recently_used(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache", max_entries=2)
        a = _tiny_config(nsnapshots=1)
        b = _tiny_config(nsnapshots=1, seed=101)
        c = _tiny_config(nsnapshots=1, seed=102)
        cache.scenario_for(a)
        cache.scenario_for(b)
        cache.scenario_for(a)  # touch: A becomes most recently used
        cache.scenario_for(c)  # over bound: B (LRU) must go, not A
        assert cache.peek(a) and cache.peek(c)
        assert not cache.peek(b)
        stats = cache.stats()
        assert stats["evictions"] == 1 and stats["entries"] == 2

    def test_evicted_entry_resimulates_on_return(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache", max_entries=1)
        a = _tiny_config(nsnapshots=1)
        b = _tiny_config(nsnapshots=1, seed=101)
        cache.scenario_for(a)
        cache.scenario_for(b)  # evicts A
        _, was_hit = cache.scenario_for(a)
        assert was_hit is False  # the store really was deleted
        assert cache.stats()["misses"] == 3

    def test_max_bytes_accounting_matches_raw_store(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache")
        config = _tiny_config(nsnapshots=2)
        cache.scenario_for(config)
        store = DatasetStore(cache.store_path(config))
        nbytes = store.nbytes()
        # The charged bytes are exactly the raw-layout store's on-disk size.
        assert cache.stats()["bytes"] == nbytes
        assert nbytes == sum(
            p.stat().st_size for p in store.root.rglob("*") if p.is_file()
        )
        # A bound sized for exactly one such entry holds one and evicts on
        # the second insert.
        bounded = ReplayCache(tmp_path / "bounded", max_bytes=nbytes)
        bounded.scenario_for(config)
        assert bounded.stats()["evictions"] == 0
        bounded.scenario_for(_tiny_config(nsnapshots=2, seed=77))
        stats = bounded.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1
        assert stats["bytes"] <= nbytes

    def test_never_evicts_entry_with_inflight_reader(self, tmp_path):
        cache = ReplayCache(tmp_path / "cache", max_entries=1)
        a = _tiny_config(nsnapshots=1)
        b = _tiny_config(nsnapshots=1, seed=101)
        with cache.acquire_store(a) as (store_a, _):
            # B pushes the cache over its bound while A is pinned: the only
            # evictable entry is B itself; A must survive untouched.
            cache.scenario_for(b)
            assert DatasetStore(store_a).exists()
            assert cache.peek(a)
            assert not cache.peek(b)
            assert cache.stats()["evictions"] == 1
        assert cache.peek(a)  # still present after release (cache fits now)

    def test_concurrent_bounded_replays_all_succeed(self, tmp_path):
        """Hammer a max_entries=1 cache from many threads across two
        configs: every run must stream valid data (pinned entries are never
        deleted under a reader) and the cache must end within its bound."""
        from concurrent.futures import ThreadPoolExecutor

        cache = ReplayCache(tmp_path / "cache", max_entries=1)
        configs = [
            _tiny_config(nsnapshots=1),
            _tiny_config(nsnapshots=1, seed=101),
        ]

        def replay(config):
            with cache.acquire(config) as (scenario, _):
                field = scenario.dataset.snapshot(0).get_field(config.field_name)
                return float(field.sum())

        expected = [replay(c) for c in configs]
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [
                pool.submit(replay, configs[i % 2]) for i in range(16)
            ]
            results = [f.result() for f in futures]
        for index, value in enumerate(results):
            assert value == expected[index % 2]
        assert cache.stats()["entries"] <= 1


# -- request validation -------------------------------------------------------


class TestRunRequest:
    def test_minimal_payload(self):
        request = RunRequest.from_payload({"scenario": "tiny"})
        assert request.scenario == "tiny"
        assert request.percent is None and request.target is None

    def test_full_payload(self):
        request = RunRequest.from_payload(
            {
                "scenario": "tiny", "ranks": 4, "snapshots": 3, "seed": 7,
                "metric": "VAR", "redistribution": "shuffle", "percent": 40.0,
                "target": 12.5, "render_mode": "mesh", "backend": "serial",
            }
        )
        assert request.ranks == 4 and request.backend == "serial"
        assert request.percent == 40.0 and request.target == 12.5

    def test_timeout_parsed(self):
        request = RunRequest.from_payload({"scenario": "tiny", "timeout_s": 2.5})
        assert request.timeout_s == 2.5
        assert RunRequest.from_payload({"scenario": "tiny"}).timeout_s is None

    @pytest.mark.parametrize(
        "payload",
        [
            {},  # scenario missing
            {"scenario": "  "},
            {"scenario": "tiny", "bogus_field": 1},
            {"scenario": "tiny", "metric": "NOPE"},
            {"scenario": "tiny", "redistribution": "sideways"},
            {"scenario": "tiny", "render_mode": "holo"},
            {"scenario": "tiny", "backend": "quantum"},
            {"scenario": "tiny", "timeout_s": 0},
            {"scenario": "tiny", "timeout_s": -1.5},
            {"scenario": "tiny", **REMOVED_FIELD},
            {"scenario": "tiny", "percent": 150},
            {"scenario": "tiny", "percent": -1},
            {"scenario": "tiny", "percent": float("nan")},
            {"scenario": "tiny", "target": 0},
            {"scenario": "tiny", "target": float("nan")},
            "not an object",
        ],
    )
    def test_invalid_payloads_rejected(self, payload):
        with pytest.raises(ValueError):
            RunRequest.from_payload(payload)


# -- in-process HTTP service --------------------------------------------------


@contextlib.asynccontextmanager
async def serve_app(tmp_path, **kwargs):
    app = ServeApp(tmp_path / "cache", **kwargs)
    server = await app.start("127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        yield app, port
    finally:
        server.close()
        await server.wait_closed()
        app.close()


async def _request(port, method, path, payload=None):
    """One raw HTTP exchange; returns (status, body bytes read to EOF)."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    body = b"" if payload is None else json.dumps(payload).encode("utf-8")
    writer.write(
        (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: localhost\r\nContent-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        + body
    )
    await writer.drain()
    raw = await reader.read()
    writer.close()
    with contextlib.suppress(ConnectionResetError, BrokenPipeError):
        await writer.wait_closed()
    head, _, payload_bytes = raw.partition(b"\r\n\r\n")
    status = int(head.split(b"\r\n")[0].split()[1])
    return status, payload_bytes


def _events(body: bytes):
    return [json.loads(line) for line in body.decode("utf-8").splitlines() if line]


def _assert_run_stream(events, iterations):
    """One streamed run: start, then per-iteration rows in order, then summary."""
    assert [e["type"] for e in events] == (
        ["start"] + ["iteration"] * iterations + ["summary"]
    )
    rows = [e for e in events if e["type"] == "iteration"]
    assert [row["iteration"] for row in rows] == list(range(iterations))
    for row in rows:
        assert row["nblocks"] > 0
        assert row["modelled_total"] > 0
        assert set(row["modelled_steps"]) == {
            "scoring", "sorting", "reduction", "redistribution", "rendering",
        }
    summary = events[-1]
    assert summary["run"]["iterations"] == iterations
    assert summary["config"]["engine"] in ("serial", "vectorized", "process")


class TestServeApp:
    def test_health_and_scenarios(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "GET", "/health")
                assert status == 200
                assert json.loads(raw)["status"] == "ok"
                status, raw = await _request(port, "GET", "/scenarios")
                assert status == 200
                assert json.loads(raw)["scenarios"] == list(scenario_names())

        asyncio.run(body())

    def test_unknown_route_404(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, _ = await _request(port, "GET", "/nope")
                assert status == 404

        asyncio.run(body())

    def test_unknown_scenario_404_names_available(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {"scenario": "not_a_scenario"}
                )
                assert status == 404
                payload = json.loads(raw)
                assert payload["available"] == list(scenario_names())
                assert "tiny" in payload["available"]

        asyncio.run(body())

    def test_bad_payload_400(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {"scenario": "tiny", "metric": "NOPE"}
                )
                assert status == 400
                assert "metric" in json.loads(raw)["error"]

        asyncio.run(body())

    @pytest.mark.parametrize(
        "fields, reason",
        [
            (REMOVED_FIELD, "unknown request fields"),
            ({"percent": 150}, "percent must be in [0, 100]"),
            ({"percent": -1}, "percent must be in [0, 100]"),
            ({"percent": float("nan")}, "percent must be in [0, 100]"),
            ({"target": 0}, "target must be > 0"),
        ],
    )
    def test_invalid_fields_400_before_stream(self, tmp_path, fields, reason):
        """Invalid fields get a JSON 400 with a reason — never a 200 header
        followed by a mid-stream failure."""

        async def body():
            async with serve_app(tmp_path) as (app, port):
                status, raw = await _request(
                    port, "POST", "/run", {"scenario": "tiny", **fields}
                )
                assert status == 400
                assert reason in json.loads(raw)["error"]
                assert app.executor_stats()["completed"] == 0

        asyncio.run(body())

    def test_single_run_streams_per_iteration_json(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                events = _events(raw)
                _assert_run_stream(events, iterations=2)
                assert events[0]["cache"] == "miss"
                assert events[0]["cache_key"].startswith("tiny-")

        asyncio.run(body())

    def test_four_concurrent_runs_and_single_simulation(self, tmp_path, monkeypatch):
        """The acceptance gate: >=4 concurrent tiny runs, all streamed, the
        identical ones resolved by one simulation."""
        import repro.cm1.simulation as simulation

        calls = []
        original = simulation.CM1Simulation.snapshot

        def counting(self, snapshot_index):
            calls.append(snapshot_index)
            return original(self, snapshot_index)

        monkeypatch.setattr(simulation.CM1Simulation, "snapshot", counting)

        async def body():
            async with serve_app(tmp_path, max_workers=4) as (app, port):
                results = await asyncio.gather(
                    *[_request(port, "POST", "/run", TINY_RUN) for _ in range(4)]
                )
                for status, raw in results:
                    assert status == 200
                    _assert_run_stream(_events(raw), iterations=2)
                verdicts = sorted(
                    _events(raw)[0]["cache"] for _, raw in results
                )
                assert verdicts == ["hit", "hit", "hit", "miss"]
                stats = app.cache.stats()
                assert stats["hits"] == 3 and stats["misses"] == 1

        asyncio.run(body())
        # The four concurrent identical requests simulated each snapshot once.
        assert sorted(calls) == [0, 1]

    def test_second_identical_request_replays_without_simulation(
        self, tmp_path, monkeypatch
    ):
        """After a warm run, an identical request must never re-simulate:
        the simulation is forbidden outright and the run still succeeds."""
        import repro.cm1.simulation as simulation

        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                assert _events(raw)[0]["cache"] == "miss"

                def forbidden(self, snapshot_index):
                    raise AssertionError("cache hit must not re-simulate CM1")

                monkeypatch.setattr(
                    simulation.CM1Simulation, "snapshot", forbidden
                )
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                events = _events(raw)
                assert events[0]["cache"] == "hit"
                _assert_run_stream(events, iterations=2)

        asyncio.run(body())

    def test_cached_replay_matches_live_run_bitwise(self, tmp_path):
        """The mmap replay feeds the pipeline the same numbers as the live
        simulation: identical modelled timings, block counts, and scores."""

        async def body():
            async with serve_app(tmp_path) as (_, port):
                _, first = await _request(port, "POST", "/run", TINY_RUN)
                _, second = await _request(port, "POST", "/run", TINY_RUN)
                rows = lambda raw: [
                    e for e in _events(raw) if e["type"] == "iteration"
                ]
                assert rows(first) == rows(second)

        asyncio.run(body())

    def test_different_overrides_miss_separately(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (app, port):
                await _request(port, "POST", "/run", TINY_RUN)
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "seed": 1234}
                )
                assert status == 200
                assert _events(raw)[0]["cache"] == "miss"
                assert app.cache.stats()["misses"] == 2

        asyncio.run(body())

    def test_run_error_streams_error_event(self, tmp_path, monkeypatch):
        """A failure mid-run surfaces as a streamed error event, not a hang."""
        import repro.cm1.simulation as simulation

        def explode(self, snapshot_index):
            raise RuntimeError("synthetic failure")

        monkeypatch.setattr(simulation.CM1Simulation, "snapshot", explode)

        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "exception"
                assert "synthetic failure" in events[-1]["error"]

        asyncio.run(body())

    def test_health_reports_executor_depth(self, tmp_path):
        async def body():
            async with serve_app(tmp_path, max_workers=3) as (_, port):
                _, raw = await _request(port, "GET", "/health")
                executor = json.loads(raw)["executor"]
                assert executor == {
                    "execution": "thread",
                    "workers": 3,
                    "active": 0,
                    "queued": 0,
                    "completed": 0,
                }
                await _request(port, "POST", "/run", TINY_RUN)
                _, raw = await _request(port, "GET", "/health")
                health = json.loads(raw)
                assert health["execution"] == "thread"
                assert health["executor"]["completed"] == 1
                assert health["executor"]["active"] == 0
                assert health["cache"]["misses"] == 1

        asyncio.run(body())

    def test_request_timeout_streams_timeout_error(self, tmp_path):
        """A tiny ``timeout_s`` cancels the run with the distinct reason —
        and the cancelled run leaves no owned shm segments behind."""

        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 1e-4}
                )
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "timeout"
                assert "deadline" in events[-1]["error"]

        asyncio.run(body())
        assert live_owned_segments() == ()

    def test_server_side_max_run_seconds_caps_requests(self, tmp_path):
        """The server cap applies even when the request asks for longer."""

        async def body():
            async with serve_app(tmp_path, max_run_seconds=1e-4) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 3600.0}
                )
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "timeout"

        asyncio.run(body())

    def test_generous_timeout_does_not_fire(self, tmp_path):
        async def body():
            async with serve_app(tmp_path) as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 3600.0}
                )
                assert status == 200
                _assert_run_stream(_events(raw), iterations=2)

        asyncio.run(body())

    def test_close_cancels_inflight_run_within_grace(self, tmp_path, monkeypatch):
        """Shutdown mid-run: the in-flight run aborts at its next iteration
        boundary with a ``shutdown`` error event and ``close`` returns well
        inside its grace period instead of waiting the run out."""
        from repro.metrics.statistics import VarianceMetric

        original = VarianceMetric.score_block

        def slow(self, data):
            time.sleep(0.05)
            return original(self, data)

        monkeypatch.setattr(VarianceMetric, "score_block", slow)

        async def body():
            app = ServeApp(tmp_path / "cache")
            server = await app.start("127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            loop = asyncio.get_running_loop()
            async with server:
                # 12 snapshots x 64 blocks x 50 ms: minutes of run if not
                # cancelled.  backend=serial routes scoring through the
                # patched scalar path.
                request = asyncio.ensure_future(
                    _request(
                        port,
                        "POST",
                        "/run",
                        {
                            "scenario": "tiny",
                            "snapshots": 12,
                            "backend": "serial",
                        },
                    )
                )
                deadline = time.monotonic() + 60
                while time.monotonic() < deadline:
                    _, raw = await _request(port, "GET", "/health")
                    if json.loads(raw)["executor"]["active"] > 0:
                        break
                    await asyncio.sleep(0.02)
                start = time.monotonic()
                await loop.run_in_executor(None, app.close, 30.0)
                close_seconds = time.monotonic() - start
                status, raw = await request
                return close_seconds, _events(raw)

        close_seconds, events = asyncio.run(body())
        assert close_seconds < 15.0, (
            f"close() took {close_seconds:.1f}s; the in-flight run was not "
            f"cancelled cooperatively"
        )
        assert events[-1]["type"] == "error"
        assert events[-1]["reason"] == "shutdown"


class TestServeAppProcessTier:
    """The process execution tier, in-process (fork-started pool workers)."""

    def test_streams_identically_to_thread_tier(self, tmp_path):
        """Same request, both tiers: identical iteration rows and summary
        (only the start event's execution/cache fields may differ)."""

        async def run_tier(execution, cache_root):
            async with serve_app(
                cache_root, execution=execution, max_workers=2
            ) as (_, port):
                status, raw = await _request(port, "POST", "/run", TINY_RUN)
                assert status == 200
                return _events(raw)

        process_events = asyncio.run(run_tier("process", tmp_path / "p"))
        thread_events = asyncio.run(run_tier("thread", tmp_path / "t"))
        assert process_events[0]["execution"] == "process"
        _assert_run_stream(process_events, iterations=2)

        def comparable(events):
            rows = [dict(e) for e in events[1:]]
            for row in rows:
                row.pop("cache", None)
            return rows

        assert comparable(process_events) == comparable(thread_events)

    def test_cache_hit_and_health_depth(self, tmp_path):
        async def body():
            async with serve_app(
                tmp_path, execution="process", max_workers=2
            ) as (_, port):
                _, first = await _request(port, "POST", "/run", TINY_RUN)
                _, second = await _request(port, "POST", "/run", TINY_RUN)
                assert _events(first)[0]["cache"] == "miss"
                assert _events(second)[0]["cache"] == "hit"
                _, raw = await _request(port, "GET", "/health")
                health = json.loads(raw)
                assert health["execution"] == "process"
                assert health["executor"]["execution"] == "process"
                assert health["executor"]["workers"] >= 1
                assert health["executor"]["completed"] == 2
                assert health["cache"]["hits"] == 1

        asyncio.run(body())

    def test_timeout_cancels_worker_without_leaking_shm(self, tmp_path):
        async def body():
            async with serve_app(tmp_path, execution="process") as (_, port):
                status, raw = await _request(
                    port, "POST", "/run", {**TINY_RUN, "timeout_s": 1e-4}
                )
                assert status == 200
                events = _events(raw)
                assert events[-1]["type"] == "error"
                assert events[-1]["reason"] == "timeout"

        asyncio.run(body())
        assert live_owned_segments() == ()


# -- the real subprocess entry point ------------------------------------------


def _spawn_serve(env, *extra_args, new_session=False):
    """Start ``python -m repro serve`` and return ``(proc, port)``.

    ``new_session=True`` makes the server lead its own process group, so a
    test can find every process it left behind.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        stderr=subprocess.PIPE, text=True, env=env, start_new_session=new_session,
    )
    port = None
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        line = proc.stderr.readline()
        if not line and proc.poll() is not None:
            pytest.fail(f"serve exited early (rc={proc.returncode})")
        if "repro serve listening on" in line:
            port = int(line.rsplit(":", 1)[1])
            break
    assert port is not None, "server never reported its port"
    return proc, port


def _post_run_events(port, payload, timeout=120):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}/run",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=timeout) as response:
        assert response.status == 200
        return _events(response.read())


def _group_members(pgid):
    """PIDs of live (non-zombie) processes in process group ``pgid``."""
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


def _shm_segments():
    """Names of the POSIX shared-memory segments Python created."""
    try:
        return {p.name for p in Path("/dev/shm").iterdir() if p.name.startswith("psm_")}
    except OSError:
        return set()


def _get_json(port, path, timeout=30):
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=timeout
    ) as response:
        assert response.status == 200
        return json.loads(response.read())


class TestServeSubprocess:
    @pytest.fixture()
    def env(self):
        src_dir = Path(repro.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src_dir)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        return env

    def test_serve_cli_streams_and_caches(self, env, tmp_path):
        proc, port = _spawn_serve(
            env, "--cache-dir", str(tmp_path / "cache"), "--workers", "2"
        )
        try:
            events = _post_run_events(port, TINY_RUN)
            _assert_run_stream(events, iterations=2)
            assert events[0]["cache"] == "miss"
            events = _post_run_events(port, TINY_RUN)
            _assert_run_stream(events, iterations=2)
            assert events[0]["cache"] == "hit"
            assert events[-1]["cache"]["hits"] == 1
            assert events[-1]["cache"]["misses"] == 1
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_process_tier_with_bounded_cache_evicts(self, env, tmp_path):
        """The CI smoke: ``--execution process --cache-max-entries 1``,
        three requests (two identical), an eviction visible in /health."""
        proc, port = _spawn_serve(
            env,
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "2",
            "--execution", "process",
            "--cache-max-entries", "1",
        )
        try:
            health = _get_json(port, "/health")
            assert health["execution"] == "process"
            assert health["cache"]["max_entries"] == 1

            first = _post_run_events(port, TINY_RUN)
            _assert_run_stream(first, iterations=2)
            assert first[0]["cache"] == "miss"
            other = {**TINY_RUN, "seed": 4242}
            evicting = _post_run_events(port, other)
            assert evicting[0]["cache"] == "miss"
            repeat = _post_run_events(port, other)
            assert repeat[0]["cache"] == "hit"

            health = _get_json(port, "/health")
            assert health["cache"]["evictions"] >= 1
            assert health["cache"]["entries"] == 1
            assert health["cache"]["hits"] >= 1
            assert health["executor"]["execution"] == "process"
            assert health["executor"]["completed"] == 3
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_sigterm_drains_process_tier(self, env, tmp_path):
        """SIGTERM drains like SIGINT: exit code 0, the pool workers and the
        manager exit with the server, and no shared-memory segment is left."""
        import signal

        segments_before = _shm_segments()
        proc, port = _spawn_serve(
            env,
            "--cache-dir", str(tmp_path / "cache"),
            "--workers", "2",
            "--execution", "process",
            new_session=True,
        )
        pgid = proc.pid
        try:
            _assert_run_stream(_post_run_events(port, TINY_RUN), iterations=2)
            assert len(_group_members(pgid)) > 1  # the pool is running
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=30) == 0
            deadline = time.monotonic() + 5.0
            while _group_members(pgid) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert _group_members(pgid) == []
            assert _shm_segments() - segments_before == set()
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
            with contextlib.suppress(ProcessLookupError):
                os.killpg(pgid, signal.SIGKILL)

    def test_sigint_mid_run_exits_promptly(self, env, tmp_path):
        """The shutdown fix: SIGINT while a run is streaming must cancel the
        run at its next iteration boundary and exit inside the grace period,
        not wait out the remaining iterations (or hang in executor teardown).
        """
        import signal
        import socket as socket_module

        proc, port = _spawn_serve(
            env,
            "--cache-dir", str(tmp_path / "cache"),
            "--shutdown-grace", "15",
        )
        try:
            # Warm the cache with the cheap vectorised metric: the cache key
            # is the scenario config, so the slow PYVAR run below replays
            # the same snapshots as a hit and spends its time purely in
            # GIL-bound scoring across many iterations.
            long_run = {"scenario": "tiny", "snapshots": 150}
            warm = _post_run_events(port, long_run, timeout=180)
            assert warm[0]["cache"] == "miss"

            with socket_module.create_connection(
                ("127.0.0.1", port), timeout=60
            ) as sock:
                body = json.dumps({**long_run, "metric": "PYVAR"}).encode()
                sock.sendall(
                    (
                        f"POST /run HTTP/1.1\r\nHost: t\r\n"
                        f"Content-Length: {len(body)}\r\n\r\n"
                    ).encode()
                    + body
                )
                # Wait until the run is demonstrably streaming iterations.
                seen = b""
                while seen.count(b'"iteration"') < 3:
                    chunk = sock.recv(4096)
                    assert chunk, "stream closed before iterations arrived"
                    seen += chunk
                proc.send_signal(signal.SIGINT)
                start = time.monotonic()
                rest = b""
                while True:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    rest += chunk

            rc = proc.wait(timeout=20)
            exit_seconds = time.monotonic() - start
            assert exit_seconds < 15.0, (
                f"serve took {exit_seconds:.1f}s to exit after SIGINT mid-run"
            )
            assert rc == 0
            # The interrupted stream ended early — nowhere near the 150
            # iterations a full run streams.
            total = seen + rest
            assert total.count(b'"iteration"') < 140
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
