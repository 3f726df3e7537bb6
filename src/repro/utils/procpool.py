"""Shared lazy process-pool helper for the process pipeline steps.

Processes are the right pool for *GIL-bound* per-block Python work (scalar
user metrics, pure-Python scoring loops), which one interpreter cannot
spread over cores.  Worker processes are expensive to start, so a single
module-level pool is shared by every process step in the engine and created
lazily on first submit.

The pool uses the ``fork`` start method where available: forked workers
start in milliseconds and inherit the parent's imports, and every fork
happens from the thread driving the engine, which runs its steps one at a
time.  Payloads cross the boundary through :mod:`repro.grid.shm` segments,
so tasks themselves only carry handles and small metadata.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.managers
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "chunk_bounds",
    "default_process_workers",
    "shared_manager",
    "shared_process_pool",
    "shutdown_shared_pool",
    "warm_shared_pool",
]

_POOL: Optional[ProcessPoolExecutor] = None
_MANAGER: Optional["multiprocessing.managers.SyncManager"] = None
_POOL_LOCK = threading.Lock()


def default_process_workers() -> int:
    """Worker count for the shared pool (same cap as the thread pools)."""
    return min(16, os.cpu_count() or 1)


def _start_context() -> multiprocessing.context.BaseContext:
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def shared_process_pool() -> ProcessPoolExecutor:
    """The process-wide worker pool, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            _POOL = ProcessPoolExecutor(
                max_workers=default_process_workers(), mp_context=_start_context()
            )
        return _POOL


def shared_manager() -> "multiprocessing.managers.SyncManager":
    """The process-wide :class:`multiprocessing.Manager`, created on first use.

    Pool tasks cannot carry raw ``multiprocessing.Queue``/``Event`` objects
    (they only cross process boundaries by inheritance), so cross-process
    control channels — the serve tier's per-run event streams and cancel
    flags — go through proxies served by this single manager process.
    """
    global _MANAGER
    with _POOL_LOCK:
        if _MANAGER is None:
            _MANAGER = multiprocessing.Manager()
        return _MANAGER


def warm_shared_pool(tasks: Optional[int] = None) -> int:
    """Spin up the shared pool's worker processes ahead of time.

    Workers fork lazily on submit; a server that first submits from a
    request thread would fork with arbitrary other threads running.  Calling
    this during single-threaded startup makes every later submit hit an
    already-forked worker.  Returns the number of distinct worker PIDs seen.
    """
    pool = shared_process_pool()
    count = default_process_workers() if tasks is None else max(1, int(tasks))
    # time.sleep keeps each warmup task busy long enough that the executor's
    # on-demand spawner starts a fresh worker for the next one.
    futures = [pool.submit(time.sleep, 0.02) for _ in range(count)]
    for future in futures:
        future.result()
    return len(pool._processes or {})


def shutdown_shared_pool() -> None:
    """Tear down the shared pool and manager (tests / interpreter exit)."""
    global _POOL, _MANAGER
    with _POOL_LOCK:
        pool, _POOL = _POOL, None
        manager, _MANAGER = _MANAGER, None
    if pool is not None:
        pool.shutdown(wait=True, cancel_futures=True)
    if manager is not None:
        manager.shutdown()


atexit.register(shutdown_shared_pool)


def chunk_bounds(n: int, nchunks: int) -> List[Tuple[int, int]]:
    """Split ``range(n)`` into at most ``nchunks`` contiguous, non-empty
    ``(lo, hi)`` slices of near-equal size (same ``np.linspace`` splitting
    the parallel steps use, so chunk boundaries never affect results)."""
    if n <= 0:
        return []
    nchunks = max(1, min(int(nchunks), n))
    bounds = np.linspace(0, n, nchunks + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
