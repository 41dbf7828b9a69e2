"""Fork-based process-pool executor with deterministic semantics.

The engine behind ``--jobs N``: it shards a list of independent tasks
(experiment figures, per-trainer epoch lanes, serving sweep points)
across worker processes while keeping every observable output —
results, per-task random streams, merged metrics — **independent of the
job count**. ``jobs=4`` must be a pure wall-clock optimization; the
determinism tests in ``tests/test_parallel.py`` hold it to that.

How jobs-independence is achieved:

* **Per-task seeding.** Each task's RNG derives from
  ``(seed, task_index)`` via :func:`task_rng`, never from the worker
  that happens to run it.
* **Inherited closures, queued indices.** Workers are forked, so the
  function and items are inherited memory — only *chunk indices* go to
  workers and only results come back. This lets callers pass closures
  over datasets without pickling either.
* **Ordered metric folding.** Every chunk — serial or parallel — runs
  against a fresh worker-side :class:`~repro.obs.registry.MetricsRegistry`
  whose snapshot the parent merges *in chunk order* after all chunks
  finish. The serial fallback runs the exact same fresh-registry
  chunk protocol, so ``jobs=1`` and ``jobs=N`` fold identical
  floating-point sums in identical order.

Results travel as pickled bytes over each worker's own pipe; lane
records and experiment results are a few KB of control data. The parent
counts every byte in ``repro_parallel_ipc_bytes_total`` (task indices,
results and metric snapshots), also exposed per-map on
:attr:`ParallelExecutor.last_transport`. That counter is the one
deliberate exception to the jobs-determinism contract — it measures the
transport itself, so it is zero under the serial fallback; comparisons
across job counts strip it with :func:`strip_transport_metrics`.

The serial fallback engages when ``jobs <= 1``, when the platform lacks
the ``fork`` start method (the executor never pickles the task
function, so ``spawn`` cannot substitute), or when there is at most one
chunk of work.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import pickle
import traceback
from dataclasses import dataclass

import numpy as np

from repro.errors import ParallelTaskError, WorkerCrashError
from repro.faults import get_fault_plan
from repro.obs.exporters import to_snapshot
from repro.obs.registry import MetricsRegistry, get_registry, set_registry

#: Exit code an injected worker crash dies with (keeps real segfaults,
#: which report negative signal codes, distinguishable in logs).
CRASH_EXIT_CODE = 73

#: How often (seconds) the supervisor checks worker liveness while
#: waiting for results.
_LIVENESS_POLL_S = 0.05

#: Metric names that measure the transport layer itself. They are the
#: deliberate exception to jobs-determinism (serial runs move zero IPC
#: bytes); strip them before comparing metrics across job counts.
TRANSPORT_METRICS = ("repro_parallel_ipc_bytes_total",)


def strip_transport_metrics(flat: dict) -> dict:
    """A copy of a flat metrics mapping without the transport counters
    (:data:`TRANSPORT_METRICS`) — the keys that legitimately differ
    between job counts."""
    return {
        key: value for key, value in flat.items()
        if not any(key.startswith(name) for name in TRANSPORT_METRICS)
    }


@dataclass
class TransportStats:
    """What one ``map`` call moved, and how.

    ``mode`` is ``serial`` (no transport) or ``pipes`` (pickle over the
    worker pipes); ``ipc_bytes`` counts every byte on those pipes.
    """

    mode: str = "serial"
    ipc_bytes: int = 0


def fork_available() -> bool:
    """Whether the ``fork`` start method exists on this platform."""
    return "fork" in mp.get_all_start_methods()


def resolve_jobs(jobs: int | None) -> int:
    """Normalize a ``--jobs`` value: ``None``/``0`` mean all cores,
    negatives raise, anything else passes through."""
    if jobs is None or jobs == 0:
        return os.cpu_count() or 1
    jobs = int(jobs)
    if jobs < 0:
        raise ValueError("jobs must be >= 0 (0 = all cores)")
    return jobs


def task_rng(seed: int, index: int) -> np.random.Generator:
    """The deterministic per-task generator: seeded by the pair
    ``(seed, index)``, so it depends only on which task this is — not on
    the worker, the chunking, or the job count."""
    return np.random.default_rng(np.random.SeedSequence([int(seed),
                                                         int(index)]))


def _run_chunk(fn, items, start_index, seed, obs_enabled):
    """Run one chunk under a fresh registry; return (values, snapshot).

    Both the serial path and the forked workers funnel through this, so
    the metric-folding structure is identical in both modes — and so is
    the failure contract: any task exception surfaces as a
    :class:`~repro.errors.ParallelTaskError` carrying the global task
    index and the map seed.
    """
    parent = get_registry()
    registry = MetricsRegistry(enabled=obs_enabled)
    set_registry(registry)
    try:
        values = []
        for offset, item in enumerate(items):
            task_index = start_index + offset
            try:
                if seed is None:
                    values.append(fn(item))
                else:
                    values.append(fn(item, task_rng(seed, task_index)))
            except ParallelTaskError:
                raise
            except Exception as exc:
                raise ParallelTaskError(task_index, seed,
                                        repr(exc)) from exc
    finally:
        set_registry(parent)
    # Snapshot only when there is something to fold: skip when obs is
    # off, when a task disabled the chunk registry mid-run, and when no
    # metric was touched — an empty snapshot pickles to real pipe bytes
    # per chunk and merges as a no-op, so dropping it is free and
    # bit-identical.
    snapshot = None
    if obs_enabled and registry.enabled:
        candidate = to_snapshot(registry)
        if candidate["metrics"]:
            snapshot = candidate
    return values, snapshot


def _dumps(message) -> bytes:
    return pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)


class ParallelExecutor:
    """Chunked, deterministic ``map`` over forked worker processes.

    ``jobs`` is the worker count (after :func:`resolve_jobs`);
    ``chunk_size`` tasks are dispatched per worker round-trip. The
    default ``chunk_size=1`` maximizes load balance and makes the
    metric fold order exactly the task order; raise it when per-task
    work is tiny relative to queue overhead.
    """

    def __init__(self, jobs: int | None = 1, chunk_size: int = 1,
                 max_crashes: int = 2) -> None:
        self.jobs = resolve_jobs(jobs)
        if chunk_size < 1:
            raise ValueError("chunk_size must be >= 1")
        if max_crashes < 1:
            raise ValueError("max_crashes must be >= 1")
        self.chunk_size = int(chunk_size)
        #: Times one chunk may lose its worker before
        #: :class:`~repro.errors.WorkerCrashError` is raised.
        self.max_crashes = int(max_crashes)
        #: Transport accounting of the most recent :meth:`map` call.
        self.last_transport = TransportStats()

    # -- public API --------------------------------------------------------
    def map(self, fn, items, seed: int | None = None,
            merge_obs: bool = True) -> list:
        """Apply ``fn`` to every item; results in item order.

        With ``seed`` set, ``fn`` is called as ``fn(item, rng)`` where
        ``rng`` is :func:`task_rng`'s generator for the task's global
        index; without it, as ``fn(item)``. Worker-side metric
        snapshots are merged into the parent registry in chunk order
        unless ``merge_obs=False``. Exceptions in any task propagate
        (wrapped with the worker traceback when forked).
        """
        items = list(items)
        self.last_transport = TransportStats()
        if not items:
            return []
        registry = get_registry()
        obs_enabled = bool(registry.enabled) and merge_obs
        chunks = [
            items[i:i + self.chunk_size]
            for i in range(0, len(items), self.chunk_size)
        ]
        workers = min(self.jobs, len(chunks))
        if workers <= 1 or not fork_available():
            outcomes = [
                _run_chunk(fn, chunk, i * self.chunk_size, seed, obs_enabled)
                for i, chunk in enumerate(chunks)
            ]
        else:
            outcomes = self._map_forked(fn, chunks, seed, obs_enabled,
                                        workers)
            if registry.enabled:
                registry.counter(
                    "repro_parallel_ipc_bytes_total",
                    "Bytes moved through executor pipes (task indices, "
                    "results, metric snapshots)",
                ).inc(self.last_transport.ipc_bytes)
        results: list = []
        for values, snapshot in outcomes:
            results.extend(values)
            if snapshot is not None:
                registry.merge(snapshot)
        return results

    # -- forked pool -------------------------------------------------------
    def _map_forked(self, fn, chunks, seed, obs_enabled, workers) -> list:
        """Supervised worker pool: the parent dispatches one chunk at a
        time to each worker's private inbox, so it always knows which
        chunk a worker holds, and each worker returns results on its own
        pipe. Per-worker pipes (rather than one shared result queue) are
        what makes the pool crash-safe: ``Connection.send`` has no
        feeder thread and no cross-process write lock, so a worker that
        dies mid-chunk (a real segfault/OOM kill, or an injected
        ``worker_crash`` fault) can never wedge its peers — its death
        just closes the last write end of its pipe, which the parent
        sees as ``EOFError``. The lost chunk is reassigned to a fresh
        replacement worker — up to :attr:`max_crashes` times per chunk,
        after which :class:`~repro.errors.WorkerCrashError` raises.
        Chunks are pure functions of ``(chunk_index, seed)``, so a re-run
        is bit-identical to the run that was lost.
        """
        ctx = mp.get_context("fork")
        chunk_size = self.chunk_size
        fault_plan = get_fault_plan()
        stats = self.last_transport
        stats.mode = "pipes"

        def worker_loop(inbox, conn) -> None:
            while True:
                message = inbox.get()
                if message is None:
                    conn.close()
                    return
                chunk_index, attempt = message
                if fault_plan.enabled and fault_plan.should_crash(
                        "worker_crash", chunk_index, attempt):
                    # Modeled worker loss: die without flushing anything
                    # (exactly what a kill -9 / XID error looks like).
                    os._exit(CRASH_EXIT_CODE)
                try:
                    values, snapshot = _run_chunk(
                        fn, chunks[chunk_index], chunk_index * chunk_size,
                        seed, obs_enabled,
                    )
                    conn.send_bytes(_dumps(
                        (chunk_index, "ok", (values, snapshot))))
                except ParallelTaskError as exc:
                    conn.send_bytes(_dumps((
                        chunk_index, "error",
                        (exc.task_index, exc.seed, str(exc.__cause__),
                         traceback.format_exc()),
                    )))
                except BaseException as exc:  # noqa: BLE001 - re-raised
                    conn.send_bytes(_dumps((
                        chunk_index, "error",
                        (chunk_index * chunk_size, seed, repr(exc),
                         traceback.format_exc()),
                    )))

        def spawn():
            inbox = ctx.SimpleQueue()
            reader, writer = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=worker_loop, args=(inbox, writer),
                               daemon=True)
            proc.start()
            # Close the parent's copy immediately: the worker now holds
            # the only write end, so worker death == EOF on `reader`,
            # and later forks cannot inherit a stray write end that
            # would mask it.
            writer.close()
            return {"proc": proc, "inbox": inbox, "reader": reader,
                    "chunk": None, "attempt": 0}

        pool = [spawn() for _ in range(workers)]
        pending = list(range(len(chunks) - 1, -1, -1))  # pop() -> in order
        attempts = [0] * len(chunks)
        outcomes: list = [None] * len(chunks)
        completed = 0
        try:
            while completed < len(chunks):
                for state in pool:
                    if state["chunk"] is None and pending:
                        index = pending.pop()
                        state["chunk"] = index
                        state["attempt"] = attempts[index]
                        message = (index, attempts[index])
                        stats.ipc_bytes += len(_dumps(message))
                        state["inbox"].put(message)
                ready = mp_connection.wait(
                    [state["reader"] for state in pool],
                    timeout=_LIVENESS_POLL_S)
                crashed = not ready
                for state in pool:
                    if state["reader"] not in ready:
                        continue
                    try:
                        data = state["reader"].recv_bytes()
                    except EOFError:
                        # Worker died (possibly mid-send); only its own
                        # pipe is affected. Reap below.
                        crashed = True
                        continue
                    stats.ipc_bytes += len(data)
                    chunk_index, status, payload = pickle.loads(data)
                    if status == "error":
                        task_index, task_seed, cause, worker_tb = payload
                        raise ParallelTaskError(
                            task_index, task_seed, cause,
                            worker_traceback=worker_tb)
                    state["chunk"] = None
                    if outcomes[chunk_index] is None:
                        outcomes[chunk_index] = payload
                        completed += 1
                if crashed:
                    pool = self._reap_crashed(pool, pending, attempts,
                                              fault_plan, spawn)
            for state in pool:
                stats.ipc_bytes += len(_dumps(None))
                state["inbox"].put(None)
            for state in pool:
                state["proc"].join(timeout=5.0)
        finally:
            for state in pool:
                if state["proc"].is_alive():
                    state["proc"].terminate()
                    state["proc"].join()
                if not state["reader"].closed:
                    state["reader"].close()
        return outcomes

    def _reap_crashed(self, pool, pending, attempts, fault_plan,
                      spawn) -> list:
        """Replace dead workers in place; requeue and re-budget their
        chunks. Replacements take the dead worker's pool slot *before*
        any budget-exhaustion raise, so the caller's cleanup always sees
        every process it must terminate."""
        for slot, state in enumerate(pool):
            if state["proc"].is_alive():
                continue
            state["proc"].join()
            if not state["reader"].closed:
                state["reader"].close()
            pool[slot] = spawn()
            chunk_index = state["chunk"]
            if chunk_index is None:
                continue
            attempts[chunk_index] += 1
            if fault_plan.enabled:
                fault_plan.record("worker_crash", chunk_index,
                                  state["attempt"], "crash")
            registry = get_registry()
            if registry.enabled:
                registry.counter(
                    "repro_parallel_worker_crashes_total",
                    "Worker processes lost and replaced mid-map",
                ).inc()
            if attempts[chunk_index] > self.max_crashes:
                raise WorkerCrashError(chunk_index,
                                       attempts[chunk_index])
            pending.append(chunk_index)
        return pool


def parallel_map(fn, items, jobs: int | None = 1, chunk_size: int = 1,
                 seed: int | None = None, merge_obs: bool = True,
                 max_crashes: int = 2) -> list:
    """One-shot convenience wrapper around :class:`ParallelExecutor`."""
    executor = ParallelExecutor(jobs=jobs, chunk_size=chunk_size,
                                max_crashes=max_crashes)
    return executor.map(fn, items, seed=seed, merge_obs=merge_obs)
