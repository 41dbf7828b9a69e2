"""Tests for the parallel execution engine and its determinism contract.

The engine's promise is that ``jobs`` is a throughput knob, never a
semantics knob: any job count produces bit-identical results and merged
metrics. That is checked at all three integration points — the raw
executor, the experiment suite sharding, and the epoch driver's
per-trainer lanes.
"""

import numpy as np
import pytest

from repro.config import RunConfig
from repro.frameworks import FastGLFramework
from repro.obs import get_registry, set_registry
from repro.obs.exporters import flatten_snapshot, to_snapshot
from repro.obs.registry import MetricsRegistry
from repro.pipeline import ExecutionSpec
from repro.parallel import (
    ParallelExecutor,
    ParallelTaskError,
    fork_available,
    parallel_map,
    resolve_jobs,
    strip_transport_metrics,
    task_rng,
)

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="requires fork start method")


def _square(x):
    return x * x


class TestExecutor:
    def test_resolve_jobs(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(3) == 3
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(None) >= 1
        with pytest.raises(ValueError):
            resolve_jobs(-2)

    def test_map_preserves_order_serial(self):
        ex = ParallelExecutor(jobs=1)
        assert ex.map(_square, range(10)) == [x * x for x in range(10)]

    @needs_fork
    def test_map_preserves_order_forked(self):
        ex = ParallelExecutor(jobs=4, chunk_size=3)
        assert ex.map(_square, range(23)) == [x * x for x in range(23)]

    def test_empty_items(self):
        assert ParallelExecutor(jobs=4).map(_square, []) == []

    def test_task_rng_is_per_index(self):
        a = task_rng(7, 0).integers(0, 1 << 30, 4)
        b = task_rng(7, 0).integers(0, 1 << 30, 4)
        c = task_rng(7, 1).integers(0, 1 << 30, 4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_seeded_map_identical_across_job_counts(self):
        def draw(index, rng):
            return rng.integers(0, 1 << 30, 3).tolist()

        def feature_block(index, rng):
            # An ndarray-heavy result, like a lane's gathered features.
            return {"features": rng.standard_normal((64, 32)).astype(
                        np.float32),
                    "ids": rng.integers(0, 1 << 40, 64),
                    "loss": float(rng.random())}

        serial = ParallelExecutor(jobs=1).map(draw, range(8), seed=11)
        blocks = ParallelExecutor(jobs=1).map(feature_block, range(6),
                                              seed=5)
        if fork_available():
            forked = ParallelExecutor(jobs=3).map(draw, range(8), seed=11)
            assert serial == forked
            executor = ParallelExecutor(jobs=2)
            forked = executor.map(feature_block, range(6), seed=5)
            assert executor.last_transport.mode == "pipes"
            for got, want in zip(forked, blocks, strict=True):
                assert got["features"].tobytes() == want["features"].tobytes()
                assert got["ids"].tobytes() == want["ids"].tobytes()
                assert got["loss"] == want["loss"]

    @needs_fork
    def test_worker_error_propagates(self):
        def boom(x):
            if x == 3:
                raise ValueError("worker exploded")
            return x

        with pytest.raises(RuntimeError, match="worker exploded"):
            ParallelExecutor(jobs=2).map(boom, range(6))

    @needs_fork
    def test_worker_error_carries_task_index_and_seed(self):
        def boom(x, rng):
            if x == 4:
                raise ValueError("chunk died")
            return x

        with pytest.raises(ParallelTaskError, match=r"task 4 \(seed=11\)"):
            ParallelExecutor(jobs=2).map(boom, range(6), seed=11)

    def test_serial_error_same_type_as_forked(self):
        """The serial fallback raises the identical typed error, with the
        failing task index and seed in the message and the original
        exception chained."""
        def boom(x, rng):
            if x == 2:
                raise KeyError("native")
            return x

        with pytest.raises(ParallelTaskError, match=r"task 2 \(seed=5\)") \
                as excinfo:
            ParallelExecutor(jobs=1).map(boom, range(4), seed=5)
        assert excinfo.value.task_index == 2
        assert excinfo.value.seed == 5
        assert isinstance(excinfo.value.__cause__, KeyError)


class TestMetricsMerging:
    def _counting_task(self, x):
        get_registry().counter("parallel_test_work_total").inc(x)
        get_registry().histogram("parallel_test_size").observe(float(x))
        return x

    def _run(self, jobs):
        parent = MetricsRegistry()
        previous = get_registry()
        set_registry(parent)
        try:
            out = parallel_map(self._counting_task, range(1, 21), jobs=jobs)
        finally:
            set_registry(previous)
        return out, flatten_snapshot(to_snapshot(parent))

    def test_metrics_identical_serial_vs_forked(self):
        serial_out, serial_metrics = self._run(jobs=1)
        assert serial_metrics["parallel_test_work_total"] == 210.0
        assert serial_metrics["parallel_test_size_count"] == 20.0
        if fork_available():
            forked_out, forked_metrics = self._run(jobs=4)
            assert forked_out == serial_out
            # The transport byte counters measure the transport itself
            # (zero under the serial fallback, real bytes when forked);
            # everything the tasks recorded must fold bit-identically.
            assert strip_transport_metrics(forked_metrics) == serial_metrics
            assert forked_metrics["repro_parallel_ipc_bytes_total"] > 0


class TestSuiteDeterminism:
    """``python -m repro.experiments --jobs N`` shards experiments without
    changing a single row."""

    EXPERIMENTS = ("tab04", "tab01")

    def _render(self, jobs):
        from repro.experiments.__main__ import run_suite

        return {
            exp_id: result.render()
            for exp_id, result, _ in run_suite(self.EXPERIMENTS, jobs=jobs)
        }

    @needs_fork
    def test_suite_rows_identical(self):
        assert self._render(jobs=1) == self._render(jobs=2)


class TestEpochLaneDeterminism:
    """Per-trainer lanes in forked workers reproduce the serial epoch
    bit for bit: report, iteration log, and merged metrics."""

    def _run(self, tiny_dataset, jobs):
        config = RunConfig(batch_size=64, fanouts=(3, 4), num_gpus=2,
                           hidden_dim=8, seed=3, num_epochs=2)
        parent = MetricsRegistry()
        previous = get_registry()
        set_registry(parent)
        try:
            report = FastGLFramework().run_epoch(
                tiny_dataset, config,
                execution=ExecutionSpec(jobs=jobs))
        finally:
            set_registry(previous)
        return report, flatten_snapshot(to_snapshot(parent))

    @needs_fork
    def test_epoch_identical(self, tiny_dataset):
        serial, serial_metrics = self._run(tiny_dataset, jobs=1)
        forked, forked_metrics = self._run(tiny_dataset, jobs=2)
        assert forked.epoch_time == serial.epoch_time
        assert forked.phases == serial.phases
        assert forked.memory_peak_bytes == serial.memory_peak_bytes
        assert forked.num_batches == serial.num_batches
        assert forked.losses == serial.losses
        assert forked.transfer.feature_bytes == serial.transfer.feature_bytes
        assert (strip_transport_metrics(forked_metrics)
                == strip_transport_metrics(serial_metrics))
