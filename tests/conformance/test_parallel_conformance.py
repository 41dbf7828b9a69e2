"""Transport conformance: ``jobs`` is a throughput knob.

Every registered framework runs the same seeded epoch twice — serial
(``jobs=1``) and forked over the worker pipes (``jobs=2``) — and both
must agree bit for bit on everything the model and the cost model can
observe: per-batch losses, modeled epoch time and phase breakdown, the
iteration log, and the final parameters.

The *only* admissible differences are the transport byte counter
(:data:`repro.parallel.TRANSPORT_METRICS`) and the ``parallel_transport``
extras entry — physical bookkeeping of how results moved between
processes, explicitly excluded from the determinism contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import RunConfig
from repro.frameworks import create
from repro.frameworks.registry import available_frameworks
from repro.parallel import fork_available
from repro.pipeline import ExecutionSpec

needs_fork = pytest.mark.skipif(not fork_available(),
                                reason="requires fork start method")


def _run_config() -> RunConfig:
    return RunConfig(
        batch_size=64,
        fanouts=(3, 3),
        num_gpus=2,
        hidden_dim=8,
        seed=5,
        train_model=True,
    )


def _run(name, dataset, jobs: int):
    return create(name).run_epoch(dataset, _run_config(),
                                  execution=ExecutionSpec(jobs=jobs))


def _assert_reports_identical(baseline, candidate):
    assert candidate.losses == baseline.losses
    assert candidate.epoch_time == baseline.epoch_time
    assert candidate.phases == baseline.phases
    assert candidate.num_batches == baseline.num_batches
    assert candidate.memory_peak_bytes == baseline.memory_peak_bytes
    assert (candidate.transfer.feature_bytes
            == baseline.transfer.feature_bytes)
    assert (candidate.extras["iterations"]
            == baseline.extras["iterations"])
    base_params = baseline.extras["final_params"]
    cand_params = candidate.extras["final_params"]
    assert len(base_params) == len(cand_params) > 0
    for expected, actual in zip(base_params, cand_params):
        np.testing.assert_array_equal(expected, actual)


@needs_fork
@pytest.mark.parametrize("name", available_frameworks())
class TestTransportConformance:
    def test_jobs_are_bit_identical(self, name, conformance_dataset):
        serial = _run(name, conformance_dataset, jobs=1)
        forked = _run(name, conformance_dataset, jobs=2)
        _assert_reports_identical(serial, forked)

        # The excluded bookkeeping exists: when a framework actually
        # forked its lanes, the mode and byte counter say so. (A
        # framework with a single lane legitimately stays serial at any
        # ``jobs``.)
        assert serial.extras["parallel_transport"] == {"mode": "serial",
                                                       "ipc_bytes": 0}
        transport = forked.extras["parallel_transport"]
        if transport["mode"] != "serial":
            assert transport["mode"] == "pipes"
            assert transport["ipc_bytes"] > 0
