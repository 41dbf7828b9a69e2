"""Tests for the thread-block autotuner."""

import pytest

from repro.errors import ConfigError
from repro.gpu.kernels import ThreadBlockConfig, autotune_thread_block
from repro.gpu.spec import A100, RTX3090


class TestAutotuneThreadBlock:
    def test_returns_valid_config(self):
        config = autotune_thread_block(64, 10.0, RTX3090)
        config.validate(RTX3090)
        assert config.threads_per_block <= RTX3090.max_threads_per_block

    def test_default_is_competitive(self):
        """The paper's empirical X=8/Y=32 achieves the tuned occupancy."""
        from repro.gpu.kernels import aggregation_kernel_plan

        tuned = autotune_thread_block(64, 10.0, RTX3090)
        default_plan = aggregation_kernel_plan(1024, 64, 10.0, RTX3090,
                                               ThreadBlockConfig())
        tuned_plan = aggregation_kernel_plan(1024, 64, 10.0, RTX3090, tuned)
        assert default_plan.occupancy >= 0.9 * tuned_plan.occupancy

    def test_huge_degree_prefers_small_x(self):
        """Weights dominate shared memory at high degree; fewer targets
        per block keep the footprint inside the limit."""
        config = autotune_thread_block(64, 3000.0, RTX3090)
        assert config.x_nodes <= 8

    def test_a100_also_tunable(self):
        config = autotune_thread_block(256, 15.0, A100)
        config.validate(A100)

    def test_impossible_workload(self):
        with pytest.raises(ConfigError):
            autotune_thread_block(
                64, 1e9, RTX3090,
                candidates=[ThreadBlockConfig(32, 32)],
            )
