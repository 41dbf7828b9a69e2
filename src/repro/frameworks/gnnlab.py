"""GNNLab-style framework: factored sample/train GPUs + static cache.

GNNLab dedicates GPU(s) to sampling (1 when running on <= 4 GPUs, 2 above
— the paper's setting for optimal GNNLab performance) and pipelines batch
production against training. Feature traffic is reduced by a static,
presample-ranked device cache sized by the memory left over after the
training workspace — the quantity Table 1 shows collapsing on large
graphs, which is exactly where the cache stops helping.
"""

from __future__ import annotations

from repro.config import RunConfig
from repro.frameworks.base import Framework
from repro.graph.datasets import Dataset
from repro.pipeline import Stage, pipelined_stages
from repro.sampling import BaselineIdMap
from repro.sampling.base import Sampler
from repro.transfer.cache import PresampleCachePolicy
from repro.transfer.loader import CachedLoader, FeatureLoader


def _cache_budget(dataset: Dataset, config: RunConfig) -> int:
    if config.cache_ratio_override is not None:
        ratio = max(0.0, float(config.cache_ratio_override))
        return int(min(ratio, 1.0) * dataset.feature_table_bytes())
    return dataset.cache_budget_bytes()


class GNNLabFramework(Framework):
    """GNNLab strategy bundle (factored GPUs + presample cache)."""

    name = "gnnlab"
    sample_device = "gpu"
    compute_mode = "naive"
    pipelined_sampling = True

    def make_idmap(self):
        return BaselineIdMap()

    def num_sampler_gpus(self, config: RunConfig) -> int:
        if config.num_gpus < 2:
            raise ValueError("GNNLab requires at least 2 GPUs (one samples)")
        return 1 if config.num_gpus <= 4 else 2

    def make_loader(self, dataset: Dataset, config: RunConfig,
                    sampler: Sampler, rng) -> FeatureLoader:
        budget = _cache_budget(dataset, config)
        cache = PresampleCachePolicy.build(
            sampler,
            dataset.train_ids,
            dataset.features,
            budget,
            batch_size=min(config.batch_size, len(dataset.train_ids)),
            rng=rng,
        )
        self._last_cache = cache
        return CachedLoader(dataset.features, cache)

    def _extra_device_bytes(self, dataset: Dataset,
                            config: RunConfig) -> int:
        return _cache_budget(dataset, config)

    def _epoch_stages(self, config: RunConfig, num_nodes: int, pipeline,
                      halo: bool) -> tuple:
        """Producer/consumer: the dedicated sampler pool produces each
        round — the *sum* of the trainers' sample seconds divided by the
        sampler GPUs (every simulated node factors its own pool on
        cluster runs) — and the trainer GPUs consume it in lockstep.
        Pipelined runs keep the pooled sample stage in the full graph."""
        pool = self.num_sampler_gpus(config) * num_nodes
        if pipeline.enabled:
            return pipelined_stages(halo, sampler_pool=pool), None
        return (Stage("sample", ("sample",), "sampler", pool=pool),
                Stage("train", ("memory_io", "network", "compute"))), None
