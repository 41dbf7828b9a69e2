"""The asynchronous pipelined epoch engine and its execution-spec API.

Three pieces:

* :class:`PipelineSpec` / :class:`ExecutionSpec` — the frozen spec
  values the redesigned front door (``api.run(..., exec=...)``,
  ``Framework.run_epoch(..., execution=...)``) carries instead of
  scattered keyword arguments.
* :func:`stage_graph_makespan` — the generic bounded-queue dataflow
  engine on :mod:`repro.sim.events` (sample → transfer → halo → train
  as exclusive stages with backpressure).
* :class:`Stage` / :func:`pipelined_epoch_layout` — every framework's
  epoch (lockstep, GNNLab's sampler pool, the out-of-core prefetch
  pipeline, the fully pipelined graph) declared as stages and laid out
  through that engine, returning a reconciling timeline.

The ``pipeline`` scenario of ``python -m repro.gate`` runs the
deterministic overlap smoke suite and gates it against
``benchmarks/results/pipeline_baseline.json``.
"""

from repro.pipeline.epoch import (
    PHASES,
    Stage,
    pipelined_epoch_layout,
    pipelined_stages,
    sync_round_flags,
)
from repro.pipeline.graph import stage_graph_makespan, stage_graph_reference
from repro.pipeline.spec import (
    DEFAULT_EXECUTION,
    PIPELINE_OFF,
    ExecutionSpec,
    PipelineSpec,
)

__all__ = [
    "DEFAULT_EXECUTION",
    "PHASES",
    "PIPELINE_OFF",
    "ExecutionSpec",
    "PipelineSpec",
    "Stage",
    "pipelined_epoch_layout",
    "pipelined_stages",
    "stage_graph_makespan",
    "stage_graph_reference",
    "sync_round_flags",
]
