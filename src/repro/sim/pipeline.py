"""Two-stage pipeline makespan (GNNLab's factored sample/train design).

Stage 1 (a dedicated sampler GPU) produces mini-batches; stage 2 (trainer
GPUs) consumes them. Batch ``i`` starts training at
``max(produced_i, trainer_free)``. This closed-form recurrence is the
oracle the stage-graph engine (:mod:`repro.pipeline.graph`) is tested
against.
"""

from __future__ import annotations

from typing import Sequence

from repro.obs import get_registry


def two_stage_makespan(
    produce_times: Sequence[float],
    consume_times: Sequence[float],
    queue_depth: int | None = None,
) -> float:
    """Closed-form recurrence for a producer/consumer pipeline.

    ``queue_depth`` bounds how far the producer may run ahead (None =
    unbounded). Returns the time the last batch finishes consuming.
    When observability is enabled, the per-stage stall time (consumer
    starved waiting for a batch; producer blocked on backpressure) is
    reported to the metrics registry.
    """
    if len(produce_times) != len(consume_times):
        raise ValueError("stage time lists must have equal length")
    n = len(produce_times)
    if n == 0:
        return 0.0
    produced_at = [0.0] * n
    consumed_at = [0.0] * n
    producer_free = 0.0
    consumer_free = 0.0
    producer_stall = 0.0
    consumer_stall = 0.0
    for i in range(n):
        start = producer_free
        if queue_depth is not None and i >= queue_depth:
            # Backpressure: slot frees when batch (i - depth) is consumed.
            start = max(start, consumed_at[i - queue_depth])
        producer_stall += start - producer_free
        produced_at[i] = start + produce_times[i]
        producer_free = produced_at[i]
        begin = max(produced_at[i], consumer_free)
        consumer_stall += begin - consumer_free if i > 0 else 0.0
        consumed_at[i] = begin + consume_times[i]
        consumer_free = consumed_at[i]
    registry = get_registry()
    if registry.enabled:
        stalls = registry.counter(
            "repro_pipeline_stall_seconds_total",
            "Modeled seconds a pipeline stage spent waiting on the other",
        )
        stalls.labels(pipeline="two_stage",
                      stage="producer").inc(producer_stall)
        stalls.labels(pipeline="two_stage",
                      stage="consumer").inc(consumer_stall)
    return consumed_at[-1]
