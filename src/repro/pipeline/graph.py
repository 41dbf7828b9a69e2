"""The dataflow stage-graph engine: N exclusive stages, bounded queues.

Generalizes the two-stage producer/consumer recurrence
(:func:`repro.sim.pipeline.two_stage_makespan`) to an arbitrary linear
stage graph on :mod:`repro.sim.events`: every stage is an exclusive
resource (the
sampler stream, the PCIe/DMA engine, the NIC, the training stream),
items flow through the stages in order, and each stage-to-stage edge is
a bounded buffer of ``queue_depth`` slots — a stage may only *start*
item ``i`` once a slot in its output buffer is free, and the slot stays
occupied until the downstream stage *finishes* the item (the buffer is
being read while the consumer works, exactly the double-buffered
transfer lane semantics). Backpressure therefore propagates upstream:
with ``queue_depth=1`` each stage runs at most one item ahead of the
next; ``None`` removes the bound entirely. An admission ``window``
bounds the whole graph instead: item ``i`` may enter the first stage
only once item ``i - window`` has left the last one (the out-of-core
prefetch queue: at most ``window`` batches sampled but not yet trained).

For two stages this engine reproduces ``two_stage_makespan`` exactly —
the agreement tests use the closed-form recurrence as the oracle.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.obs import NULL_HISTOGRAM, get_registry
from repro.sim.events import EventLoop

#: ``record``/``stall_record`` callbacks receive these 4-tuples.
Interval = tuple  # (stage_name, item_index, start, end)


def stage_graph_makespan(
    stage_times: Sequence[Sequence[float]],
    *,
    names: Sequence[str] | None = None,
    queue_depth: int | None = None,
    window: int | None = None,
    record: Callable[[Interval], None] | None = None,
    stall_record: Callable[[Interval], None] | None = None,
    pipeline_label: str | None = "epoch",
) -> float:
    """Makespan of ``n`` items flowing through the linear stage graph.

    ``stage_times[s][i]`` is the service time of item ``i`` at stage
    ``s``; all stages see every item, in index order. ``record`` is
    called with ``(stage_name, item, start, end)`` for every *executed*
    interval — the hook the epoch timeline uses to lay out the overlap
    faithfully — and ``stall_record`` with the same shape for every
    interval a stage spent waiting (starved for input, or blocked on
    backpressure from a full output buffer, or on the admission
    ``window``). Start-up starvation (stage ``s`` idle until its first
    item arrives — the pipeline fill) counts as stall time.

    When observability is enabled, per-stage stall seconds go to the
    ``repro_pipeline_stall_seconds_total`` counter and the number of
    items in flight (entered the first stage, not yet out of the last)
    at each admission to the ``repro_pipeline_queue_occupancy``
    histogram, both labeled ``pipeline=pipeline_label``;
    ``pipeline_label=None`` publishes neither.
    """
    times = [list(map(float, stage)) for stage in stage_times]
    if not times:
        raise ValueError("at least one stage is required")
    n = len(times[0])
    if any(len(stage) != n for stage in times):
        raise ValueError("stage time lists must have equal length")
    if queue_depth is not None and queue_depth < 1:
        raise ValueError("queue_depth must be >= 1 or None")
    if window is not None and window < 1:
        raise ValueError("window must be >= 1 or None")
    num_stages = len(times)
    if names is None:
        names = [f"stage{s}" for s in range(num_stages)]
    elif len(names) != num_stages:
        raise ValueError("one name per stage required")
    if n == 0:
        return 0.0

    loop = EventLoop()
    queues = [loop.queue(f"edge{s}") for s in range(num_stages - 1)]
    slots = None
    if queue_depth is not None:
        slots = [
            [loop.resource(f"slot{s}.{j}") for j in range(queue_depth)]
            for s in range(num_stages - 1)
        ]
    admits = None
    if window is not None:
        admits = [loop.resource(f"admit{j}") for j in range(window)]
    stall_totals = [0.0] * num_stages
    in_flight = [0]
    registry = get_registry()
    publish = pipeline_label is not None and registry.enabled
    occupancy = NULL_HISTOGRAM
    if publish:
        occupancy = registry.histogram(
            "repro_pipeline_queue_occupancy",
            "Items in flight (admitted, not yet out of the last stage) at "
            "each admission to the stage graph",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        ).labels(pipeline=pipeline_label)

    def stage_proc(s: int):
        name = names[s]
        for i in range(n):
            wait_from = loop.now
            if s > 0:
                yield queues[s - 1].get()
            else:
                if admits is not None:
                    yield admits[i % window].acquire()
                in_flight[0] += 1
                occupancy.observe(in_flight[0])
            if slots is not None and s + 1 < num_stages:
                # Claim the output-buffer slot before starting: a full
                # buffer stalls this stage (backpressure).
                yield slots[s][i % queue_depth].acquire()
            start = loop.now
            if start > wait_from:
                stall_totals[s] += start - wait_from
                if stall_record is not None:
                    stall_record((name, i, wait_from, start))
            yield times[s][i]
            if record is not None:
                record((name, i, start, loop.now))
            if s > 0 and slots is not None:
                # The upstream buffer slot frees only now: the item was
                # read out of the buffer for the whole service time.
                slots[s - 1][i % queue_depth].release()
            if s + 1 < num_stages:
                queues[s].put(i)
            else:
                in_flight[0] -= 1
                if admits is not None:
                    admits[i % window].release()

    for s in range(num_stages):
        loop.spawn(stage_proc(s))
    makespan = loop.run()

    if publish:
        stalls = registry.counter(
            "repro_pipeline_stall_seconds_total",
            "Modeled seconds a pipeline stage spent waiting on the other",
        )
        for name, total in zip(names, stall_totals):
            if total > 0:
                stalls.labels(pipeline=pipeline_label, stage=name).inc(total)
    return makespan


def stage_graph_reference(
    stage_times: Sequence[Sequence[float]],
    queue_depth: int | None = None,
    window: int | None = None,
) -> float:
    """Closed-form recurrence cross-checking :func:`stage_graph_makespan`.

    ``start[s][i] = max(finish[s][i-1], finish[s-1][i],
    finish[s+1][i-depth])`` — the stage is serial, the item must have
    left the previous stage, and (with a bounded buffer) the output slot
    it reuses must have been drained by the downstream stage. The first
    stage also waits for ``finish[-1][i-window]`` (the admission
    window). For two stages this is exactly
    :func:`repro.sim.pipeline.two_stage_makespan`.
    """
    times = [list(map(float, stage)) for stage in stage_times]
    if not times:
        raise ValueError("at least one stage is required")
    n = len(times[0])
    if any(len(stage) != n for stage in times):
        raise ValueError("stage time lists must have equal length")
    if n == 0:
        return 0.0
    num_stages = len(times)
    finish = [[0.0] * n for _ in range(num_stages)]
    for i in range(n):
        for s in range(num_stages):
            start = finish[s][i - 1] if i > 0 else 0.0
            if s > 0:
                start = max(start, finish[s - 1][i])
            if (queue_depth is not None and s + 1 < num_stages
                    and i >= queue_depth):
                start = max(start, finish[s + 1][i - queue_depth])
            if s == 0 and window is not None and i >= window:
                start = max(start, finish[-1][i - window])
            finish[s][i] = start + times[s][i]
    return finish[-1][-1]
