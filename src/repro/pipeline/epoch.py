"""Epoch layouts: one epoch's rounds flowing through a declared stage graph.

Every framework declares its epoch as an ordered tuple of :class:`Stage`
values, and :func:`pipelined_epoch_layout` turns one epoch's
per-trainer phase seconds into the makespan and the timeline
:meth:`repro.frameworks.base.Framework.run_epoch` exports. The classic
layouts and the overlapped one are all declarations on
:func:`repro.pipeline.graph.stage_graph_makespan`:

* lockstep data parallelism — one per-trainer stage;
* GNNLab — a pooled ``sampler`` stage feeding a per-trainer stage;
* the out-of-core pipeline — ``sampler``/``nvme``/``trainers`` stages
  under an admission window (the prefetch queue depth);
* ``PipelineSpec.mode == "pipelined"`` — sample → memory IO → halo →
  train with bounded per-edge buffers, so round ``i+2`` samples while
  ``i+1`` transfers and ``i`` trains.

The last stage carries each round's gradient sync (intra-node
allreduce, then the inter-node hop) — every ``staleness + 1`` rounds
when bounded-staleness accumulation is on. The returned spans reconcile
exactly: the last executed interval ends at the returned makespan, and
the per-stage stall spans (the ``stalls`` lane) never extend past it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.pipeline.graph import stage_graph_makespan

#: Phase order of one round's work: the ``network`` slot (halo feature
#: exchange) sits between memory IO and compute — remote rows must land
#: before the forward pass — and is only populated by cluster runs.
PHASES = ("sample", "memory_io", "network", "compute")

_PHASE_INDEX = {phase: k for k, phase in enumerate(PHASES)}


@dataclass(frozen=True)
class Stage:
    """One exclusive stage of an epoch's stage graph.

    ``phases`` run back to back inside the stage, in :data:`PHASES`
    order. With a named ``lane`` the stage is one shared resource (a
    sampler stream, a DMA engine, the NVMe queue, the training stream):
    its round time is the sum of the per-phase maxima across trainers —
    the stage only releases a round once its slowest trainer is done —
    or, with a sampler ``pool``, the per-phase sum across trainers
    divided by the pool's GPU count. With ``lane=None`` every trainer
    runs the phases on its own ``gpuN`` lane and the round time is the
    largest per-trainer sum.
    """

    name: str
    phases: tuple
    lane: str | None = None
    pool: int | None = None


def pipelined_stages(halo: bool, sampler_pool: int | None = None) -> tuple:
    """The fully overlapped graph: sample → memory IO → (halo) → train.

    The halo stage is declared only when the epoch has remote rows: a
    permanently zero-length stage would silently add an extra buffer
    edge (more run-ahead) without modeling anything.
    """
    stages = [Stage("sample", ("sample",), "sampler", pool=sampler_pool),
              Stage("memory_io", ("memory_io",), "io")]
    if halo:
        stages.append(Stage("network", ("network",), "network"))
    stages.append(Stage("train", ("compute",), "trainers"))
    return tuple(stages)


def sync_round_flags(rounds: int, staleness: int) -> list:
    """Which rounds end in a synchronizing allreduce.

    ``staleness = 0`` syncs every round (today's semantics); ``k`` lets
    gradients accumulate locally for up to ``k`` extra rounds, syncing
    every ``k + 1`` rounds — and always after the final round, so the
    epoch never ends with unsynchronized gradients.
    """
    if rounds <= 0:
        return []
    period = staleness + 1
    flags = [(r + 1) % period == 0 for r in range(rounds)]
    flags[-1] = True
    return flags


def _stage_rounds(stage: Stage, rounds_by_trainer, rounds: int) -> list:
    """Per round: ``(body_seconds, phase_seconds)`` of ``stage``, where
    ``phase_seconds`` is one duration per phase (named lanes) or one
    per-phase tuple per trainer (``None`` where the trainer has no batch
    this round)."""
    cols = [_PHASE_INDEX[phase] for phase in stage.phases]
    out = []
    for r in range(rounds):
        present = [lane[r] if r < len(lane) else None
                   for lane in rounds_by_trainer]
        if stage.lane is None:
            parts = [None if v is None else tuple(v[c] for c in cols)
                     for v in present]
            body = max(sum(p) for p in parts if p is not None)
        else:
            rows = [v for v in present if v is not None]
            if stage.pool:
                parts = [sum(v[c] for v in rows) / stage.pool for c in cols]
            else:
                parts = [max(v[c] for v in rows) for c in cols]
            body = sum(parts)
        out.append((body, parts))
    return out


def _span(lane, trainer, name, cat, start, duration, batch) -> dict:
    span = {"lane": lane, "name": name, "cat": cat, "start": start,
            "dur": duration, "batch": batch}
    if trainer is not None:
        span["trainer"] = trainer
    return span


def pipelined_epoch_layout(
    stages: Sequence[Stage],
    rounds_by_trainer: Sequence[Sequence[tuple]],
    *,
    sync: float,
    net_sync: float,
    queue_depth: int | None = None,
    window: int | None = None,
    staleness: int = 0,
    label: str | None = None,
) -> tuple:
    """Lay one epoch's rounds out through the declared stage graph.

    ``rounds_by_trainer[t][r]`` holds trainer ``t``'s round-``r`` phase
    seconds in :data:`PHASES` order (trainers may run fewer rounds than
    the epoch has). ``queue_depth`` bounds every stage-to-stage buffer
    and ``window`` the items in flight through the whole graph (see
    :func:`~repro.pipeline.graph.stage_graph_makespan`). ``label`` names
    the run in the ``repro_pipeline_*`` metrics and turns on the
    ``stalls`` lane; ``None`` (the classic layouts) publishes neither.

    Returns ``(epoch_seconds, spans, info)`` where ``spans`` is the
    timeline — span dicts with ``lane``/``name``/``cat``/``start``/
    ``dur``/``batch`` keys, plus ``trainer`` on per-trainer ``gpuN``
    lanes — and ``info`` is the stage accounting: per-stage totals,
    stall seconds, the sync-round count, and the ``max(stage totals) +
    fill`` lower-bound estimate the overlap gate compares against.
    """
    rounds = max((len(lane) for lane in rounds_by_trainer), default=0)
    flags = sync_round_flags(rounds, staleness)
    barrier = sync + net_sync
    names = [stage.name for stage in stages]
    per_stage = [_stage_rounds(stage, rounds_by_trainer, rounds)
                 for stage in stages]
    stage_times = [[body for body, _ in stage_rounds]
                   for stage_rounds in per_stage]
    for r, flag in enumerate(flags):
        if flag:
            stage_times[-1][r] += barrier

    records: list = []
    stall_records: list = []
    makespan = stage_graph_makespan(
        stage_times,
        names=names,
        queue_depth=queue_depth,
        window=window,
        record=records.append,
        stall_record=stall_records.append if label is not None else None,
        pipeline_label=label,
    )

    spans: list = []
    position = {name: s for s, name in enumerate(names)}
    last = len(stages) - 1
    for name, batch, start, _ in records:
        s = position[name]
        stage = stages[s]
        body, parts = per_stage[s][batch]
        if stage.lane is None:
            tracks = [(f"gpu{t}", t, durations)
                      for t, durations in enumerate(parts)]
        else:
            tracks = [(stage.lane, None, parts)]
        for lane, trainer, durations in tracks:
            if durations is None:
                continue
            cursor = start
            for phase, duration in zip(stage.phases, durations):
                if duration > 0:
                    spans.append(_span(lane, trainer, f"{phase}[{batch}]",
                                       phase, cursor, duration, batch))
                    cursor += duration
        if s != last or not flags[batch]:
            continue
        # The round's gradient sync follows the slowest body on every
        # track, carved out of the recorded stage interval so
        # reconciliation holds.
        cursor = start + body
        for kind, cat, duration in (("allreduce", "allreduce", sync),
                                    ("allreduce_net", "network", net_sync)):
            if duration > 0:
                for lane, trainer, _ in tracks:
                    spans.append(_span(lane, trainer, f"{kind}[{batch}]",
                                       cat, cursor, duration, batch))
                cursor += duration

    stall_seconds = {name: 0.0 for name in names}
    for stage, batch, start, end in stall_records:
        if end <= start:
            continue
        stall_seconds[stage] += end - start
        spans.append({
            "lane": "stalls", "name": f"stall:{stage}[{batch}]",
            "cat": "stall", "start": start, "dur": end - start,
            "batch": batch, "stage": stage,
        })

    totals = {name: float(sum(t)) for name, t in zip(names, stage_times)}
    bottleneck = max(totals, key=totals.get)
    fill = sum(times[0] for name, times in zip(names, stage_times)
               if name != bottleneck and times)
    info = {
        "stage_totals": totals,
        "stall_seconds": stall_seconds,
        "num_syncs": int(sum(flags)),
        "serial_seconds": float(sum(totals.values())),
        "fill_seconds": float(fill),
        "bound_seconds": float(totals[bottleneck] + fill),
    }
    return makespan, spans, info
