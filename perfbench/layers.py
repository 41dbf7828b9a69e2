"""Per-layer wall-clock attribution for one traced scenario run.

The benchmark never edits the program to trace it. Instead,
:func:`traced` wraps the public entry point of every layer in a
:meth:`repro.obs.trace.Tracer.span` for the length of one run and puts
the original attributes back afterwards, so untraced runs call exactly
the code a user would.

A probe names one entry point (a method on a class, every override of
it in loaded subclasses, or a module-level function together with every
``from ... import`` binding of it) and the layer its time belongs to.
Only the outermost call of a layer opens a span: a layer that re-enters
itself (``Module.__call__`` on nested sub-modules, an override calling
``super()``) is timed once. A layer's **self time** is its span time
minus the time covered by its child spans, so the self times of all
layers plus the root span's own remainder (``driver``) add up to the
traced run time exactly.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.obs.trace import Tracer

#: Name of the span wrapped around the whole scenario run; its self time
#: is the run time no layer span covers.
ROOT = "driver"


@dataclass(frozen=True)
class Probe:
    """One entry point to wrap."""

    #: Layer the time is charged to (also the span name).
    layer: str
    #: Dotted path of the defining module.
    module: str
    #: ``"Class.method"`` or ``"function"``.
    target: str
    #: Optional ``count(stats, args, result)`` hook, called once per
    #: outermost call, that adds work counters to the layer's stats.
    count: object = None
    #: False for a counter-only probe, which opens no span.
    timed: bool = True


def _add(stats: dict, key: str, value) -> None:
    stats[key] = stats.get(key, 0) + value


def _count_edges(stats, args, result):
    _add(stats, "edges", int(result.num_edges))


def _count_ids(stats, args, result):
    _add(stats, "ids", len(args[1]))


def _count_plan(stats, args, result):
    _add(stats, "wanted", int(result.num_wanted))
    _add(stats, "resident", int(result.num_cache_hits + result.num_reused))
    _add(stats, "bytes", int(result.total_bytes))


def _count_rows(stats, args, result):
    _add(stats, "rows", len(args[1]))


def _count_step(stats, args, result):
    _add(stats, "steps", 1)


#: Every layer boundary the benchmark traces, in the order of the
#: per-layer table. ``serve.jsq_fallback`` is a counter only: it nests
#: inside ``serve.route`` and records routes that fell back to JSQ.
PROBES = (
    Probe("sampling", "repro.sampling.neighbor", "NeighborSampler.sample",
          _count_edges),
    Probe("sampling.idmap", "repro.sampling.idmap.base", "IdMap.map",
          _count_ids),
    Probe("transfer.cache_build", "repro.transfer.cache",
          "PresampleCachePolicy.build"),
    Probe("transfer.plan", "repro.transfer.loader", "FeatureLoader.plan",
          _count_plan),
    Probe("graph.gather", "repro.graph.features", "FeatureStore.gather",
          _count_rows),
    Probe("reorder", "repro.core.reorder", "match_degree_matrix"),
    Probe("reorder", "repro.core.reorder", "greedy_reorder"),
    Probe("compute_model", "repro.core.memory_aware",
          "ComputeCostModel.subgraph_report"),
    Probe("nn.forward", "repro.nn.modules", "Module.__call__"),
    Probe("nn.backward", "repro.nn.tensor", "Tensor.backward"),
    Probe("nn.optim", "repro.nn.optim", "Optimizer.step", _count_step),
    Probe("nn.optim", "repro.nn.optim", "Optimizer.zero_grad"),
    Probe("cluster.partition", "repro.cluster.engine",
          "ClusterState.__init__"),
    Probe("cluster.halo", "repro.cluster.engine",
          "ClusterState.batch_network_time"),
    Probe("serve.route", "repro.serve.routing", "Router.choose"),
    Probe("serve.jsq_fallback", "repro.serve.routing",
          "join_shortest_queue", timed=False),
    Probe("serve.tier", "repro.serve.cache_tier", "CacheTier.lookup"),
    Probe("serve.tier", "repro.serve.cache_tier", "CacheTier.insert"),
    Probe("serve.profile_build", "repro.serve.profiles",
          "ServingProfile.__init__"),
)

def _all_subclasses(cls) -> list:
    out, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _bindings(probe: Probe) -> list:
    """``(owner, attr, original)`` for every place the probe's entry
    point is bound: the class and each loaded subclass that overrides
    the method, or the defining module and every module that imported
    the function by name."""
    module = sys.modules.get(probe.module) or __import__(
        probe.module, fromlist=["_"])
    if "." in probe.target:
        cls_name, attr = probe.target.split(".")
        cls = getattr(module, cls_name)
        return [(sub, attr, sub.__dict__[attr])
                for sub in _all_subclasses(cls) if attr in sub.__dict__]
    original = getattr(module, probe.target)
    return [(mod, name, original)
            for mod in list(sys.modules.values())
            if getattr(mod, "__name__", "").startswith("repro")
            for name, value in list(vars(mod).items())
            if value is original]


@dataclass
class LayerRecorder:
    """Spans and work counters of one traced run."""

    tracer: Tracer = field(default_factory=Tracer)
    #: layer -> counter name -> value (outermost calls only).
    stats: dict = field(default_factory=dict)
    #: layer -> open outermost calls (re-entry guard).
    _active: dict = field(default_factory=dict)

    def wrap(self, probe: Probe, fn):
        layer = probe.layer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._active.get(layer):
                return fn(*args, **kwargs)
            self._active[layer] = 1
            try:
                if probe.timed:
                    with self.tracer.span(layer, category=layer):
                        result = fn(*args, **kwargs)
                else:
                    result = fn(*args, **kwargs)
            finally:
                self._active[layer] = 0
            stats = self.stats.setdefault(layer, {})
            _add(stats, "calls", 1)
            if probe.count is not None:
                probe.count(stats, args, result)
            return result

        wrapper.perfbench_layer = layer
        return wrapper


@contextmanager
def traced(recorder: LayerRecorder):
    """Install every probe for the block, then restore the originals.

    The block's body is timed as the ``driver`` root span.
    """
    installed = []
    try:
        for probe in PROBES:
            for owner, attr, original in _bindings(probe):
                if isinstance(original, staticmethod):
                    patched = staticmethod(
                        recorder.wrap(probe, original.__func__))
                else:
                    patched = recorder.wrap(probe, original)
                setattr(owner, attr, patched)
                installed.append((owner, attr, original))
        with recorder.tracer.span(ROOT, category=ROOT):
            yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def installed_wrappers() -> list:
    """Bindings that currently hold a benchmark wrapper (empty whenever
    no traced run is in progress)."""
    found = []
    for probe in PROBES:
        for owner, attr, value in _bindings(probe):
            func = getattr(value, "__func__", value)
            if hasattr(func, "perfbench_layer"):
                found.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return found


def self_times(spans: list) -> dict:
    """Layer -> summed self time, from properly nested wall spans.

    Spans are visited in start order (parents first on ties, by depth);
    a stack of open ancestors gives each span its direct parent, whose
    child time it adds to.
    """
    ordered = sorted(spans, key=lambda s: (s.start, s.depth))
    child = {}
    stack: list = []
    for span in ordered:
        while stack and stack[-1].depth >= span.depth:
            stack.pop()
        if stack:
            parent = id(stack[-1])
            child[parent] = child.get(parent, 0.0) + span.duration
        stack.append(span)
    out: dict = {}
    for span in spans:
        own = span.duration - child.get(id(span), 0.0)
        out[span.name] = out.get(span.name, 0.0) + own
    return out


def inclusive_times(spans: list) -> dict:
    """Layer -> summed span duration."""
    out: dict = {}
    for span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.duration
    return out
