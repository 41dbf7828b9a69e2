"""Registry exporters: Prometheus text exposition and JSON snapshots.

The Prometheus exporter follows the text exposition format (0.0.4):
``# HELP`` / ``# TYPE`` headers, escaped help strings and label values,
labels ordered by name, histograms expanded into cumulative ``_bucket``
samples (with the mandatory ``+Inf``) plus ``_sum`` and ``_count``.

The JSON snapshot keeps the same information machine-readably (plus the
p50/p95/p99 summaries), and :func:`flatten_snapshot` turns it into the
flat ``name{label="value"}`` -> number mapping the baseline gate in
:mod:`repro.gate` diffs.
"""

from __future__ import annotations

import json

from repro.obs.registry import MetricsRegistry


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label_value(text: str) -> str:
    return (text.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _format_value(value: float) -> str:
    """Exact, compact sample rendering (no %g precision loss on byte
    counters in the hundreds of millions)."""
    value = float(value)
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e17:
        return str(int(value))
    return repr(value)


def _format_bound(bound: float) -> str:
    return "%g" % bound


def _label_string(labels: dict, extra: list | None = None) -> str:
    """``{a="1",b="2"}`` with label names sorted; empty string if none."""
    pairs = sorted(labels.items())
    if extra:
        pairs = pairs + list(extra)  # le stays last, per convention
    if not pairs:
        return ""
    body = ",".join(
        f'{name}="{_escape_label_value(str(value))}"'
        for name, value in pairs
    )
    return "{" + body + "}"


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry's current state in Prometheus text format."""
    lines: list = []
    for family in registry.collect():
        if family.help:
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for labels, child in family.samples():
            if family.kind == "histogram":
                cumulative = child.cumulative_counts()
                bounds = [_format_bound(b) for b in child.bounds] + ["+Inf"]
                for bound, count in zip(bounds, cumulative):
                    label_str = _label_string(labels, extra=[("le", bound)])
                    lines.append(
                        f"{family.name}_bucket{label_str} {count}"
                    )
                label_str = _label_string(labels)
                lines.append(
                    f"{family.name}_sum{label_str} "
                    f"{_format_value(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count{label_str} {child.count}"
                )
            else:
                label_str = _label_string(labels)
                lines.append(
                    f"{family.name}{label_str} "
                    f"{_format_value(child.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def to_snapshot(registry: MetricsRegistry) -> dict:
    """JSON-able snapshot of every family and child."""
    metrics = []
    for family in registry.collect():
        samples = []
        for labels, child in family.samples():
            if family.kind == "histogram":
                samples.append({
                    "labels": labels,
                    "buckets": [
                        [_format_bound(b), c]
                        for b, c in zip(child.bounds,
                                        child.cumulative_counts())
                    ] + [["+Inf", child.count]],
                    "sum": child.sum,
                    "count": child.count,
                    **child.summary(),
                })
            else:
                samples.append({"labels": labels, "value": child.value})
        metrics.append({
            "name": family.name,
            "kind": family.kind,
            "help": family.help,
            "samples": samples,
        })
    return {"version": 1, "metrics": metrics}


def write_snapshot(path, registry: MetricsRegistry) -> dict:
    """Write :func:`to_snapshot` JSON to ``path``; returns the snapshot."""
    snapshot = to_snapshot(registry)
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return snapshot


def flatten_snapshot(snapshot: dict) -> dict:
    """Flat ``name{labels}`` -> value mapping of a snapshot.

    Counters/gauges contribute one sample; histograms contribute their
    ``_sum`` and ``_count`` (the regression-stable aggregates — bucket
    shapes are diffed implicitly through them).
    """
    flat: dict = {}
    for family in snapshot.get("metrics", []):
        name = family["name"]
        for sample in family["samples"]:
            label_str = _label_string(sample.get("labels", {}))
            if family["kind"] == "histogram":
                flat[f"{name}_sum{label_str}"] = float(sample["sum"])
                flat[f"{name}_count{label_str}"] = float(sample["count"])
            else:
                flat[f"{name}{label_str}"] = float(sample["value"])
    return flat
