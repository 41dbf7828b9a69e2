"""Wall-clock benchmark CLI — the repo's perf trajectory file.

Usage::

    python -m repro.bench                      # all kernels, all sizes
    python -m repro.bench --quick              # small sizes only
    python -m repro.bench match_degree_matrix  # one kernel

Writes ``BENCH_repro.json``: per-kernel wall-clock times (best of N),
deterministic work counters, and speedups against the kept reference
implementations (:mod:`repro.bench.oracles` and the exact
per-operation hash table). ``python -m repro.gate bench`` gates the
small and medium sizes against ``benchmarks/results/bench_baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.bench.kernels import KERNELS, SIZES, run_bench


def _print_table(doc: dict) -> None:
    header = (f"{'kernel':24s} {'size':6s} {'best_s':>10s} "
              f"{'mean_s':>10s} {'speedup':>9s}")
    print(header)
    print("-" * len(header))
    for record in doc["kernels"]:
        speedup = record.get("speedup_vs_legacy",
                             record.get("speedup_vs_exact"))
        speedup_text = f"{speedup:8.1f}x" if speedup else f"{'-':>9s}"
        print(f"{record['kernel']:24s} {record['size']:6s} "
              f"{record['best_s']:10.4f} {record['mean_s']:10.4f} "
              f"{speedup_text}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Time the hot kernels and write BENCH_repro.json.",
    )
    parser.add_argument("kernels", nargs="*",
                        help=f"kernel names (default: all of "
                             f"{sorted(KERNELS)})")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes only")
    parser.add_argument("--medium", action="store_true",
                        help="small + medium sizes (the gated tier: "
                             "includes the 256x4k reorder acceptance "
                             "workload)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats per kernel (default 3; "
                             "best is reported)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--out", default="BENCH_repro.json",
                        help="output JSON path (default: %(default)s)")
    parser.add_argument("--list", action="store_true",
                        help="list kernels and exit")
    args = parser.parse_args(argv)

    if args.list:
        for name in KERNELS:
            print(f"{name:24s} sizes: {sorted(SIZES[name])}")
        return 0

    unknown = [k for k in args.kernels if k not in KERNELS]
    if unknown:
        parser.error(f"unknown kernel(s): {unknown}; "
                     f"available: {sorted(KERNELS)}")

    doc = run_bench(kernels=args.kernels, quick=args.quick,
                    medium=args.medium, repeats=args.repeats,
                    seed=args.seed)
    _print_table(doc)
    with open(args.out, "w") as handle:
        json.dump(doc, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nwrote {args.out} ({len(doc['kernels'])} kernel timings)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
