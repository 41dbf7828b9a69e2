"""Wall-clock benchmarks of the hot kernels (``python -m repro.bench``).

:mod:`repro.bench.kernels` defines the named kernels and
:mod:`repro.bench.oracles` the reference implementations they are timed
and checked against; :mod:`repro.bench.__main__` is the CLI that times
them and writes ``BENCH_repro.json``. The ``bench`` scenario of
:mod:`repro.gate` gates them against
``benchmarks/results/bench_baseline.json``.
"""

from repro.bench.kernels import KERNELS, SIZES

__all__ = ["KERNELS", "SIZES"]
