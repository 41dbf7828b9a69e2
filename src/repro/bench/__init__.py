"""Wall-clock benchmarks of the hot kernels (``python -m repro.bench``).

:mod:`repro.bench.kernels` defines the named kernels;
:mod:`repro.bench.__main__` is the CLI that times them, writes
``BENCH_repro.json`` and gates against
``benchmarks/results/bench_baseline.json``.
"""

from repro.bench.kernels import KERNELS, SIZES

__all__ = ["KERNELS", "SIZES"]
