"""FastGL's three techniques (the paper's Section 4).

* :mod:`repro.core.match` — the **Match** process: reuse feature rows
  already resident from the previous mini-batch; load only the set
  difference.
* :mod:`repro.core.reorder` — the **Greedy Reorder** strategy
  (Algorithm 1): permute a window of sampled mini-batches so consecutive
  batches overlap maximally.
* :mod:`repro.core.memory_aware` — the **Memory-Aware** computation:
  Eqs. 3-4 access-time model, thread-block planning, and the ``A3``
  aggregation API.
* Fused-Map sampling lives in :mod:`repro.sampling.idmap.fused`;
  :mod:`repro.core.fused_map` re-exports it as part of the contribution
  surface.

The training pipeline tying all three together (the paper's Fig. 5) is
:class:`repro.frameworks.FastGLFramework`; :class:`repro.FastGLTrainer`
wraps its epoch loop with a persistent model.
"""

from repro.core.match import MatchResult, MatchState, match_degree, match_split
from repro.core.reorder import (
    chain_match_score,
    greedy_reorder,
    match_degree_matrix,
    optimal_reorder,
)
from repro.core.memory_aware import (
    A3,
    AggregationCost,
    ComputeCostModel,
    ComputeReport,
)
from repro.core.fused_map import FusedIdMap, simulate_concurrent_fused_map

__all__ = [
    "MatchResult",
    "MatchState",
    "match_degree",
    "match_split",
    "chain_match_score",
    "greedy_reorder",
    "match_degree_matrix",
    "optimal_reorder",
    "A3",
    "AggregationCost",
    "ComputeCostModel",
    "ComputeReport",
    "FusedIdMap",
    "simulate_concurrent_fused_map",
]
