"""Simulated training frameworks (the paper's Table 5 lineup).

Names resolve through the registry (:func:`create`,
:func:`available_frameworks`, :func:`register`); the ``FRAMEWORKS`` dict
remains as a compatibility alias.
"""

from repro.frameworks.base import EpochReport, Framework, PhaseTimes, TrainState
from repro.frameworks.registry import (
    FRAMEWORKS,
    available_frameworks,
    create,
    register,
    resolve,
    unregister,
)
from repro.frameworks.pyg import PyGFramework
from repro.frameworks.dgl import DGLFramework, OutOfCoreDGLFramework
from repro.frameworks.gnnadvisor import GNNAdvisorFramework
from repro.frameworks.gnnlab import GNNLabFramework
from repro.frameworks.pagraph import PaGraphFramework
from repro.frameworks.fastgl import (
    FastGLFramework,
    OutOfCoreFastGLFramework,
    fastgl_variant,
)

register("pyg", PyGFramework)
register("dgl", DGLFramework)
register("gnnadvisor", GNNAdvisorFramework)
register("gnnlab", GNNLabFramework)
register("pagraph", PaGraphFramework)
register("fastgl", FastGLFramework)
register("dgl-ooc", OutOfCoreDGLFramework)
register("fastgl-ooc", OutOfCoreFastGLFramework)

__all__ = [
    "EpochReport",
    "Framework",
    "PhaseTimes",
    "TrainState",
    "PyGFramework",
    "DGLFramework",
    "OutOfCoreDGLFramework",
    "GNNAdvisorFramework",
    "GNNLabFramework",
    "PaGraphFramework",
    "FastGLFramework",
    "OutOfCoreFastGLFramework",
    "fastgl_variant",
    "FRAMEWORKS",
    "available_frameworks",
    "create",
    "register",
    "resolve",
    "unregister",
]
