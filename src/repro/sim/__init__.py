"""Discrete-event machinery for phase pipelining.

The tiny event engine (:mod:`repro.sim.events`) runs every epoch's stage
graph (:mod:`repro.pipeline.graph`) and the serving simulators; the
closed-form two-stage producer/consumer recurrence
(:mod:`repro.sim.pipeline`, GNNLab's factored sample/train design) is
the oracle the tests check the stage graph against.
"""

from repro.sim.events import EventLoop
from repro.sim.pipeline import two_stage_makespan

__all__ = ["EventLoop", "two_stage_makespan"]
