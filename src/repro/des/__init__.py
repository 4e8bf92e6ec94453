"""Deterministic discrete-event simulation substrate.

``repro.des`` provides the virtual-time machinery the MPI simulator is
built on:

- :mod:`repro.des.engine` — event heap + virtual clock,
- :mod:`repro.des.process` — simulated processes: generator ranks
  stepped as coroutines (OS threads only for plain functions), one-shot
  :class:`SimEvent` futures, and :func:`~repro.des.process.blocking`,
  which derives every blocking spelling from its ``co_*`` form,
- :mod:`repro.des.resources` — FIFO resources (cores, send engines),
- :mod:`repro.des.flows` — max-min fair fluid bandwidth sharing used to
  model NIC contention.
"""

from repro.des.engine import DeadlockError, Engine, SimTimeError
from repro.des.process import ProcessFailed, SimEvent, SimProcess
from repro.des.resources import Resource
from repro.des.flows import Capacity, Flow, FlowNetwork

__all__ = [
    "Engine",
    "DeadlockError",
    "SimTimeError",
    "SimProcess",
    "SimEvent",
    "ProcessFailed",
    "Resource",
    "FlowNetwork",
    "Capacity",
    "Flow",
]
