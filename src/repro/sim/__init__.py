"""Discrete-event simulation kernel.

Built from scratch for this reproduction: one process-interaction DES core
in virtual time (:class:`SimulationEngine`), the one queue a process still
waits on (:class:`Store`), and deterministic named RNG streams
(:class:`RngHub`).
"""

from .events import (
    PENDING,
    AllOf,
    AnyOf,
    Condition,
    Event,
    Interrupt,
    Process,
    Timeout,
)
from .engine import SimulationEngine
from .resources import Store, StoreGet
from .rng import RngHub

__all__ = [
    "PENDING",
    "AllOf",
    "AnyOf",
    "Condition",
    "Event",
    "Interrupt",
    "Process",
    "Timeout",
    "SimulationEngine",
    "Store",
    "StoreGet",
    "RngHub",
]
