"""Discrete-event simulation kernel.

Built from scratch for this reproduction: a process-interaction DES core
(:class:`SimulationEngine`), a wall-clock paced variant
(:class:`RealtimeEngine`) for running real workloads, the one queue a
process still waits on (:class:`Store`), and deterministic named RNG
streams (:class:`RngHub`).
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
from .engine import RealtimeEngine, SimulationEngine
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
    "RealtimeEngine",
    "SimulationEngine",
    "Store",
    "StoreGet",
    "RngHub",
]
