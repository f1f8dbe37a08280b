"""Discrete-event simulation kernel.

Built from scratch for this reproduction: a process-interaction DES core
(:class:`SimulationEngine`), a wall-clock paced variant
(:class:`RealtimeEngine`) for running real workloads, resource primitives,
and deterministic named RNG streams (:class:`RngHub`).
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
from .resources import (
    Container,
    FilterStore,
    PriorityResource,
    Request,
    Resource,
    Store,
)
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
    "Container",
    "FilterStore",
    "PriorityResource",
    "Request",
    "Resource",
    "Store",
    "RngHub",
]
