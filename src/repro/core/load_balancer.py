"""Load-balancing policies for distributing requests over service instances.

The paper employs "only a rudimentary load balancing" (§IV-E) -- i.e.
round-robin -- and names dynamic rerouting "to less used service instances"
as future work.  Both are implemented here (plus a random baseline), and
two telemetry-aware policies consume the load reports service instances
publish to the :class:`~repro.core.registry.EndpointRegistry` on every
heartbeat:

* :class:`LeastLoadedBalancer` -- fewest in-flight requests.  Without a
  registry it counts only requests *this* balancer routed (the client-local
  approximation); with a registry it adds the published fleet-wide backlog,
  making it a true least-loaded policy under many independent clients.
* :class:`JoinShortestQueueBalancer` -- classic JSQ on the published queue
  depth, normalised by instance capacity so a batching instance with four
  queued requests beats a serial one with two.

Published telemetry is heartbeat-periodic and therefore *stale*; both
policies add the balancer-local in-flight count as an optimistic correction
for requests sent since the last report.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence

from ..comm.message import Address

if TYPE_CHECKING:  # pragma: no cover
    from .registry import EndpointRegistry

__all__ = [
    "LoadBalancer",
    "RoundRobinBalancer",
    "RandomBalancer",
    "LeastLoadedBalancer",
    "JoinShortestQueueBalancer",
    "create_balancer",
]


class LoadBalancer:
    """Base policy: a subclass's ``pick(targets)`` chooses a target; the
    base observes request start and completion (a no-op here)."""

    name = "base"

    def record_start(self, target: Address) -> None:
        """A request to *target* is now in flight."""

    def record_done(self, target: Address) -> None:
        """A request to *target* completed."""


class RoundRobinBalancer(LoadBalancer):
    """The paper's rudimentary policy: cycle through instances."""

    name = "round-robin"

    def __init__(self) -> None:
        self._next = 0

    def pick(self, targets: Sequence[Address]) -> Address:
        if not targets:
            raise ValueError("no targets")
        target = targets[self._next % len(targets)]
        self._next += 1
        return target


class RandomBalancer(LoadBalancer):
    """Uniform random selection."""

    name = "random"

    def __init__(self, rng) -> None:
        self._rng = rng

    def pick(self, targets: Sequence[Address]) -> Address:
        if not targets:
            raise ValueError("no targets")
        return targets[int(self._rng.integers(len(targets)))]


class _ScoredBalancer(LoadBalancer):
    """Shared machinery: pick the minimum-score target, ties round-robin."""

    def __init__(self) -> None:
        #: by endpoint *name* (unique on the bus): hashing the frozen
        #: ``Address`` dataclass runs Python code on every score
        self._in_flight: Dict[str, int] = {}
        self._next = 0

    def pick(self, targets: Sequence[Address]) -> Address:
        if not targets:
            raise ValueError("no targets")
        scores = [(self._score(t), i) for i, t in enumerate(targets)]
        best = min(score for score, _ in scores)
        candidates = [i for score, i in scores if score == best]
        choice = candidates[self._next % len(candidates)]
        self._next += 1
        return targets[choice]

    def record_start(self, target: Address) -> None:
        name = target.name
        self._in_flight[name] = self._in_flight.get(name, 0) + 1

    def record_done(self, target: Address) -> None:
        name = target.name
        self._in_flight[name] = max(0, self._in_flight.get(name, 0) - 1)


class LeastLoadedBalancer(_ScoredBalancer):
    """Route to the instance with the fewest in-flight requests.

    Without *registry*, only locally-routed requests count (the seed
    behaviour).  With *registry*, the published fleet-wide backlog is added,
    so load caused by *other* clients is seen too.
    """

    name = "least-loaded"

    def __init__(self, registry: Optional["EndpointRegistry"] = None) -> None:
        super().__init__()
        self.registry = registry

    def _score(self, target: Address) -> float:
        score = float(self._in_flight.get(target.name, 0))
        if self.registry is not None:
            report = self.registry.load_for(target)
            if report is not None:
                score += report.backlog
        return score


class JoinShortestQueueBalancer(_ScoredBalancer):
    """JSQ over published telemetry, capacity-normalised.

    The score is the estimated wait in *dispatch rounds*: published backlog
    plus locally-unreported sends, divided by the instance's concurrent
    capacity (workers x batch size).  Instances without telemetry yet score
    by local in-flight only, so cold fleets degrade to least-loaded.
    """

    name = "join-shortest-queue"

    def __init__(self, registry: "EndpointRegistry") -> None:
        super().__init__()
        if registry is None:
            raise ValueError("JoinShortestQueueBalancer needs a registry")
        self.registry = registry

    def _score(self, target: Address) -> float:
        local = self._in_flight.get(target.name, 0)
        report = self.registry.load_for(target)
        if report is None:
            return float(local)
        # (backlog + local) / capacity, read off the report's fields
        return (report.queue_depth + report.in_flight + local) \
            / max(1, report.workers * report.max_batch_size)


def create_balancer(name: str, registry=None) -> LoadBalancer:
    """Factory by policy name (a :class:`RandomBalancer` takes its rng
    directly)."""
    if name == "round-robin":
        return RoundRobinBalancer()
    if name == "least-loaded":
        return LeastLoadedBalancer(registry=registry)
    if name == "join-shortest-queue":
        if registry is None:
            raise ValueError("join-shortest-queue needs a registry")
        return JoinShortestQueueBalancer(registry)
    raise KeyError(f"unknown balancer {name!r}")
