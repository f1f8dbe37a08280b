"""Runtime metrics: counters, gauges, histograms, and sim-time sampling.

Prometheus-flavoured but simulation-native: instruments are registered in a
:class:`MetricsRegistry` keyed by ``(name, labels)``, and a sampling daemon
snapshots every instrument at a fixed simulated-time interval, producing the
time series that live dashboards and tests consume.  The daemon is a
re-armed timer record (:class:`~repro.sim.events.Ticker`), not a process: a
tick is its timer's own kernel entry, and stopping it
(:meth:`~repro.pilot.session.Session.quiesce`) withdraws the armed tick and
takes the final sample in the call.  Poll callbacks let
subsystems expose *derived* values (queue depth, utilization) without being
woken on every mutation: the registry calls them once per sample tick.

Instruments:

* :class:`Counter`   -- monotonically increasing float (events, bytes);
* :class:`Gauge`     -- point-in-time value (queue depth, utilization);
* :class:`Histogram` -- fixed-bucket distribution (latencies, batch sizes)
  with cumulative bucket counts, sum and count, and a quantile estimate.

All values live in simulated time; nothing here touches the wall clock.
"""

from __future__ import annotations

import bisect
import math
from typing import (TYPE_CHECKING, Any, Callable, Dict, List, Optional,
                    Sequence, Tuple)

from ..sim.events import Ticker

if TYPE_CHECKING:  # pragma: no cover
    from ..sim.engine import SimulationEngine

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "DEFAULT_BUCKETS"]

LabelItems = Tuple[Tuple[str, str], ...]

#: default histogram buckets, latency-flavoured (seconds)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.001, 0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0, 1800.0)


def _label_key(labels: Optional[Dict[str, str]]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted(labels.items()))


class _Instrument:
    """Common identity for registered instruments."""

    kind = ""

    def __init__(self, name: str, labels: LabelItems) -> None:
        self.name = name
        self.labels = labels

    def __repr__(self) -> str:
        lbl = ",".join(f"{k}={v}" for k, v in self.labels)
        return f"<{type(self).__name__} {self.name}{{{lbl}}}>"


class Counter(_Instrument):
    """Monotonically increasing value."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge(_Instrument):
    """Point-in-time value."""

    kind = "gauge"

    def __init__(self, name: str, labels: LabelItems) -> None:
        super().__init__(name, labels)
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self) -> None:
        self.value -= 1.0


class Histogram(_Instrument):
    """Fixed-bucket distribution with sum/count and quantile estimation."""

    kind = "histogram"

    def __init__(self, name: str, labels: LabelItems,
                 buckets: Sequence[float] = DEFAULT_BUCKETS) -> None:
        super().__init__(name, labels)
        self.buckets: Tuple[float, ...] = tuple(sorted(buckets))
        if not self.buckets:
            raise ValueError("histogram needs at least one bucket bound")
        #: one count per finite bucket plus the +inf overflow bucket
        self.counts: List[int] = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the q-quantile (0 if empty).

        Rank semantics: the q-quantile of *n* observations is the
        ``max(1, ceil(q*n))``-th smallest, so ``q=0.0`` reports the
        bucket of the minimum (not the first -- possibly empty -- bucket
        bound) and ``q=1.0`` the bucket of the maximum.  A single
        observation answers every *q* with its own bucket.  Values beyond
        the last finite bucket report that last bound -- the usual
        fixed-bucket estimator caveat.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.count:
            return 0.0
        # the small epsilon keeps ceil() from inflating an exact product
        # (q=0.2 of 5 observations is rank 1, not rank 2)
        rank = max(1, math.ceil(q * self.count - 1e-9))
        cumulative = 0
        for i, c in enumerate(self.counts):
            cumulative += c
            if cumulative >= rank:
                return self.buckets[min(i, len(self.buckets) - 1)]
        return self.buckets[-1]


class MetricsRegistry:
    """Instrument store plus sim-time series sampling.

    ``counter()``/``gauge()``/``histogram()`` are get-or-create: calling
    twice with the same name+labels returns the same instrument, so
    instrumentation sites don't coordinate.  :meth:`sample` (driven by the
    sampling daemon) first runs the poll callbacks -- which push derived
    values into gauges -- then appends ``(t, value)`` to each counter's and
    gauge's series.  Histograms are sampled as their running count (their
    distribution is cumulative, not a time series).
    """

    def __init__(self) -> None:
        self._instruments: Dict[Tuple[str, LabelItems], _Instrument] = {}
        self._polls: List[Callable[[], None]] = []
        #: (name, labels) -> [(t, value), ...]
        self.series: Dict[Tuple[str, LabelItems], List[Tuple[float, float]]] \
            = {}
        self.sample_times: List[float] = []

    # -- get-or-create instruments -------------------------------------------
    def counter(self, name: str,
                labels: Optional[Dict[str, str]] = None) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str,
                  labels: Optional[Dict[str, str]] = None,
                  buckets: Sequence[float] = DEFAULT_BUCKETS) -> Histogram:
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = Histogram(name, key[1], buckets)
            self._instruments[key] = inst
        elif not isinstance(inst, Histogram):
            raise TypeError(f"{name} already registered as {inst.kind}")
        return inst

    def _get(self, cls, name: str,
             labels: Optional[Dict[str, str]]) -> _Instrument:
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            inst = cls(name, key[1])
            self._instruments[key] = inst
        elif not isinstance(inst, cls):
            raise TypeError(f"{name} already registered as {inst.kind}")
        return inst

    # -- polling + sampling ----------------------------------------------------
    def add_poll(self, fn: Callable[[], None]) -> None:
        """Register a callback run at the start of every sample tick."""
        self._polls.append(fn)

    def sample(self, t: float) -> None:
        """Snapshot all instruments at simulated time *t*."""
        for fn in self._polls:
            fn()
        self.sample_times.append(t)
        for key, inst in self._instruments.items():
            if inst.kind == "histogram":
                value = float(inst.count)  # type: ignore[union-attr]
            else:
                value = inst.value  # type: ignore[union-attr]
            self.series.setdefault(key, []).append((t, value))

    # -- queries ---------------------------------------------------------------
    def instruments(self, name: Optional[str] = None) -> List[_Instrument]:
        return [inst for (n, _), inst in self._instruments.items()
                if name is None or n == name]

    def value(self, name: str,
              labels: Optional[Dict[str, str]] = None) -> Optional[float]:
        inst = self._instruments.get((name, _label_key(labels)))
        if inst is None:
            return None
        if inst.kind == "histogram":
            return float(inst.count)  # type: ignore[union-attr]
        return inst.value  # type: ignore[union-attr]

    def series_for(self, name: str,
                   labels: Optional[Dict[str, str]] = None,
                   ) -> List[Tuple[float, float]]:
        """Sampled ``(t, value)`` series for one instrument (empty if none)."""
        return self.series.get((name, _label_key(labels)), [])

    def series_by_name(self, name: str,
                       ) -> Dict[LabelItems, List[Tuple[float, float]]]:
        """All label sets of *name*, mapped to their series."""
        return {labels: pts for (n, labels), pts in self.series.items()
                if n == name}

    # -- the sampling daemon ----------------------------------------------------
    def sampler(self, engine: "SimulationEngine", interval_s: float) -> Ticker:
        """The sampling daemon: a sample every *interval_s* simulated
        seconds, and a final one when it is stopped (``quiesce()``), so
        drain-time values -- pending depth back at zero, final utilization
        -- appear in the series.  Register it with
        :meth:`~repro.pilot.session.Session.add_daemon`."""
        def tick(_: Any) -> float:
            self.sample(engine.now)
            return interval_s
        return Ticker(engine, tick, first=interval_s, final=tick)
