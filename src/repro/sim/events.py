"""Event primitives for the discrete-event simulation (DES) kernel.

The kernel follows the classic process-interaction style (as popularised by
SimPy, re-implemented here from scratch): an :class:`Event` is a one-shot
occurrence with a value; a :class:`Process` wraps a generator that *yields*
events and is resumed when they trigger; :class:`Condition` composes events
(:func:`AllOf` / :func:`AnyOf`).  A runtime wait is a timer or a callback,
not a process: a :class:`Deferred` is one call at a time, a :class:`Ticker`
one re-armed by its own handler, a wait on one event a :class:`Hook` on it.

Events move through three phases:

1. *untriggered* -- created, value not decided;
2. *triggered*   -- value decided (ok or failed), scheduled on the engine;
3. *processed*   -- callbacks ran, value immutable.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .engine import SimulationEngine

__all__ = [
    "PENDING",
    "Event",
    "Deferred",
    "Hook",
    "Ticker",
    "Timeout",
    "Process",
    "Routine",
    "Interrupt",
    "Condition",
    "AllOf",
    "AnyOf",
]


class _Pending:
    """Sentinel for 'value not yet decided'."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "<PENDING>"


PENDING = _Pending()

#: Scheduling priorities (smaller runs first at equal timestamps).
URGENT = 0
NORMAL = 1


class Event:
    """A one-shot occurrence in simulated time.

    Callbacks are callables of one argument (the event) and run when the
    engine processes the event.  After processing, ``callbacks`` is ``None``
    and further registration is an error (observers must then inspect
    :attr:`ok`/:attr:`value` directly).

    The event hierarchy uses ``__slots__``: O(100k)-task campaigns allocate
    millions of events, and dropping the per-instance ``__dict__`` cuts
    both allocation time and peak memory on the control-plane hot path.
    """

    __slots__ = ("engine", "callbacks", "_value", "_ok", "_defused",
                 "_cancelled")

    def __init__(self, engine: "SimulationEngine") -> None:
        self.engine = engine
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = PENDING
        self._ok: Optional[bool] = None
        self._defused = False
        self._cancelled = False

    # -- state ---------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event value has been decided."""
        return self._value is not PENDING

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> Optional[bool]:
        """True if succeeded, False if failed, None if untriggered."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event value (or the exception instance, for failed events)."""
        if self._value is PENDING:
            raise RuntimeError(f"value of {self!r} is not yet available")
        return self._value

    def defuse(self) -> None:
        """Mark a failed event as handled so the engine does not re-raise."""
        self._defused = True

    # -- triggering ----------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with *value*."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self.engine.schedule(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with *exception* as its value."""
        if self._value is not PENDING:
            raise RuntimeError(f"{self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        self.engine.schedule(self)
        return self

    def __repr__(self) -> str:
        state = "processed" if self.processed else (
            "triggered" if self.triggered else "pending")
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Deferred:
    """Pooled leaf entry for the engine's direct-callback fast path.

    Deliberately *not* an :class:`Event`: it carries no value, no callback
    list and no :class:`Process` wiring -- just a function and a single
    argument the dispatch loop invokes directly.  Instances are created via
    :meth:`SimulationEngine.call_later` and recycled into an engine-owned
    free list once fired, so after warm-up a leaf wait (message-bus
    delivery, link timer) costs zero allocations.

    Contract: :meth:`cancel` is valid strictly *before* the fire time.
    Fired handles return to the pool and may already back an unrelated
    call, so cancelling one later is a bug in the caller.  Cancelled
    handles are dropped (never pooled), which keeps a defensive second
    ``cancel()`` harmless.
    """

    __slots__ = ("fn", "arg", "_cancelled")

    def __init__(self) -> None:
        self.fn: Optional[Callable[[Any], None]] = None
        self.arg: Any = None
        self._cancelled = False

    def cancel(self) -> None:
        """Withdraw the deferred call before it fires."""
        self._cancelled = True
        self.fn = None
        self.arg = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "cancelled" if self._cancelled else "armed"
        return f"<Deferred {state} at {id(self):#x}>"


class Hook:
    """A callback on an event someone else triggers, that its owner may
    withdraw: ``fn(arg, error)`` runs when *event* is processed -- *error*
    None if it succeeded, else what it failed with -- unless :meth:`cancel`
    came first.  *event* must not be processed yet.
    """

    __slots__ = ("event", "fn", "arg")

    def __init__(self, event: Event, fn: Callable[[Any, Any], None],
                 arg: Any) -> None:
        self.event, self.fn, self.arg = event, fn, arg
        event.callbacks.append(self._fire)

    def _fire(self, event: Event) -> None:
        self.fn(self.arg, None if event._ok else event._value)

    def cancel(self) -> None:
        """Take the callback off its event.  An event processed without
        running it (an earlier callback raised) has nothing left to take."""
        callbacks = self.event.callbacks
        if callbacks is not None:
            callbacks.remove(self._fire)


#: a Ticker's timer while its start entry is pending or its handler runs:
#: never scheduled, so withdrawing it is harmless
_UNARMED = Deferred()


class Ticker:
    """A keep-alive as a record: one armed timer, re-armed by its handler.

    ``fn(arg)`` runs inside the timer's own kernel entry and returns the
    delay to its next call, or ``None`` to end.  Starting costs one URGENT
    zero-delay entry (where a :class:`Process` ran its body to its first
    yield); it takes the first delay from *first* -- a number, or a
    function of *arg* -- or, with ``first=None``, is the first call of *fn*.

    A session daemon: :meth:`interrupt` withdraws the armed timer in the
    call, then runs ``final(arg)``.  Interrupted before its start entry, it
    still makes that first call (a process body ran to its first yield
    before an interrupt could land) and arms nothing.
    """

    __slots__ = ("engine", "fn", "arg", "final", "_timer")

    def __init__(self, engine: "SimulationEngine",
                 fn: Callable[[Any], Optional[float]], arg: Any = None,
                 first: Any = None,
                 final: Optional[Callable[[Any], Any]] = None) -> None:
        self.engine, self.fn, self.arg, self.final = engine, fn, arg, final
        self._timer: Optional[Deferred] = _UNARMED
        engine.call_later(0.0, self._start, first, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        return self._timer is not None

    def _start(self, first: Any) -> None:
        delay = (self.fn(self.arg) if first is None else
                 first(self.arg) if callable(first) else first)
        self._arm(delay)

    def _fire(self, _: Any) -> None:
        self._timer = _UNARMED
        self._arm(self.fn(self.arg))

    def _arm(self, delay: Optional[float]) -> None:
        if self._timer is _UNARMED:  # not interrupted meanwhile
            self._timer = (None if delay is None
                           else self.engine.call_later(delay, self._fire))

    def interrupt(self, cause: Any = None) -> None:
        """Withdraw the armed timer, run the final hook; a no-op once
        ended or stopped."""
        timer, self._timer = self._timer, None
        if timer is not None:
            timer.cancel()
            if self.final is not None:
                self.final(self.arg)


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("_delay",)

    def __init__(self, engine: "SimulationEngine", delay: float) -> None:
        if not delay >= 0:  # written this way round so that NaN is refused
            raise ValueError(f"negative or NaN delay {delay}")
        super().__init__(engine)
        self._delay = delay
        self._ok = True
        self._value = None
        engine.schedule(self, delay=delay)

    def cancel(self) -> None:
        """Withdraw the timeout before it fires.

        Cancelled timeouts are skipped by the engine *without advancing the
        clock*, so early-terminated watchdogs (walltime timers, liveness
        probes) do not drag simulated time to their original deadline.
        """
        if self.processed:
            raise RuntimeError("cannot cancel an already-processed timeout")
        self._cancelled = True

    def __repr__(self) -> str:
        return f"<Timeout delay={self._delay} at {id(self):#x}>"


class Interrupt(Exception):
    """Thrown into a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0] if self.args else None


class Process(Event):
    """A generator-based simulation process.

    The wrapped generator yields :class:`Event` instances; the process is
    resumed with the event's value once it triggers (or the exception is
    thrown into the generator if the event failed).  The process itself is an
    event that triggers when the generator returns (value = return value) or
    raises (failed event).
    """

    __slots__ = ("_generator", "_target")

    def __init__(self, engine: "SimulationEngine",
                 generator: Generator[Event, Any, Any]) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(engine)
        self._generator = generator
        #: the event the generator waits on (None while it runs)
        self._target: Optional[Event] = None
        # Kick off the process via an immediate initialisation event.
        init = Event(engine)
        init._ok = True
        init._value = None
        init.callbacks.append(self._resume)
        engine.schedule(init, priority=URGENT)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not terminated."""
        return self._value is PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at its next resume.

        Interrupting a terminated process is a silent no-op, which makes
        shutdown paths idempotent.
        """
        if self._value is PENDING:
            self.engine.call_later(0.0, self.throw, Interrupt(cause),
                                   priority=URGENT)

    def throw(self, exception: BaseException) -> None:
        """Raise *exception* in the generator now, at the yield it waits in
        (a no-op once it has ended).  The caller is a kernel entry."""
        if self._value is not PENDING:
            return
        target = self._target
        if target is not None and target.callbacks is not None:
            try:
                target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - defensive
                pass
        carrier = Event(self.engine)
        carrier._ok, carrier._value = False, exception
        self._resume(carrier)

    # -- resume machinery -----------------------------------------------------
    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*."""
        self._target = None
        engine = self.engine
        while True:
            engine.resumes += 1
            try:
                if event._ok:
                    next_event = self._generator.send(event._value)
                else:
                    # The process observes the failure; mark it defused so the
                    # engine does not re-raise on its own.
                    event._defused = True
                    next_event = self._generator.throw(event._value)
            except StopIteration as stop:
                self._exit(True, stop.value)
                break
            except BaseException as exc:
                self._exit(False, exc)
                break

            if not isinstance(next_event, Event):
                raise RuntimeError(
                    f"process yielded a non-event: {next_event!r}")
            if next_event.callbacks is not None:
                # Untriggered or not-yet-processed: wait for it.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                break
            # Already processed: consume its value immediately (no recursion).
            event = next_event

    def _exit(self, ok: bool, value: Any) -> None:
        """The generator ended: trigger the process event with its outcome."""
        self._ok = ok
        self._value = value
        self.engine.schedule(self)

    def __repr__(self) -> str:
        name = getattr(self._generator, "__name__", str(self._generator))
        return f"<{type(self).__name__}({name}) at {id(self):#x}>"


class _Started:  # what Routine.start resumes with: ok, no value
    _ok, _value = True, None


class Routine(Process):
    """A generator run *inside* the kernel entries of whoever starts it.

    :meth:`start` runs it to its first yield within the caller's kernel
    entry, and its exit calls ``then(arg, ok, value)`` within the entry that
    ended it -- what ``yield from`` gives a surrounding process, with no
    initialisation and no termination event.  Never scheduled: nobody can
    wait on it, and a failure goes to *then*, not to the engine.
    """

    __slots__ = ("_then", "_arg")

    def __init__(self, engine: "SimulationEngine",
                 generator: Generator[Event, Any, Any],
                 then: Callable[[Any, bool, Any], None], arg: Any) -> None:
        Event.__init__(self, engine)
        self._generator = generator
        self._target = None
        self._then = then
        self._arg = arg

    def start(self) -> None:
        self._resume(_Started)  # type: ignore[arg-type]

    def _exit(self, ok: bool, value: Any) -> None:
        self._ok = ok
        self._value = value
        self._then(self._arg, ok, value)


class Condition(Event):
    """An event that triggers based on the outcome of several events.

    *evaluate* receives (events, num_triggered_ok) and returns True once the
    condition is met.  The condition fails as soon as any constituent fails.
    The success value is an ordered dict mapping each *triggered* event to its
    value.
    """

    __slots__ = ("_evaluate", "_events", "_count")

    def __init__(self, engine: "SimulationEngine",
                 evaluate: Callable[[List[Event], int], bool],
                 events: List[Event]) -> None:
        super().__init__(engine)
        self._evaluate = evaluate
        self._events = list(events)
        self._count = 0

        for event in self._events:
            if event.engine is not engine:
                raise ValueError("cannot mix events from different engines")

        if not self._events:
            self.succeed({})
            return

        check = self._check  # one bound method for every constituent
        for event in self._events:
            if event.callbacks is None:  # already processed
                check(event)
            else:
                event.callbacks.append(check)

    def _collect_values(self) -> dict:
        # Only *processed* events count: a pending Timeout pre-assigns its
        # value at creation (so .triggered is True early), but it has not
        # occurred until the engine processes it.
        return {ev: ev._value for ev in self._events if ev.processed and ev._ok}

    def _check(self, event: Event) -> None:
        if self._value is not PENDING:
            return  # already decided (e.g. failed earlier)
        if not event._ok:
            event._defused = True
            self.fail(event._value)  # type: ignore[arg-type]
            return
        self._count += 1
        if self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())


def AllOf(engine: "SimulationEngine", events: List[Event]) -> Condition:
    """Condition that triggers once *all* events have succeeded."""
    return Condition(engine, lambda evs, n: n == len(evs), events)


def AnyOf(engine: "SimulationEngine", events: List[Event]) -> Condition:
    """Condition that triggers once *any* event has succeeded."""
    return Condition(engine, lambda evs, n: n >= 1, events)
