"""Discrete-event simulation kernel.

This is the substrate that stands in for ns-2 in the paper's evaluation: a
classic event-heap simulator with deterministic tie-breaking.  Everything in
the PHY/MAC stack (``repro.radio``, ``repro.mac``, ``repro.net``) runs on top
of a :class:`Simulator`.

Design notes
------------
* Events at equal timestamps fire in FIFO scheduling order (a monotone
  sequence number breaks ties), so runs are bit-for-bit reproducible.
* Cancellation is O(1): a cancelled :class:`EventHandle` is left in the heap
  and skipped when popped (lazy deletion), which is the standard trick for
  timer-heavy network simulations where most timers are cancelled.
* The kernel knows nothing about radios or packets; it only runs callbacks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Iterator

from .. import validate as _validate

__all__ = ["Simulator", "EventHandle", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised for kernel misuse (scheduling in the past, re-running, ...)."""


# Heap entries are plain (time, seq, handle) tuples: the unique monotone seq
# guarantees the handle is never compared, and tuples beat a dataclass with
# generated __lt__ by a wide margin on push/pop-heavy timer workloads.
_HeapEntry = tuple[float, int, "EventHandle"]


class EventHandle:
    """A scheduled callback; supports O(1) cancellation.

    Users obtain handles from :meth:`Simulator.schedule` /
    :meth:`Simulator.at` and may call :meth:`cancel` any time before the
    event fires.
    """

    __slots__ = ("time", "callback", "args", "_cancelled", "_fired")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.callback = callback
        self.args = args
        self._cancelled = False
        self._fired = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent; no-op if already fired."""
        self._cancelled = True

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and may still fire."""
        return not (self._cancelled or self._fired)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else ("fired" if self._fired else "pending")
        return f"<EventHandle t={self.time:.6f} {state} {getattr(self.callback, '__name__', self.callback)!r}>"


class Simulator:
    """Event-heap discrete-event simulator.

    >>> sim = Simulator()
    >>> out = []
    >>> _ = sim.schedule(1.0, out.append, "a")
    >>> _ = sim.schedule(0.5, out.append, "b")
    >>> sim.run()
    >>> out
    ['b', 'a']
    """

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._heap: list[_HeapEntry] = []
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self.events_processed = 0
        # Optional repro.obs.Telemetry: when set (by the simulation entry
        # points), each run() is wrapped in a wall-clock profile span
        # carrying the event count — one branch per run(), nothing per event.
        self.telemetry = None

    # -- inspection ---------------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def pending_count(self) -> int:
        """Number of heap entries not yet popped (includes cancelled ones)."""
        return len(self._heap)

    def peek_time(self) -> float | None:
        """Timestamp of the next live event, or ``None`` if the heap is drained."""
        self._drop_dead_entries()
        return self._heap[0][0] if self._heap else None

    def quiet_until(
        self, t_end: float, foreign: Callable[[EventHandle], bool] | None = None
    ) -> bool:
        """True when no live event up to and including *t_end* can observe or
        mutate radio/PHY state.

        Callbacks whose underlying function carries a truthy
        ``_radio_neutral`` attribute (e.g. CBR ticks, which only append to
        application queues) are ignored, and so is every event for which
        *foreign* (when given) returns True — the caller's proof that the
        event cannot touch the radios it is about to batch.  The vectorized
        slot engine uses this to decide whether a slot window is *clean* —
        i.e. whether it may replay the slot in closed form instead of
        through the event loop.  The scan is linear over the heap; polling
        workloads keep the heap small (one timer per traffic source plus a
        few fault timers).
        """
        for time, _, handle in self._heap:
            if (
                time <= t_end
                and not handle._cancelled
                and not getattr(handle.callback, "_radio_neutral", False)
                and (foreign is None or not foreign(handle))
            ):
                return False
        return True

    # -- scheduling ---------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule *callback(*args)* to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.at(self._now + delay, callback, *args)

    def at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule *callback(*args)* at absolute simulation *time*."""
        if time < self._now:
            # Log to the invariant monitor (raise_strict=False: the kernel's
            # own error below is the strict behaviour and tests pin its type).
            _validate.MONITOR.record(
                "kernel.schedule-past",
                f"event scheduled at t={time} before current time t={self._now}",
                sim_time=self._now,
                raise_strict=False,
            )
            raise SimulationError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        handle = EventHandle(time, callback, args)
        heapq.heappush(self._heap, (time, next(self._seq), handle))
        return handle

    # -- execution ----------------------------------------------------------

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def run(self, until: float | None = None) -> None:
        """Run events until the heap drains, ``until`` is reached, or :meth:`stop`.

        When ``until`` is given, the clock is advanced to exactly ``until``
        on return (even if the heap drained earlier), mirroring ns-2's
        ``$ns run`` + halt-at semantics so that duration-based statistics
        (energy, active time) integrate over the full window.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run())")
        self._running = True
        self._stopped = False
        tel = self.telemetry
        kernel_span = None
        if tel is not None and tel.enabled:
            from time import perf_counter

            kernel_span = tel.begin(
                "profile",
                "kernel.run",
                perf_counter(),
                clock="wall",
                until=until,
            )
            events_before = self.events_processed
        try:
            while self._heap and not self._stopped:
                time, _, handle = self._heap[0]
                if handle._cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and time > until:
                    break
                heapq.heappop(self._heap)
                if time < self._now:  # heap order is the clock's monotonicity
                    _validate.MONITOR.record(
                        "kernel.time-monotone",
                        f"event at t={time} fired after the clock reached "
                        f"t={self._now}",
                        sim_time=self._now,
                    )
                self._now = time
                handle._fired = True
                handle.callback(*handle.args)
                self.events_processed += 1
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            if kernel_span is not None:
                from time import perf_counter

                tel.finish(
                    kernel_span,
                    perf_counter(),
                    events=self.events_processed - events_before,
                    sim_time=self._now,
                )
                tel.metrics.counter("kernel.events").inc(
                    self.events_processed - events_before
                )

    def step(self) -> bool:
        """Run a single event.  Returns ``False`` if no live event remained."""
        self._drop_dead_entries()
        if not self._heap:
            return False
        time, _, handle = heapq.heappop(self._heap)
        if time < self._now:
            _validate.MONITOR.record(
                "kernel.time-monotone",
                f"event at t={time} fired after the clock reached t={self._now}",
                sim_time=self._now,
            )
        self._now = time
        handle._fired = True
        handle.callback(*handle.args)
        self.events_processed += 1
        return True

    # -- internals ----------------------------------------------------------

    def _drop_dead_entries(self) -> None:
        while self._heap and self._heap[0][2]._cancelled:
            heapq.heappop(self._heap)

    def drain(self) -> Iterator[float]:  # pragma: no cover - convenience
        """Yield event timestamps while stepping to exhaustion (debug helper)."""
        while self.step():
            yield self._now
