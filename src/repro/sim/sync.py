"""Synchronization primitives for simulation processes.

Two primitives cover everything the cluster layer needs:

* :class:`Store` — an unbounded FIFO mailbox.  Every daemon (cmsd, xrootd,
  client) is a process looping on ``msg = yield inbox.get()``.  The
  network's delivery timers fill it with :meth:`Store.deliver`, which
  resumes a daemon parked on ``get()`` on the spot instead of scheduling
  a second wake-up at the same instant.  A daemon that spends a service
  time on each message loops on ``msg = yield inbox.serve(draw)``
  instead: the item is handed over once its service time has passed,
  so each message costs one resume and two heap entries (its delivery
  timer and its service completion), whether the daemon was parked or
  busy when it arrived.
* :class:`Resource` — a counting semaphore used to model finite server
  capacity (disk streams, CPU slots) so load experiments produce queueing
  rather than infinite parallelism.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from repro.sim.kernel import Event, Simulator
from repro.sim.kernel import _fire_event, _heappush, _PENDING  # hot-path handoff (see Store)

__all__ = ["Store", "Resource"]

_new_event = Event.__new__


class _Served(Event):
    """A :meth:`Store.serve` getter; *draw* gives its item's service time."""

    __slots__ = ("draw",)


class Store:
    """Unbounded FIFO of items; ``get`` events fire in request order.

    Items put while getters wait are handed over immediately (at the same
    simulated time); otherwise they queue.  A getter whose process was
    interrupted while parked has no waiter left; it is discarded instead
    of swallowing the next item, so a daemon restarted on the same inbox
    receives the first message sent to it.  (A getter must therefore be
    yielded before anything is put: the ``yield store.get()`` idiom.)
    """

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit *item*; wakes the oldest waiting getter, if any.

        The wakeup is queued at the current time (a served getter's after
        its service time, drawn now), so ``put`` is safe from inside a
        running process.  It inlines ``Event.succeed`` on the getter we
        just proved pending (the kernel ``store`` scenario in
        ``benchmarks/perf`` times this path).
        """
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.callbacks:
                continue  # its process was interrupted: nobody would take it
            getter._value = item
            sim = getter.sim
            when = sim._now + getter.draw() if getter.__class__ is _Served else sim._now
            _heappush(sim._heap, (when, sim._seq, _fire_event, getter))
            sim._seq += 1
            return
        self._items.append(item)

    def deliver(self, item: Any) -> None:
        """:meth:`put` for kernel callbacks: a parked getter runs *now*.

        The oldest pending getter fires synchronously — its waiter resumes
        inside this call, at the current time — instead of being queued
        as a second event at the same instant.  Only call this from a
        :meth:`Simulator.call_later <repro.sim.kernel.Simulator.call_later>`
        callback, never from inside a running process: the resumed
        generator may be the caller's own.

        A parked :meth:`serve` getter is not resumed: its service time
        is drawn here and its completion scheduled that far ahead.
        """
        getters = self._getters
        while getters:
            getter = getters.popleft()
            if not getter.callbacks:
                continue  # its process was interrupted: nobody would take it
            getter._value = item
            if getter.__class__ is _Served:
                sim = getter.sim
                _heappush(sim._heap, (sim._now + getter.draw(), sim._seq, _fire_event, getter))
                sim._seq += 1
            else:
                _fire_event(getter)
            return
        self._items.append(item)

    def get(self) -> Event:
        """Event yielding the next item (immediately if one is queued)."""
        # Event(...) flattened (one get per consumed message): skip the
        # class-call/__init__ round trip for a plain slot fill.
        ev = _new_event(Event)
        ev.callbacks = []
        ev._exception = None
        sim = ev.sim = self.sim
        items = self._items
        if items:
            # Inlined ev.succeed(...): the event is fresh, provably pending.
            ev._value = items.popleft()
            _heappush(sim._heap, (sim._now, sim._seq, _fire_event, ev))
            sim._seq += 1
        else:
            ev._value = _PENDING
            self._getters.append(ev)
        return ev

    def serve(self, draw: Callable[[], float]) -> Event:
        """Event yielding the next item after a service time of ``draw()``.

        Models a single-server FIFO queue in front of the caller: service
        of the next item starts now if one is queued, else when one
        arrives (:meth:`deliver`/:meth:`put`), and ``draw`` is called at
        that moment.  The event fires when service ends, so a daemon
        looping ``msg = yield inbox.serve(draw)`` resumes once per item.
        If the caller is interrupted — parked or in service — the getter
        is skipped: it takes no item from the queue, and an item already
        in service is dropped with the caller.
        """
        ev = _new_event(_Served)
        ev.callbacks = []
        ev._exception = None
        ev.draw = draw
        sim = ev.sim = self.sim
        items = self._items
        if items:
            ev._value = items.popleft()
            _heappush(sim._heap, (sim._now + draw(), sim._seq, _fire_event, ev))
            sim._seq += 1
        else:
            ev._value = _PENDING
            self._getters.append(ev)
        return ev

    def drain(self) -> list[Any]:
        """Remove and return all queued items without waiting."""
        items = list(self._items)
        self._items.clear()
        return items


class Resource:
    """Counting semaphore with FIFO granting.

    Usage::

        grant = yield resource.acquire()
        try:
            ...
        finally:
            resource.release()
    """

    def __init__(self, sim: Simulator, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: deque[Event] = deque()

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def queued(self) -> int:
        return sum(1 for w in self._waiters if not w.triggered)

    @property
    def utilization(self) -> float:
        return self._in_use / self.capacity

    def acquire(self) -> Event:
        ev = Event(self.sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            ev.succeed()
        else:
            self._waiters.append(ev)
        return ev

    def release(self) -> None:
        if self._in_use <= 0:
            raise RuntimeError("release without acquire")
        while self._waiters:
            waiter = self._waiters.popleft()
            if waiter.triggered:
                continue
            waiter.succeed()  # hand the slot straight over
            return
        self._in_use -= 1
