"""Layer spans recorded from outside the program.

The benchmark times each ``src/repro`` layer by wrapping that layer's entry
points for the length of a traced run and putting the originals back
afterwards; no module under ``src/`` knows it is being traced.

* A plain function or method becomes one span per call.
* A generator function (a coroutine the kernel drives) becomes one span per
  *resume*: the span opens when the kernel sends into the generator and
  closes when it yields again, so a coroutine that sleeps for simulated
  seconds is charged only for the host time it actually runs.
* ``gc.callbacks`` adds a ``gc`` span for every collection, as a child of
  whatever span was running when the collector started.

Spans live in flat arrays (name, start, end, parent, op id) and can be
written to disk with :meth:`SpanLog.write` when the run ends.  A layer's self
time is the sum over its spans of duration minus the time covered by child
spans (:func:`self_times`).
"""

from __future__ import annotations

import functools
import gc
import json
import time
from array import array

from repro.cluster import cmsd as _cmsd
from repro.cluster import protocol as _protocol
from repro.cluster.client import ScallaClient
from repro.cluster.xrootd import XrootdServer
from repro.core.cache import NameCache
from repro.core.response_queue import ResponseQueue
from repro.obs.registry import Counter, Gauge
from repro.obs.trace import ResolutionTrace, Tracer
from repro.sim.kernel import Process, Simulator
from repro.sim.monitor import Histogram
from repro.sim.network import Network

__all__ = ["ENTRY_POINTS", "SpanLog", "LayerTracer", "self_times", "load_spans"]

_now = time.perf_counter

#: (owner, attribute, span name, is generator).  The span name's prefix up
#: to the first dot is the layer it is charged to.
ENTRY_POINTS = [
    (Simulator, "run", "kernel.run", False),
    (Simulator, "run_until_process", "kernel.run", False),
    (Network, "send", "network.send", False),
    (_protocol, "estimate_size", "protocol.size", False),
    (_cmsd.Cmsd, "_main_loop", "cmsd.loop", True),
    (_cmsd.Cmsd, "_dispatch", "cmsd.handle", False),
    (_cmsd.Cmsd, "_response_clock", "cmsd.clock", True),
    (_cmsd.Cmsd, "_heartbeat_loop", "cmsd.heartbeat", True),
    (_cmsd.Cmsd, "_liveness_sweep", "cmsd.sweep", True),
    (NameCache, "lookup", "cache.lookup", False),
    (NameCache, "update_holder", "cache.update", False),
    (NameCache, "refresh", "cache.update", False),
    (NameCache, "invalidate", "cache.update", False),
    (NameCache, "tick", "cache.tick", False),
    (NameCache, "run_background_removal", "cache.tick", False),
    (ResponseQueue, "add_waiter", "rq.add_waiter", False),
    (ResponseQueue, "on_response", "rq.respond", False),
    (ResponseQueue, "on_late_response", "rq.respond", False),
    (ResponseQueue, "expire", "rq.expire", False),
    (XrootdServer, "_main_loop", "xrootd.loop", True),
    (XrootdServer, "_handle", "xrootd.handle", True),
    (ScallaClient, "_inbox_loop", "client.inbox", True),
    (ScallaClient, "locate", "client.locate", True),
    (ScallaClient, "open", "client.open", True),
    (ScallaClient, "read", "client.read", True),
    (ScallaClient, "write", "client.write", True),
    (ScallaClient, "close", "client.close", True),
    (ScallaClient, "stat", "client.stat", True),
    (ScallaClient, "remove", "client.remove", True),
    (ScallaClient, "prepare", "client.prepare", True),
    (ScallaClient, "fetch", "client.fetch", True),
    (Counter, "inc", "obs.counter", False),
    (Gauge, "set", "obs.gauge", False),
    (Gauge, "add", "obs.gauge", False),
    (Histogram, "record", "obs.histogram", False),
    (Tracer, "start", "obs.trace", False),
    (Tracer, "active", "obs.trace", False),
    (Tracer, "event", "obs.trace", False),
    (Tracer, "finish", "obs.trace", False),
    (Tracer, "cluster_event", "obs.trace", False),
    (ResolutionTrace, "begin", "obs.trace", False),
    (ResolutionTrace, "end", "obs.trace", False),
    (ResolutionTrace, "open_span", "obs.trace", False),
    (ResolutionTrace, "event", "obs.trace", False),
]

_FIELDS = (("name", "i"), ("start", "d"), ("end", "d"), ("parent", "i"), ("op", "i"))


class SpanLog:
    """In-memory span store: one array per field, indexed by span id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()
        #: Op the running code belongs to; -1 outside any benchmark op.
        self.current_op = -1

    def reset(self) -> None:
        for field, code in _FIELDS:
            setattr(self, field, array(code))
        self._stack: list[int] = []
        #: Spans opened per name, plus generator instances created per name
        #: under ``<name>.new``.
        self.calls: dict[str, int] = {}

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str) -> None:
        self.calls[name] = self.calls.get(name, 0) + 1

    def open(self, nid: int, name: str) -> int:
        i = len(self.name)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        stack.append(i)
        self.calls[name] = self.calls.get(name, 0) + 1
        self.start.append(_now())
        return i

    def close(self, i: int) -> None:
        self.end[i] = _now()
        self._stack.pop()

    def add_closed(self, nid: int, start: float, end: float) -> None:
        """Record a span that was not on the stack (a GC pause)."""
        self.name.append(nid)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)

    def write(self, path) -> None:
        """Write the spans: one JSON header line, then each field's raw array."""
        header = {"names": self.names, "count": len(self), "fields": [f for f, _ in _FIELDS]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for field, _code in _FIELDS:
                getattr(self, field).tofile(fh)


def load_spans(path) -> tuple[list[str], dict[str, array]]:
    """Read a file written by :meth:`SpanLog.write`; returns (names, fields)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        fields = {}
        for field, code in _FIELDS:
            arr = array(code)
            arr.fromfile(fh, header["count"])
            fields[field] = arr
    return header["names"], fields


def self_times(names, name, start, end, parent) -> dict[str, float]:
    """Host seconds of self time per span name.

    A span's self time is its duration minus the durations of its direct
    children; children of one span never overlap, since the program is
    single-threaded and spans close in the order they opened.
    """
    child = [0.0] * len(name)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    totals: dict[str, float] = {}
    for i, nid in enumerate(name):
        key = names[nid]
        totals[key] = totals.get(key, 0.0) + (end[i] - start[i]) - child[i]
    return totals


def _wrap_call(fn, log: SpanLog, name: str):
    nid = log.name_id(name)
    open_, close = log.open, log.close

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = open_(nid, name)
        try:
            return fn(*args, **kwargs)
        finally:
            close(i)

    return traced


def _resumes(gen, log: SpanLog, nid: int, name: str):
    """Drive *gen*, timing each resume as one span."""
    open_, close = log.open, log.close
    value = exc = None
    while True:
        i = open_(nid, name)
        try:
            out = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            return stop.value
        finally:
            close(i)
        try:
            value, exc = (yield out), None
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as err:  # re-raised inside gen by the next throw()
            value, exc = None, err


def _wrap_gen(fn, log: SpanLog, name: str):
    nid = log.name_id(name)
    created = name + ".new"

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        log.count(created)
        return _resumes(fn(*args, **kwargs), log, nid, name)

    return traced


def _count_process(fn, log: SpanLog):
    @functools.wraps(fn)
    def counted(self, *args, **kwargs):
        log.count("kernel.spawn")
        fn(self, *args, **kwargs)

    return counted


class LayerTracer:
    """Installs span wrappers on every layer entry point, and removes them.

    Use as a context manager; on exit every wrapped attribute is restored
    to the exact object it held before, and the GC callback is removed.
    """

    def __init__(self) -> None:
        self.log = SpanLog()
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0
        self._gc_nid = self.log.name_id("gc.pause")

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        log = self.log
        for owner, attr, name, is_gen in ENTRY_POINTS:
            fn = owner.__dict__[attr]
            wrap = _wrap_gen if is_gen else _wrap_call
            self._patch(owner, attr, wrap(fn, log, name))
        self._patch(Process, "__init__", _count_process(Process.__dict__["__init__"], log))
        gc.callbacks.append(self._on_gc)

    def restore(self) -> None:
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        else:
            self.log.add_closed(self._gc_nid, self._gc_start, _now())
            self.log.count("gc.collections")

    def __enter__(self) -> "LayerTracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
