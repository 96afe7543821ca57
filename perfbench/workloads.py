"""The benchmark's three workloads.

Each workload builds a cluster from its seed, then runs a stream of client
operations in fixed *chunks*: a chunk is a deterministic unit of work (a
number of closed-loop operations, or one simulated second of open-loop
arrivals), so the same seed always produces the same operations, the same
simulated latencies and the same counters, however fast the host is.  The
runner keeps running chunks until its time budget is spent; simulated
latencies and per-op counts are taken over the first ``prefix_chunks``
chunks only, which makes them bit-identical between same-seed runs.

Every operation is checked against an oracle built from the true file
placement (the benchmark's own record of which server holds which file),
never from the program's answers.
"""

from __future__ import annotations

import math
import random

from repro.cluster import ScallaCluster, ScallaConfig
from repro.cluster.client import NoSuchFile, ScallaError
from repro.sim.errors import SimError
from repro.workloads.namegen import sequential_paths
from repro.workloads.popularity import ZipfChooser

from perf.perf_e2e import _build as build_e1

__all__ = ["WORKLOADS", "Workload", "WarmE1", "ColdFlood", "ZipfMixed", "percentile"]

READ, WRITE, REMOVE, MISS, GONE = "read", "write", "remove", "miss", "gone"

#: Simulated seconds an operation may take before it counts as timed out.
#: The slowest correct operation (a read of a removed file: two full 5 s
#: delays plus a refresh) takes about 10.3 s.
OP_DEADLINE = 60.0

#: Span of the benchmark's own code that runs inside the simulation; the
#: per-layer metrics charge it to no layer.
BENCH_SPAN = "bench.op"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of *values* (0 < q <= 1)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Workload:
    """Set-up, a chunked operation stream, and the oracle's verdicts."""

    name = ""
    #: Chunks over which simulated latencies and per-op counts are taken.
    prefix_chunks = 1
    #: Timed set-up samples per run; ``setup_s`` is their median.  The
    #: measured phase is split into as many segments, one per set-up.
    setups = 4
    #: Builds per set-up sample, timed together, for set-ups too short to
    #: time one at a time.
    setup_block = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rng = random.Random(seed)
        self.cluster: ScallaCluster | None = None
        #: path -> servers whose disk holds it (the oracle's truth).
        self.placement: dict[str, set[str]] = {}
        #: Simulated latency (seconds) of every correct op in the prefix, by kind.
        self.samples: dict[str, list[float]] = {k: [] for k in (READ, WRITE, REMOVE, MISS, GONE)}
        self.done = 0
        self.failed = 0
        self.errors: list[str] = []
        self.chunks = 0
        #: The traced run's span log; spans opened while an op runs carry
        #: its id.
        self.span_log = None

    # -- to implement ------------------------------------------------------

    def setup(self) -> None:
        """Build, populate, settle and warm up; nothing here is measured."""
        raise NotImplementedError

    def run_chunk(self) -> None:
        raise NotImplementedError

    @property
    def exhausted(self) -> bool:
        """True when the workload has no fresh inputs left for a chunk."""
        return False

    def timed_out(self) -> int:
        """Ops still running past ``OP_DEADLINE`` when the run stops."""
        return 0

    # -- shared ------------------------------------------------------------

    def finish(self, kind: str, latency: float, error: str | None = None) -> None:
        self.done += 1
        if error is None:
            # Only the prefix is reported; keeping later samples would make
            # the process's memory grow with the number of ops run.
            if self.chunks < self.prefix_chunks:
                self.samples[kind].append(latency)
            return
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(f"{kind}: {error}")

    def begin_measurement(self) -> None:
        """Forget the warm-up ops, so results cover the measured phase only."""
        for values in self.samples.values():
            values.clear()
        self.done = self.failed = 0
        self.chunks = 0

    def sim_metrics(self) -> dict[str, float]:
        """Simulated latencies (µs) of the ops recorded so far; 0.0 when a
        kind has no samples on this workload."""

        def us(kind: str, q: float) -> float:
            vals = self.samples[kind]
            return percentile(vals, q) * 1e6 if vals else 0.0

        return {
            "read_p50_us": us(READ, 0.5),
            "read_p90_us": us(READ, 0.9),
            "write_p50_us": us(WRITE, 0.5),
            "miss_p50_us": us(MISS, 0.5),
        }

    def counters(self) -> dict[str, int]:
        """Cumulative deterministic counters of the whole cluster."""
        c = self.cluster
        net = c.network.stats
        out = {
            "ops": self.done,
            "failed": self.failed,
            "kernel.events": c.sim.events_processed,
            "network.msgs": net.sent,
            "network.bytes": net.bytes_sent,
            "network.dropped": net.dropped,
        }

        def add(prefix: str, stats) -> None:
            for key, value in vars(stats).items():
                if isinstance(value, int):  # skips per-parent dicts and float timers
                    out[f"{prefix}.{key}"] = out.get(f"{prefix}.{key}", 0) + value

        for node in c.nodes.values():
            if node.cmsd is not None:
                add("cmsd", node.cmsd.stats)
                if node.cmsd.cache is not None:
                    add("cache", node.cmsd.cache.stats)
        for client in self.clients():
            add("client", client.stats)
        return out

    def clients(self):
        return ()

    def check_located(self, path: str, node: str) -> str | None:
        holders = self.placement.get(path, set())
        if node not in holders:
            return f"{path} located on {node}, true holders {sorted(holders)}"
        return None


class _ClosedLoop(Workload):
    """One client, one locate at a time, each from a fixed path order.

    A chunk is a burst of ``chunk_ops`` locates followed by ``idle``
    simulated seconds with no client traffic.  The idle gap lets the timers
    a burst leaves behind fire (locate timeouts, fast-response windows), so
    every chunk starts from the same event-heap size: without it the heap,
    the memory and the host cost of a locate would grow with run length,
    and a faster host would measure a heavier workload.
    """

    chunk_ops = 1
    idle = 0.0

    def _start_client(self) -> None:
        self.client = self.cluster.client()
        self.next_op = 0

    def clients(self):
        return (self.client,)

    def locate(self, path: str) -> None:
        c = self.cluster
        t0 = c.sim.now
        try:
            node, pending = c.run_process(self.client.locate(path), limit=t0 + OP_DEADLINE)
        except (ScallaError, SimError) as exc:
            self.finish(READ, 0.0, f"{path}: {exc!r}")
            return
        err = self.check_located(path, node)
        if err is None and pending:
            err = f"{path} reported pending on {node}"
        self.finish(READ, c.sim.now - t0, err)

    def run_chunk(self) -> None:
        log = self.span_log
        for _ in range(self.chunk_ops):
            if log is not None:
                log.current_op = self.next_op
            self.locate(self.path_for(self.next_op))
            self.next_op += 1
        if log is not None:
            log.current_op = -1
        self.cluster.settle(self.idle)
        self.chunks += 1

    def path_for(self, i: int) -> str:
        raise NotImplementedError


class WarmE1(_ClosedLoop):
    """E1 shape: 16 servers, fanout 4, 32 files; every locate hits the cache."""

    name = "warm-e1"
    chunk_ops = 1000
    #: Longer than the client's 2 s locate timeout.
    idle = 2.5
    prefix_chunks = 2
    setups = 8
    setup_block = 4

    def setup(self) -> None:
        self.cluster, self.paths = build_e1(self.seed)
        for path in self.paths:
            self.placement[path] = {
                s for s in self.cluster.servers if self.cluster.nodes[s].fs.exists(path)
            }
        self.rng.shuffle(self.paths)
        self._start_client()
        for path in self.paths:
            self.locate(path)

    def path_for(self, i: int) -> str:
        return self.paths[i % len(self.paths)]


class ColdFlood(_ClosedLoop):
    """512 servers, fanout 8 (depth 3); every locate floods the whole tree."""

    name = "cold-flood"
    chunk_ops = 10
    #: Longer than the 133 ms fast-response window.
    idle = 0.2
    prefix_chunks = 10
    setups = 6
    warm_ops = 5
    n_files = 20_000

    def setup(self) -> None:
        self.cluster = ScallaCluster(512, config=ScallaConfig(seed=self.seed, fanout=8))
        paths = sequential_paths(self.n_files, prefix="/store/flood")
        placed = self.cluster.populate(paths, copies=2, rng=random.Random(self.rng.random()))
        self.placement = {p: set(s) for p, s in placed.items()}
        self.cluster.settle()
        self.order = paths
        self.rng.shuffle(self.order)
        self._start_client()
        for _ in range(self.warm_ops):
            self.locate(self.order.pop())

    @property
    def exhausted(self) -> bool:
        return self.next_op + self.chunk_ops > len(self.order)

    def path_for(self, i: int) -> str:
        return self.order[i]


class ZipfMixed(Workload):
    """128 servers, fanout 16, observability on; open-loop mixed traffic.

    Poisson arrivals at ``rate`` ops per simulated second.  Each arrival is
    one of: a Zipf(1.1) read of a pre-loaded file, a create+write+close of a
    new file, a read back of a file created earlier, a remove of a file
    created earlier, a lookup of a name that never existed, or a read of a
    removed file.  A file is only read back or removed once its create has
    completed, and never while another op on it is in flight, so the
    oracle's answer for every op is known when it is issued.
    """

    name = "zipf-mixed"
    rate = 100.0
    chunk_seconds = 1.0
    prefix_chunks = 10
    warm_seconds = 5.0
    n_clients = 64
    n_files = 5_000
    file_size = 1024
    lifetime = 8.0
    #: Op kinds per 100 arrivals, an assumption rather than a measured mix
    #: (see README.md).  Arrivals deal from a shuffled deck of
    #: exactly these counts, so every seed runs the same mix and only the
    #: order differs; independent draws would let the share of expensive
    #: creates vary by several percent between seeds.
    mix = (("read", 80), ("create", 8), ("readback", 4), ("remove", 4), ("miss", 3), ("gone", 1))

    def setup(self) -> None:
        cfg = ScallaConfig(seed=self.seed, fanout=16, observability=True, lifetime=self.lifetime)
        self.cluster = c = ScallaCluster(128, config=cfg)
        base = sequential_paths(self.n_files, prefix="/store/zipf")
        placed = c.populate(base, copies=2, size=self.file_size,
                            rng=random.Random(self.rng.random()))
        self.placement = {p: set(s) for p, s in placed.items()}
        self.contents = {p: b"\x00" * self.file_size for p in base}
        c.settle()
        self.rng.shuffle(base)
        self.chooser = ZipfChooser(base, s=1.1)
        self._clients = [c.client() for _ in range(self.n_clients)]
        self.present: list[str] = []  # created, idle, removable
        self.removed: list[str] = []
        #: op id -> simulated start time, for ops not finished yet.
        self.in_flight: dict[int, float] = {}
        self.next_op = 0
        c.sim.process(self._bench(self._arrivals()))
        self._t_end = c.sim.now
        self._advance(self.warm_seconds)

    def clients(self):
        return self._clients

    def _advance(self, seconds: float) -> None:
        self._t_end += seconds
        self.cluster.sim.run(until=self._t_end)

    def run_chunk(self) -> None:
        self._advance(self.chunk_seconds)
        self.chunks += 1

    def timed_out(self) -> int:
        now = self.cluster.sim.now
        return sum(1 for t0 in self.in_flight.values() if now - t0 > OP_DEADLINE)

    # -- the open loop ---------------------------------------------------------

    def _arrivals(self):
        sim = self.cluster.sim
        rng = self.rng
        deck: list[str] = []
        while True:
            yield sim.timeout(rng.expovariate(self.rate))
            op = self.next_op
            self.next_op += 1
            client = self._clients[op % self.n_clients]
            if not deck:
                deck = [kind for kind, count in self.mix for _ in range(count)]
                rng.shuffle(deck)
            body = self._op(op, deck.pop(), client, rng.random())
            sim.process(body if self.span_log is None else self._bench(body, op))

    def _bench(self, body, op: int = -1):
        """Drive *body*; while a span log is set, time each of its resumes as
        a ``bench.op`` span marked with op id *op*.

        The benchmark's own code (the arrival process, the op bodies and
        their oracles) runs inside ``Simulator.run``; without a span of its
        own its time would be charged to the kernel layer.  Program code
        called from *body* (the client's coroutines) gets child spans of its
        own.  The cluster's handling of an op's messages runs in other
        processes and keeps op id -1.
        """
        value = None
        while True:
            log = self.span_log
            if log is not None:
                log.current_op = op
                span = log.open(log.name_id(BENCH_SPAN), BENCH_SPAN)
            try:
                event = body.send(value)
            except StopIteration:
                return
            finally:
                if log is not None:
                    log.close(span)
                    log.current_op = -1
            value = yield event

    def _op(self, op: int, kind: str, client, pick: float):
        sim = self.cluster.sim
        if (kind in ("readback", "remove") and not self.present) or (
            kind == "gone" and not self.removed
        ):
            kind = "read"
        if kind in ("readback", "remove"):
            path = self.present.pop(int(pick * len(self.present)))
        elif kind == "gone":
            path = self.removed[int(pick * len(self.removed))]
        elif kind == "read":
            path = self.chooser.choose(self.rng)
        else:  # create, miss: a name nobody has used
            path = f"/store/zipf/{kind}/{op:07d}.root"
        metric, body = {
            "read": (READ, self._read),
            "readback": (READ, self._read),
            "create": (WRITE, self._create),
            "remove": (REMOVE, self._remove),
            "miss": (MISS, lambda c, p: self._absent(c.locate(p), p)),
            "gone": (GONE, lambda c, p: self._absent(c.open(p), p)),
        }[kind]
        t0 = self.in_flight[op] = sim.now
        try:
            err = yield from body(client, path)
        except ScallaError as exc:
            err = f"{path}: {exc!r}"
        del self.in_flight[op]
        took = sim.now - t0
        if err is None and took > OP_DEADLINE:
            err = f"{path}: took {took:.3f} simulated s, over the {OP_DEADLINE} s deadline"
        if kind == "readback" and err is None:
            self.present.append(path)
        self.finish(metric, took, err)

    def _read(self, client, path: str):
        res = yield from client.open(path)
        data = yield from client.read(res, 0, res.size)
        yield from client.close(res)
        err = self.check_located(path, res.node)
        if err is None and data != self.contents[path]:
            err = f"{path}: read {len(data)} bytes that differ from what was written"
        return err

    def _create(self, client, path: str):
        data = path.encode() * 4
        res = yield from client.open(path, create=True)
        written = yield from client.write(res, 0, data)
        yield from client.close(res)
        if written != len(data):
            return f"{path}: wrote {written} of {len(data)} bytes"
        self.placement[path] = {res.node}
        self.contents[path] = data
        self.present.append(path)
        return None

    def _remove(self, client, path: str):
        removed = yield from client.remove(path)
        if not removed:
            return f"remove {path}: nothing removed"
        self.placement[path] = set()
        self.removed.append(path)
        return None

    def _absent(self, gen, path: str):
        try:
            got = yield from gen
        except NoSuchFile:
            return None
        return f"{path}: absent file resolved to {got!r}"


WORKLOADS = {w.name: w for w in (WarmE1, ColdFlood, ZipfMixed)}
