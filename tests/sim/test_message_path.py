"""The message path: callback timers, in-flight drops, direct handoff.

Every wire message is one :meth:`Simulator.call_later` timer; when it
fires, the envelope goes straight to a daemon parked on its inbox
(:meth:`Store.deliver`), or into service for a daemon on
:meth:`Store.serve`.  Client requests wait on their reply event alone,
with a callback timer for the timeout.  These tests pin the ordering of
callback timers against the other dispatch sources, the drop accounting
for paths that die while a message is in flight, chaos duplication, the
handoff instant, FIFO service, request timeouts, and the exact kernel
cost of a warm E1 locate.
"""

import pathlib
import random
from types import SimpleNamespace

import pytest

from repro.cluster import protocol as pr
from repro.cluster.client import ClientConfig, ScallaClient
from repro.cluster.ids import Role, cmsd_host
from repro.sim import kernel
from repro.sim.errors import Interrupt, SimError
from repro.sim.kernel import Simulator
from repro.sim.latency import Fixed
from repro.sim.network import ChaosConfig, Network

BENCHMARKS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks"


def make_net(latency=1.0, chaos=None):
    sim = Simulator()
    net = Network(sim, default_latency=Fixed(latency), rng=random.Random(7), chaos=chaos)
    return sim, net, net.add_host("a"), net.add_host("b")


@pytest.fixture
def spawned(monkeypatch):
    """Every Process created while the test runs."""
    procs = []
    init = kernel.Process.__init__

    def counting(self, *args, **kwargs):
        procs.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(kernel.Process, "__init__", counting)
    return procs


def receiver(sim, host, got):
    def loop():
        while True:
            env = yield host.inbox.get()
            got.append((sim.now, env))

    return sim.process(loop())


class TestCallLater:
    def test_equal_times_fire_in_schedule_order_with_timeouts(self):
        sim = Simulator()
        log = []
        sim.timeout(1.0).callbacks.append(lambda ev: log.append("timeout-1"))
        sim.call_later(1.0, log.append, "timer-1")
        sim.timeout(1.0).callbacks.append(lambda ev: log.append("timeout-2"))
        sim.call_later(1.0, log.append, "timer-2")
        sim.run()
        assert log == ["timeout-1", "timer-1", "timeout-2", "timer-2"]
        assert sim.now == 1.0

    def test_zero_delay_interleaves_with_ring_by_sequence(self):
        """A zero-delay timer queued between two bootstraps runs between them."""
        sim = Simulator()
        log = []

        def proc(tag):
            log.append(tag)
            yield sim.sleep(0.0)

        sim.process(proc("proc-1"))
        sim.call_later(0.0, log.append, "timer")
        sim.process(proc("proc-2"))
        sim.run()
        assert log == ["proc-1", "timer", "proc-2"]

    def test_timer_set_from_a_timer_runs_after_same_time_entries(self):
        sim = Simulator()
        log = []

        def first(_):
            log.append("first")
            sim.call_later(0.0, log.append, "chained")

        sim.call_later(2.0, first)
        sim.call_later(2.0, log.append, "second")
        sim.run()
        assert log == ["first", "second", "chained"]

    def test_step_and_run_until_dispatch_timers(self):
        sim = Simulator()
        log = []
        sim.call_later(1.0, log.append, "a")
        sim.call_later(3.0, log.append, "b")
        sim.step()
        assert log == ["a"] and sim.now == 1.0
        sim.run(until=2.0)
        assert log == ["a"] and sim.now == 2.0
        sim.run()
        assert log == ["a", "b"] and sim.now == 3.0
        assert sim.events_processed == 2

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimError):
            sim.call_later(-1e-9, print)


class TestInFlightDrops:
    """The path dies while the message is on the wire: dropped on arrival."""

    @pytest.mark.parametrize(
        "cut, dead, partition",
        [
            (lambda n: n.kill("b"), 1, 0),
            (lambda n: n.partition("a", "b"), 0, 1),
            (lambda n: n.partition_oneway("a", "b"), 0, 1),
            (lambda n: n.isolate("a"), 0, 1),
            (lambda n: n.isolate("b"), 0, 1),
        ],
        ids=["kill", "partition", "oneway", "isolate-src", "isolate-dst"],
    )
    def test_cut_in_flight_is_dropped_under_its_counter(self, cut, dead, partition):
        sim, net, a, b = make_net()
        got = []
        receiver(sim, b, got)
        assert net.send("a", "b", "x")
        sim.run(until=0.5)
        cut(net)
        sim.run()
        assert got == []
        assert (net.stats.dropped_dead, net.stats.dropped_partition) == (dead, partition)
        assert net.stats.delivered == 0

    def test_healed_before_arrival_is_delivered(self):
        sim, net, a, b = make_net()
        got = []
        receiver(sim, b, got)
        net.send("a", "b", "x")
        sim.run(until=0.5)
        net.partition("a", "b")
        net.heal("a", "b")
        sim.run()
        assert [env.payload for _, env in got] == ["x"]
        assert net.stats.dropped == 0


class TestChaosDuplicate:
    def test_duplicate_is_delivered_twice(self):
        sim, net, a, b = make_net(latency=1e-3, chaos=ChaosConfig(dup_prob=1.0, seed=3))
        got = []
        receiver(sim, b, got)
        assert net.send("a", "b", "x")
        sim.run()
        assert net.stats.chaos_duplicated == 1
        assert net.stats.delivered == 2
        assert [env.payload for _, env in got] == ["x", "x"]
        first, second = got[0][1], got[1][1]
        assert first is not second  # each copy carries its own delivery stamp
        assert {first.delivered_at, second.delivered_at} == {t for t, _ in got}


class TestDirectHandoff:
    def test_parked_daemon_resumes_at_delivery_time(self):
        sim, net, a, b = make_net(latency=0.25)
        got = []
        receiver(sim, b, got)
        sim.run()  # park the receiver on its inbox
        before = sim.events_processed
        net.send("a", "b", "x")
        sim.run()
        ((when, env),) = got
        assert when == env.delivered_at == 0.25
        assert env.sent_at == 0.0 and env.latency == 0.25
        # One kernel event: the timer itself resumed the parked receiver.
        assert sim.events_processed - before == 1

    def test_busy_daemon_takes_queued_message_in_order(self):
        """Messages landing while the daemon sleeps queue in the inbox."""
        sim, net, a, b = make_net(latency=0.1)
        got = []

        def slow():
            while True:
                env = yield b.inbox.get()
                got.append((sim.now, env.payload))
                yield sim.sleep(1.0)

        sim.process(slow())
        for payload in ("m1", "m2", "m3"):
            net.send("a", "b", payload)
        sim.run()
        assert got == [(0.1, "m1"), (1.1, "m2"), (2.1, "m3")]

    def test_handoff_precedes_later_same_time_events(self):
        """The receiver runs inside the timer, before events queued after it."""
        sim, net, a, b = make_net(latency=0.5)
        log = []

        def loop():
            while True:
                env = yield b.inbox.get()
                log.append(("recv", env.payload))

        sim.process(loop())
        sim.run()
        net.send("a", "b", "x")
        sim.call_later(0.5, log.append, "later-timer")
        sim.run()
        assert log == [("recv", "x"), "later-timer"]

    def test_no_process_per_message(self, spawned):
        sim, net, a, b = make_net(latency=1e-3)
        got = []
        receiver(sim, b, got)
        sim.run()
        procs0, events0 = len(spawned), sim.events_processed
        for i in range(50):
            net.send("a", "b", i)
        sim.run()
        assert len(got) == 50
        assert len(spawned) == procs0
        assert sim.events_processed - events0 == 50


class TestServedInbox:
    """``inbox.serve(draw)``: FIFO single-server service, one resume each."""

    def _daemon(self, sim, host, got, draws, service=1.0):
        def draw():
            draws.append(sim.now)
            return service

        def loop():
            try:
                while True:
                    env = yield host.inbox.serve(draw)
                    got.append((sim.now, env.payload))
            except Interrupt:
                return

        return sim.process(loop())

    def test_parked_daemon_costs_two_events_per_message(self):
        sim, net, a, b = make_net(latency=0.25)
        got, draws = [], []
        self._daemon(sim, b, got, draws, service=0.5)
        sim.run()
        before = sim.events_processed
        net.send("a", "b", "x")
        sim.run()
        # Service starts at delivery and the item is handed over at its end.
        assert draws == [0.25] and got == [(0.75, "x")]
        assert sim.events_processed - before == 2

    def test_busy_daemon_serves_queue_fifo_with_summed_service(self):
        sim, net, a, b = make_net(latency=0.1)
        got, draws = [], []
        self._daemon(sim, b, got, draws)
        sim.run()
        before = sim.events_processed
        for payload in ("m1", "m2", "m3"):
            net.send("a", "b", payload)
        sim.run()
        assert got == [(1.1, "m1"), (2.1, "m2"), (3.1, "m3")]
        # A queued message's service starts when the previous one ends.
        assert draws == [0.1, 1.1, 2.1]
        assert sim.events_processed - before == 2 * 3

    def test_put_starts_service_of_parked_getter(self):
        sim, net, a, b = make_net()
        got, draws = [], []
        self._daemon(sim, b, got, draws, service=2.0)

        def producer():
            yield sim.sleep(1.0)
            b.inbox.put(SimpleNamespace(payload="x"))

        sim.process(producer())
        sim.run()
        assert draws == [1.0] and got == [(3.0, "x")]

    def test_interrupted_in_service_is_skipped(self):
        sim, net, a, b = make_net(latency=0.1)
        got_old, got_new, draws_old, draws_new = [], [], [], []
        old = self._daemon(sim, b, got_old, draws_old)
        net.send("a", "b", "m1")
        sim.run(until=0.5)  # m1 is in service until 1.1
        old.interrupt()
        sim.run(until=0.6)
        self._daemon(sim, b, got_new, draws_new)
        net.send("a", "b", "m2")
        sim.run()
        # m1 is dropped with the daemon serving it; its completion at 1.1
        # resumes nothing and takes nothing from the queue.
        assert draws_old == [0.1] and got_old == []
        assert draws_new == [pytest.approx(0.7)]
        assert got_new == [(pytest.approx(1.7), "m2")]
        assert not old.is_alive


class _Responder:
    """A host that answers requests on its own schedule."""

    def __init__(self, sim, net, name):
        self.sim, self.net = sim, net
        self.host = net.add_host(name)
        self.got = []
        sim.process(self._loop())

    def _loop(self):
        while True:
            env = yield self.host.inbox.get()
            self.got.append(env.payload)

    def reply_at(self, when, to, payload):
        def send(p):
            self.net.send(self.host.name, to, p)

        self.sim.call_later(when - self.sim.now, send, payload)


class TestClientRequests:
    """``_request`` waits on its reply event; a timer expires it."""

    def _setup(self, **cfg):
        sim = Simulator()
        net = Network(sim, default_latency=Fixed(0.5), rng=random.Random(1))
        client = ScallaClient(sim, net, "c", ("mgr",), config=ClientConfig(**cfg))
        return sim, net, client

    def _stat(self, sim, client, to, timeout=2.0):
        msg = pr.Stat(client._req_id(), client.host.name, "/f")
        proc = sim.process(client._request(to, msg, timeout))
        return msg, proc

    def test_reply_before_timeout(self, spawned):
        sim, net, client = self._setup()
        srv = _Responder(sim, net, "srv")
        sim.run()
        procs0 = len(spawned)
        msg, proc = self._stat(sim, client, "srv")
        srv.reply_at(1.0, "c", pr.StatAck(msg.req_id, True, 3))
        assert sim.run_until_process(proc) == pr.StatAck(msg.req_id, True, 3)
        assert sim.now == 1.5
        assert client._pending == {}
        assert len(spawned) - procs0 == 1  # the request itself, nothing else
        sim.run()  # the expiry timer finds its event answered

    def test_timeout_returns_none(self):
        sim, net, client = self._setup()
        _Responder(sim, net, "srv")
        msg, proc = self._stat(sim, client, "srv", timeout=2.0)
        assert sim.run_until_process(proc) is None
        assert sim.now == 2.0
        assert client._pending == {}

    def test_late_reply_ignored(self):
        sim, net, client = self._setup()
        srv = _Responder(sim, net, "srv")
        msg, proc = self._stat(sim, client, "srv", timeout=2.0)
        srv.reply_at(3.0, "c", pr.StatAck(msg.req_id, True, 3))
        assert sim.run_until_process(proc) is None
        sim.run()
        assert sim.now == 3.5
        assert client._pending == {}

    def test_watched_wait_not_clobbered_by_stale_timer(self):
        """The Locate's own expiry (at 2.0) must leave alone the watched
        Wait registered under the same req_id, so the unsolicited
        Redirect at 3.0 still cuts the 5 s wait short."""
        sim, net, client = self._setup(locate_timeout=2.0)
        mgr = _Responder(sim, net, cmsd_host("mgr"))

        def manager():
            while not mgr.got:
                yield sim.sleep(0.1)
            loc = mgr.got[0]
            mgr.reply_at(sim.now, "c", pr.Wait(loc.req_id, loc.path, 5.0, watch=True))
            redirect = pr.Redirect(loc.req_id, loc.path, "srv1", Role.SERVER.value)
            mgr.reply_at(3.0, "c", redirect)

        sim.process(manager())
        node, pending = sim.run_until_process(sim.process(client.locate("/f")))
        assert (node, pending) == ("srv1", False)
        assert sim.now == pytest.approx(3.5)
        assert client.stats.locates == 1 and client.stats.waits == 1
        assert client._pending == {}


class TestWarmLocateCost:
    """Exact kernel cost of a warm E1 locate (16 servers, fanout 4)."""

    #: Per locate: 4 messages, each one delivery timer; the 2 requests
    #: to cmsds, each one service completion and one reply event; the
    #: locate coroutine's bootstrap and its join.
    EVENTS_PER_LOCATE = 10
    MSGS_PER_LOCATE = 4

    def test_warm_locate_event_and_process_counts(self, monkeypatch, spawned):
        monkeypatch.syspath_prepend(str(BENCHMARKS))
        from perf.perf_e2e import _build

        cluster, paths = _build()
        client = cluster.client()
        for p in paths:
            cluster.run_process(client.locate(p))
        sim, stats = cluster.sim, cluster.network.stats
        procs0, events0, msgs0, t0 = len(spawned), sim.events_processed, stats.sent, sim.now
        for p in paths:
            cluster.run_process(client.locate(p))
        n = len(paths)
        assert sim.events_processed - events0 == self.EVENTS_PER_LOCATE * n
        assert stats.sent - msgs0 == self.MSGS_PER_LOCATE * n
        # The only process per locate is the locate coroutine itself:
        # none is spawned for any of its messages or request timeouts.
        assert len(spawned) - procs0 == n
        assert (sim.now - t0) / n == pytest.approx(50e-6)
