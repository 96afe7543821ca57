"""Every counter series, pinned on a fixed mixed workload.

A small seeded cluster (8 servers under two supervisors) runs one fixed
mix of operations with observability on: cold and warm reads, a create
with a write, a create over an existing file, a remove, a miss that waits
out the full delay, a read that stages from mass storage, and a server
crash and restart, with a read that fails over while the server is down.
Then

* the total of every counter series must equal the table below, and the
  number of label sets per series must match too;
* the same run with observability off must leave every ``*Stats`` object
  and every component counter exactly as the instrumented run did:
  observing a run never changes a counted fact.

``sim_events_total`` is left out of the table: the kernel's event count
moves with any change in how the simulation schedules its work, which is
not a counted protocol fact.  It is checked against the field it reads,
``Simulator.events_processed``, instead.
"""

from dataclasses import is_dataclass

import pytest

from repro.cluster import FileExists, NoSuchFile, ScallaCluster, ScallaConfig
from repro.sim.latency import Fixed

#: (total, label sets) of every counter series on the workload below.
EXPECTED = {
    "cache_adds_total": (36, 3),
    "cache_corrections_total": (2, 3),
    "cache_hits_total": (60, 3),
    "cache_holder_updates_total": (31, 3),
    "cache_lookups_total": (99, 3),
    "cache_removed_total": (33, 3),
    "cache_stale_holder_updates_total": (0, 3),
    "cache_vwc_hits_total": (1, 3),
    "cache_vwc_misses_total": (1, 3),
    "chaos_msgs_dropped_total": (0, 1),
    "client_locates_total": (20, 1),
    "client_opens_total": (10, 1),
    "client_redirects_total": (38, 1),
    "client_waits_total": (2, 1),
    "cmsd_fast_released_total": (22, 11),
    "cmsd_haves_received_total": (31, 11),
    "cmsd_locate_requests_total": (41, 11),
    "cmsd_messages_sent_total": (1042, 11),
    "cmsd_notfounds_total": (1, 11),
    "cmsd_queries_sent_total": (118, 11),
    "cmsd_redirects_total": (28, 11),
    "cmsd_waits_sent_total": (2, 11),
    "evict_hidden_total": (33, 3),
    "evict_rechained_total": (0, 3),
    "evict_swept_total": (33, 3),
    "evict_ticks_total": (420, 3),
    "failovers_total": (1, 1),
    "membership_disconnects_total": (1, 3),
    "membership_drops_total": (0, 3),
    "membership_logins_total": (11, 3),
    "rehomes_total": (0, 11),
    "rq_enqueued_total": (36, 3),
    "rq_expired_total": (14, 3),
    "rq_late_responses_total": (0, 3),
    "rq_rejected_total": (0, 3),
    "rq_released_total": (22, 3),
    "rq_requeries_total": (0, 11),
    "xrootd_bytes_read_total": (640, 8),
    "xrootd_bytes_written_total": (32, 8),
    "xrootd_open_failures_total": (1, 8),
    "xrootd_opens_total": (11, 8),
    "xrootd_stages_total": (1, 8),
}

PATHS = [f"/store/src/f{i}.root" for i in range(6)]


def run_workload(observability: bool) -> ScallaCluster:
    cluster = ScallaCluster(
        8,
        config=ScallaConfig(
            seed=17,
            fanout=4,
            lifetime=4.0,
            heartbeat_interval=0.2,
            disconnect_timeout=0.7,
            full_delay=1.0,
            stage_latency=Fixed(0.5),
            observability=observability,
        ),
    )
    cluster.populate(PATHS, copies=2, size=64)
    cluster.archive("/store/src/tape.root", cluster.servers[5], size=128)
    cluster.settle()
    client = cluster.client()

    def workload():
        for p in PATHS:  # cold reads
            yield from client.fetch(p)
        for p in PATHS[:3]:  # warm locates
            yield from client.locate(p)
        new = yield from client.open("/store/src/new.root", create=True)
        yield from client.write(new, 0, b"x" * 32)
        yield from client.close(new)
        with pytest.raises(FileExists):
            yield from client.open(PATHS[1], create=True)
        removed = yield from client.remove(PATHS[0])
        assert removed
        with pytest.raises(NoSuchFile):
            yield from client.locate("/store/src/absent.root")
        yield from client.fetch("/store/src/tape.root")  # staged from MSS

    cluster.run_process(workload(), limit=600)
    # PATHS[1] and PATHS[2] both have a copy on server 2: a read sent
    # there while it is down times out and recovers through a manager
    # failover and a refresh.
    victim = cluster.node(cluster.servers[2])
    victim.crash()
    for p in PATHS[1:3]:
        cluster.run_process(client.fetch(p), limit=600)
    cluster.run(until=cluster.sim.now + 1.0)
    victim.restart()
    cluster.run(until=cluster.sim.now + 1.0)
    for p in PATHS[1:4]:  # cached before the restart: corrected on lookup
        cluster.run_process(client.locate(p), limit=600)
    cluster.run(until=cluster.sim.now + 2.0)
    return cluster


def counted_facts(cluster: ScallaCluster) -> dict:
    """Every counter a component keeps for itself, keyed by owner."""
    facts: dict = {
        "network": vars(cluster.network.stats),
        "events": cluster.sim.events_processed,
    }

    def fields(obj) -> dict:
        if is_dataclass(obj):
            return dict(vars(obj))
        return {k: v for k, v in vars(obj).items() if isinstance(v, (int, float))}

    for name, node in sorted(cluster.nodes.items()):
        cmsd = node.cmsd
        facts[f"{name}.cmsd"] = fields(cmsd.stats)
        if cmsd.cache is not None:
            facts[f"{name}.cache"] = fields(cmsd.cache.stats)
            facts[f"{name}.windows"] = {
                k: getattr(cmsd.cache.windows, k)
                for k in ("t_w", "total_hidden", "total_rechained", "total_swept")
            }
            facts[f"{name}.rq"] = {
                k: getattr(cmsd.rq, k)
                for k in ("fast_responses", "timeouts", "rejected", "late_responses")
            }
        if node.xrootd is not None:
            facts[f"{name}.xrootd"] = fields(node.xrootd)
    return facts


@pytest.fixture(scope="module")
def observed():
    return run_workload(observability=True)


class TestCounterSources:
    def test_every_counter_series_total(self, observed):
        m = observed.obs.metrics
        names = sorted(
            {name for kind, name, _, _ in m.collect() if kind == "counter"}
            - {"sim_events_total"}
        )
        got = {}
        for name in names:
            sets = sum(1 for kind, n, _, _ in m.collect() if kind == "counter" and n == name)
            got[name] = (m.counter_total(name), sets)
        assert got == EXPECTED

    def test_kernel_event_counter_reads_the_kernel(self, observed):
        assert observed.obs.metrics.counter_total("sim_events_total") == (
            observed.sim.events_processed
        )

    def test_observability_changes_no_counted_fact(self, observed):
        assert counted_facts(run_workload(observability=False)) == counted_facts(observed)
