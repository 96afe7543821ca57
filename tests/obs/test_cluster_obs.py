"""End-to-end observability against a live cluster, with an oracle.

The scripted workload has exactly predictable cache behaviour on a flat
(depth-1) cluster: a cold locate of an existing file costs the manager
two cache lookups (the miss that creates the location object and anchors
the waiter, then the hit when the fast-response release re-resolves it),
and every warm locate costs one lookup, one hit.  The counters must match
that oracle exactly — if instrumentation drifts off the hot path, or the
resolution flow changes shape, this fails loudly.
"""

import pathlib
import re

import pytest

from repro.cluster import ScallaCluster, ScallaConfig
from repro.obs.registry import Pulled

DOCS = pathlib.Path(__file__).resolve().parents[2] / "docs" / "observability.md"

N_PATHS = 5
WARM_ROUNDS = 2


@pytest.fixture(scope="module")
def driven_cluster():
    cluster = ScallaCluster(4, config=ScallaConfig(seed=13, observability=True))
    paths = [f"/store/obs/f{i}.root" for i in range(N_PATHS)]
    cluster.populate(paths, size=64)
    cluster.settle()
    client = cluster.client()

    def workload():
        for _round in range(1 + WARM_ROUNDS):
            for p in paths:
                yield from client.locate(p)

    cluster.run_process(workload(), limit=600)
    return cluster


class TestCacheCountersMatchOracle:
    def test_hit_and_miss_counts(self, driven_cluster):
        m = driven_cluster.obs.metrics
        lookups = m.counter_total("cache_lookups_total")
        hits = m.counter_total("cache_hits_total")
        # Cold: 2 lookups / 1 hit per path.  Warm: 1 lookup / 1 hit.
        assert lookups == N_PATHS * (2 + WARM_ROUNDS)
        assert hits == N_PATHS * (1 + WARM_ROUNDS)
        misses = lookups - hits
        assert misses == N_PATHS  # exactly one cold miss per distinct path

    def test_resolution_and_queue_counters(self, driven_cluster):
        m = driven_cluster.obs.metrics
        total = N_PATHS * (1 + WARM_ROUNDS)
        assert m.counter_total("client_locates_total") == total
        assert m.counter_total("cmsd_locate_requests_total") == total
        # Warm locates redirect synchronously; cold ones are released by a
        # Have and counted as fast releases — together they cover the lot.
        assert m.counter_total("cmsd_redirects_total") == N_PATHS * WARM_ROUNDS
        assert (
            m.counter_total("cmsd_redirects_total")
            + m.counter_total("cmsd_fast_released_total")
        ) == total
        # Only cold locates anchor a fast-response waiter, and every one
        # was released by a Have, none expired into the full delay.
        assert m.counter_total("rq_enqueued_total") == N_PATHS
        assert m.counter_total("rq_released_total") == N_PATHS
        assert m.counter_total("rq_expired_total") == 0
        assert m.counter_total("cmsd_fast_released_total") == N_PATHS

    def test_derived_rollup_is_consistent(self, driven_cluster):
        d = driven_cluster.obs_snapshot(traces=False)["derived"]
        total = N_PATHS * (1 + WARM_ROUNDS)
        assert d["resolutions"] == total
        assert d["cache_hit_ratio"] == pytest.approx(
            (N_PATHS * (1 + WARM_ROUNDS)) / (N_PATHS * (2 + WARM_ROUNDS))
        )
        assert d["fast_release_ratio"] == 1.0
        assert d["queue_wait"]["count"] == N_PATHS
        assert 0 < d["queue_wait"]["p99"] < 0.133


class TestTraces:
    def test_every_locate_left_a_finished_trace(self, driven_cluster):
        finished = driven_cluster.obs.tracer.finished
        assert len(finished) == N_PATHS * (1 + WARM_ROUNDS)
        assert driven_cluster.obs.tracer.active_count == 0
        assert all(t.root.attrs["outcome"] == "resolved" for t in finished)

    def test_cold_trace_records_the_anchor_wait(self, driven_cluster):
        cold = driven_cluster.obs.tracer.finished[0]
        walk = {s.name for s in cold.root.children}
        assert "cmsd.locate" in walk
        waits = [
            child
            for hop in cold.root.children
            for child in hop.children
            if child.name == "rq.wait"
        ]
        (wait,) = waits
        assert wait.attrs["outcome"] == "released"
        assert 0 < wait.duration < 0.133

    def test_warm_trace_has_no_wait(self, driven_cluster):
        warm = driven_cluster.obs.tracer.finished[-1]
        spans = [c for hop in warm.root.children for c in hop.children]
        assert not any(s.name == "rq.wait" for s in spans)
        # The cache hit shows up as an event on the locate hop.
        events = [e for hop in warm.root.children for e in hop.events]
        assert any(e["name"] == "cache.lookup" and e["hit"] for e in events)


class TestDisabledPath:
    def test_observability_off_means_no_hub(self):
        cluster = ScallaCluster(2, config=ScallaConfig(seed=13))
        assert cluster.obs is None
        with pytest.raises(RuntimeError):
            cluster.obs_snapshot()


class TestDocumentedSources:
    def test_docs_name_the_field_every_series_reads(self, driven_cluster):
        """The source column of docs/observability.md is the binding."""
        documented = {}
        for line in DOCS.read_text().splitlines():
            cells = [c.strip() for c in line.split("|")[1:-1]]
            if len(cells) == 4 and re.fullmatch(r"`\w+\.\w+`", cells[2]):
                for name in re.findall(r"`(\w+)`", cells[0]):
                    documented[name] = cells[2].strip("`")
        bound = {}
        for _kind, name, _labels, inst in driven_cluster.obs.metrics.collect():
            if isinstance(inst, Pulled):
                owner, attr = inst.sources[0]
                bound[name] = f"{type(owner).__name__}.{attr}"
        assert documented == bound
