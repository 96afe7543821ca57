"""Per-layer metrics from a traced run.

Counts are taken over the deterministic prefix of the traced run (the
first ``prefix_chunks`` chunks), so they repeat exactly for a given seed.
Host times are self times summed over every span of the traced phase.
Spans of the benchmark's own code (``bench.op``) are charged to no layer.
See README.md for which end-to-end metric each one should move.
"""

from __future__ import annotations

from tracing import self_times

__all__ = ["derive", "PER_LAYER"]

#: name -> unit, in report order.
PER_LAYER = {
    "kernel.events_per_op": "count/op",
    "kernel.procs_per_op": "count/op",
    "kernel.self_us_per_op": "us/op",
    "network.msgs_per_op": "count/op",
    "network.bytes_per_op": "B/op",
    "network.dropped_ratio": "ratio",
    "network.send_us_per_op": "us/op",
    "protocol.sizes_per_op": "count/op",
    "protocol.size_us_per_op": "us/op",
    "cmsd.msgs_per_op": "count/op",
    "cmsd.handle_us_per_op": "us/op",
    "cmsd.queries_per_op": "count/op",
    "cmsd.waits_per_op": "count/op",
    "cmsd.fast_release_ratio": "ratio",
    "cmsd.rq_rejected": "count",
    "cache.lookups_per_op": "count/op",
    "cache.hit_ratio": "ratio",
    "cache.lookup_us_per_op": "us/op",
    "cache.update_us_per_op": "us/op",
    "cache.tick_us_per_op": "us/op",
    "cache.corrections_per_op": "count/op",
    "rq.waiters_per_op": "count/op",
    "rq.us_per_op": "us/op",
    "xrootd.requests_per_op": "count/op",
    "xrootd.handle_us_per_op": "us/op",
    "client.locates_per_op": "count/op",
    "client.redirects_per_op": "count/op",
    "client.refreshes_per_op": "count/op",
    "client.self_us_per_op": "us/op",
    "obs.calls_per_op": "count/op",
    "obs.us_per_op": "us/op",
    "gc.collections_per_kop": "count/kop",
    "gc.pause_us_per_op": "us/op",
    "trace.overhead_ratio": "ratio",
    "sim.read_p50_us": "sim-us",
    "sim.read_p90_us": "sim-us",
    "sim.write_p50_us": "sim-us",
    "sim.miss_p50_us": "sim-us",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(log, plain: dict, traced: dict) -> dict[str, dict]:
    """Per-layer metrics from the span *log* of the *traced* measurement,
    with *plain* (the untraced measurement) as the overhead reference."""
    selfs = self_times(log.names, log.name, log.start, log.end, log.parent)
    us = 1e6 / traced["ops"]

    def layer_us(layer: str) -> float:
        return sum(t for name, t in selfs.items() if name.split(".")[0] == layer) * us

    prefix = traced["prefix"]
    counts, calls = prefix["counts"], prefix["calls"]
    ops = counts["ops"]

    def per_op(value: float) -> float:
        return value / ops

    parked = calls.get("rq.add_waiter", 0) - counts.get("cmsd.rq_rejected", 0)
    values = {
        "kernel.events_per_op": per_op(counts["kernel.events"]),
        "kernel.procs_per_op": per_op(calls.get("kernel.spawn", 0)),
        "kernel.self_us_per_op": layer_us("kernel"),
        "network.msgs_per_op": per_op(counts["network.msgs"]),
        "network.bytes_per_op": per_op(counts["network.bytes"]),
        "network.dropped_ratio": _ratio(counts["network.dropped"], counts["network.msgs"]),
        "network.send_us_per_op": layer_us("network"),
        "protocol.sizes_per_op": per_op(calls.get("protocol.size", 0)),
        "protocol.size_us_per_op": layer_us("protocol"),
        "cmsd.msgs_per_op": per_op(calls.get("cmsd.handle", 0)),
        "cmsd.handle_us_per_op": layer_us("cmsd"),
        "cmsd.queries_per_op": per_op(counts.get("cmsd.queries_sent", 0)),
        "cmsd.waits_per_op": per_op(counts.get("cmsd.waits_sent", 0)),
        "cmsd.fast_release_ratio": _ratio(counts.get("cmsd.fast_released", 0), parked),
        "cmsd.rq_rejected": counts.get("cmsd.rq_rejected", 0),
        "cache.lookups_per_op": per_op(counts.get("cache.lookups", 0)),
        "cache.hit_ratio": _ratio(counts.get("cache.hits", 0), counts.get("cache.lookups", 0)),
        "cache.lookup_us_per_op": selfs.get("cache.lookup", 0.0) * us,
        "cache.update_us_per_op": selfs.get("cache.update", 0.0) * us,
        "cache.tick_us_per_op": selfs.get("cache.tick", 0.0) * us,
        "cache.corrections_per_op": per_op(counts.get("cache.corrections", 0)),
        "rq.waiters_per_op": per_op(calls.get("rq.add_waiter", 0)),
        "rq.us_per_op": layer_us("rq"),
        "xrootd.requests_per_op": per_op(calls.get("xrootd.handle.new", 0)),
        "xrootd.handle_us_per_op": layer_us("xrootd"),
        "client.locates_per_op": per_op(counts.get("client.locates", 0)),
        "client.redirects_per_op": per_op(counts.get("client.redirects", 0)),
        "client.refreshes_per_op": per_op(counts.get("client.refreshes", 0)),
        "client.self_us_per_op": layer_us("client"),
        "obs.calls_per_op": per_op(sum(n for k, n in calls.items()
                                       if k.startswith("obs.") and not k.endswith(".new"))),
        "obs.us_per_op": layer_us("obs"),
        "gc.collections_per_kop": log.calls.get("gc.collections", 0) * 1e3 / traced["ops"],
        "gc.pause_us_per_op": layer_us("gc"),
        "trace.overhead_ratio": traced["nominal_ops_per_s"] / plain["nominal_ops_per_s"],
    }
    for key, value in prefix["sim"].items():
        values[f"sim.{key}"] = value
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
