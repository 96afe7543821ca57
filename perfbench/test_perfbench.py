"""Tests of the benchmark itself: workload oracles, tracing, self times.

Run with ``python -m pytest perfbench`` from the repository root.
"""

from __future__ import annotations

import gc
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run._load_program()

import layers  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
import yardstick  # noqa: E402
from repro.sim.kernel import Process  # noqa: E402


class TinyCold(workloads.ColdFlood):
    n_files = 400
    chunk_ops = 3
    prefix_chunks = 2


class TinyZipf(workloads.ZipfMixed):
    n_files = 100
    warm_seconds = 2.0
    chunk_seconds = 4.0
    prefix_chunks = 4
    rate = 30.0
    #: Heavier on the rare kinds, so a short run exercises every one.
    mix = (("read", 5), ("create", 2), ("readback", 1), ("remove", 1), ("miss", 1), ("gone", 1))


class TinyE1(workloads.WarmE1):
    chunk_ops = 20
    prefix_chunks = 2


def _prefix(cls, seed=3, log=None):
    wl, _ = run.setup_workload(cls, seed)
    return wl, run.measure(wl, 0.0, log)


@pytest.mark.parametrize("cls", [TinyE1, TinyCold, TinyZipf])
def test_smoke_every_workload_passes_its_oracle(cls):
    wl, result = _prefix(cls)
    assert result["failed"] == 0 and result["setup_failed"] == 0, result["errors"]
    assert result["ops"] > 0
    assert result["prefix"]["sim"]["read_p50_us"] > 0


def test_zipf_runs_every_op_kind():
    wl, result = _prefix(TinyZipf)
    assert result["failed"] == 0, result["errors"]
    sim = result["prefix"]["sim"]
    assert sim["write_p50_us"] > 5e6 and sim["miss_p50_us"] > 5e6
    assert wl.removed, "no file was removed"
    assert wl.samples[workloads.GONE], "no removed file was read back"


@pytest.mark.parametrize("cls", [TinyE1, TinyCold])
def test_oracle_rejects_a_wrong_location(cls):
    wl, _ = run.setup_workload(cls, 3)
    wl.begin_measurement()
    for path in wl.placement:
        wl.placement[path] = {"no-such-server"}
    wl.run_chunk()
    assert wl.failed == wl.done > 0


def test_oracle_rejects_wrong_contents():
    wl, _ = run.setup_workload(TinyZipf, 3)
    wl.begin_measurement()
    for path in wl.contents:
        wl.contents[path] = b"not what the server holds"
    wl.run_chunk()
    assert wl.failed > 0


def test_zipf_counts_an_op_over_the_deadline_as_failed(monkeypatch):
    # Creates wait out the 5 s full delay, so a 1 s deadline fails every
    # one of them even though each completes with the right answer.
    monkeypatch.setattr(workloads, "OP_DEADLINE", 1.0)
    wl, _ = run.setup_workload(TinyZipf, 3)
    wl.begin_measurement()
    wl.run_chunk()
    assert wl.failed > 0
    assert wl.samples[workloads.READ] and not wl.samples[workloads.WRITE]
    assert any("deadline" in e for e in wl.errors), wl.errors


def test_combine_sums_segments_and_rejects_a_differing_prefix():
    _, first = _prefix(TinyE1)
    _, second = _prefix(TinyE1)
    both = run.combine([first, second])
    assert both["ops"] == first["ops"] + second["ops"] and not both["errors"]
    assert both["ops_per_s"] == both["ops"] / both["elapsed"]
    second["prefix"]["counts"]["kernel.events"] += 1
    assert run.combine([first, second])["errors"]


class _FixedStick:
    """A yardstick whose every slice takes twice the nominal time."""

    def slice(self):
        return 2 * yardstick.NOMINAL_S


def test_yardstick_scales_rates_to_nominal_speed():
    wl, _ = run.setup_workload(TinyE1, 3)
    result = run.measure(wl, 0.0, yardstick=_FixedStick())
    assert result["slices"] == TinyE1.prefix_chunks
    # A host at half the nominal speed: the nominal rate is twice the raw one.
    assert result["nominal_ops_per_s"] == pytest.approx(2 * result["ops_per_s"])
    both = run.combine([result, result])
    assert both["nominal_ops_per_s"] == pytest.approx(2 * both["ops_per_s"])
    # Without a yardstick the rate is left as measured.
    _, plain = _prefix(TinyE1)
    assert plain["slices"] == 0 and plain["nominal_ops_per_s"] == plain["ops_per_s"]


def test_yardstick_does_fixed_work_with_the_collector_off():
    stick = yardstick.Yardstick(nodes=200, steps=500)
    run_slice = stick._run
    enabled = []

    def spy():
        enabled.append(gc.isenabled())
        return run_slice()

    stick._run = spy
    assert gc.isenabled() and stick.slice() > 0
    assert enabled == [False] and gc.isenabled()
    del stick._run
    assert stick._run() == stick.checksum == yardstick.Yardstick(nodes=200, steps=500).checksum
    stick.checksum += 1
    with pytest.raises(RuntimeError):
        stick.slice()


@pytest.mark.parametrize("cls", [TinyE1, TinyCold, TinyZipf])
def test_same_seed_runs_are_identical(cls):
    _, first = _prefix(cls)
    _, second = _prefix(cls)
    assert first["prefix"]["sim"] == second["prefix"]["sim"]
    assert first["prefix"]["counts"] == second["prefix"]["counts"]


def test_tracing_does_not_change_the_simulation():
    _, plain = _prefix(TinyZipf)
    with tracing.LayerTracer() as tracer:
        _, traced = _prefix(TinyZipf, log=tracer.log)
    assert plain["prefix"]["sim"] == traced["prefix"]["sim"]
    assert plain["prefix"]["counts"] == traced["prefix"]["counts"]
    metrics = layers.derive(tracer.log, plain, traced)
    assert set(metrics) == set(layers.PER_LAYER)
    assert metrics["xrootd.requests_per_op"]["value"] > 0
    assert metrics["obs.calls_per_op"]["value"] > 0
    # Ops issued in the measured phase tag their client spans with their id
    # (ops already running when it began keep -1).
    client = tracer.log.name_id("client.open")
    ops = {op for nid, op in zip(tracer.log.name, tracer.log.op) if nid == client}
    assert len(ops - {-1}) > 10
    # The benchmark's op bodies and oracles run inside the simulation under
    # spans of their own, so their time is not charged to the kernel; the
    # client's coroutines they drive are their children.
    log = tracer.log
    bench = log.name_id(workloads.BENCH_SPAN)
    assert log.calls[workloads.BENCH_SPAN] > 0
    tagged = [i for i, (nid, op) in enumerate(zip(log.name, log.op)) if nid == client and op >= 0]
    assert all(log.name[log.parent[i]] == bench for i in tagged)


def test_bypassed_layers_read_zero_on_warm_e1():
    _, plain = _prefix(TinyE1)
    with tracing.LayerTracer() as tracer:
        _, traced = _prefix(TinyE1, log=tracer.log)
    metrics = layers.derive(tracer.log, plain, traced)
    log = tracer.log
    run_id = log.name_id("kernel.run")
    ops = [op for nid, op in zip(log.name, log.op) if nid == run_id]
    assert sorted(set(ops) - {-1}) == list(range(TinyE1.chunk_ops * TinyE1.prefix_chunks))
    for name in ("xrootd.requests_per_op", "xrootd.handle_us_per_op",
                 "obs.calls_per_op", "obs.us_per_op"):
        assert metrics[name]["value"] == 0, name
    assert metrics["kernel.self_us_per_op"]["value"] > 0


def test_traced_run_restores_every_wrapped_function():
    points = [(owner, attr) for owner, attr, _, _ in tracing.ENTRY_POINTS]
    points.append((Process, "__init__"))
    before = [owner.__dict__[attr] for owner, attr in points]
    callbacks = list(gc.callbacks)
    with tracing.LayerTracer() as tracer:
        assert all(owner.__dict__[attr] is not fn for (owner, attr), fn in zip(points, before))
        _prefix(TinyE1, log=tracer.log)
    assert [owner.__dict__[attr] for owner, attr in points] == before
    assert gc.callbacks == callbacks
    # An untraced run after the traced one records nothing.
    spans = len(tracer.log)
    wl, _ = run.setup_workload(TinyE1, 3)
    wl.run_chunk()
    assert len(tracer.log) == spans


def test_tracer_restores_after_an_error():
    before = tracing.Simulator.__dict__["run"]
    with pytest.raises(RuntimeError):
        with tracing.LayerTracer():
            raise RuntimeError("boom")
    assert tracing.Simulator.__dict__["run"] is before


def test_self_time_on_a_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # the gc span [6, 7] interrupted b.
    names = ["root", "a", "b", "c", "gc"]
    name = [0, 1, 2, 3, 4]
    start = [0.0, 1.0, 5.0, 2.0, 6.0]
    end = [10.0, 4.0, 9.0, 3.0, 7.0]
    parent = [-1, 0, 0, 1, 2]
    assert tracing.self_times(names, name, start, end, parent) == {
        "root": 3.0, "a": 2.0, "b": 3.0, "c": 1.0, "gc": 1.0,
    }


def test_self_times_sum_names_and_cover_the_root():
    names = ["x", "y"]
    name = [0, 1, 1, 0]
    start = [0.0, 1.0, 3.0, 6.0]
    end = [5.0, 2.0, 4.0, 8.0]
    parent = [-1, 0, 0, -1]
    selfs = tracing.self_times(names, name, start, end, parent)
    assert selfs == {"x": 5.0, "y": 2.0}
    assert sum(selfs.values()) == (5.0 - 0.0) + (8.0 - 6.0)


def test_generator_spans_time_resumes_not_lifetime():
    log = tracing.SpanLog()

    def body():
        got = yield "first"
        try:
            yield got
        except KeyError:
            yield "caught"
        return "done"

    gen = tracing._wrap_gen(body, log, "client.test")()
    assert next(gen) == "first"
    assert gen.send("second") == "second"
    assert gen.throw(KeyError("k")) == "caught"
    with pytest.raises(StopIteration) as stop:
        next(gen)
    assert stop.value.value == "done"
    assert log.calls == {"client.test.new": 1, "client.test": 4}
    assert len(log) == 4 and not log._stack
    assert all(e >= s for s, e in zip(log.start, log.end))


def test_spans_round_trip_through_a_file(tmp_path):
    log = tracing.SpanLog()
    outer = log.open(log.name_id("kernel.run"), "kernel.run")
    log.close(log.open(log.name_id("network.send"), "network.send"))
    log.close(outer)
    path = tmp_path / "spans.bin"
    log.write(path)
    names, fields = tracing.load_spans(path)
    assert names == log.names
    assert list(fields["parent"]) == [-1, 0]
    assert list(fields["start"]) == list(log.start)
