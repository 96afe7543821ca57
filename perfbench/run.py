#!/usr/bin/env python3
"""Run the repo benchmark on one workload, or on all of them.

    python3 perfbench/run.py --workload warm-e1 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` runs the workload twice, untraced and then with every layer
entry point wrapped in spans, and reports the per-layer metrics.  The last
line of standard output is always one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the exit code is 1
when any output fails its check.  ``--workload all`` runs each workload in
its own process, so that one workload's memory peak does not carry into
the next.  See perfbench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from yardstick import NOMINAL_S, Yardstick

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Share of ``--seconds`` given to the untraced phase of a traced run.
UNTRACED_SHARE = 0.5
#: Yardstick slices run just before, and again just after, each set-up sample.
SETUP_SLICES = 2


def _load_program() -> None:
    """Put the program (``src/``) and the perf suite on the import path."""
    src = os.path.join(ROOT, "src")
    perf = os.path.join(ROOT, "benchmarks", "perf")
    for need in (os.path.join(src, "repro", "__init__.py"), os.path.join(perf, "__init__.py")):
        if not os.path.isfile(need):
            raise SystemExit(f"perfbench: {os.path.relpath(need, ROOT)} not found; "
                             "run from a full checkout of the repository")
    sys.path[:0] = [src, os.path.dirname(perf)]


def setup_workload(cls, seed: int):
    """Build and warm one workload instance; returns (workload, host seconds)."""
    t0 = time.perf_counter()
    wl = cls(seed)
    wl.setup()
    return wl, time.perf_counter() - t0


def setup_sample(cls, seed: int):
    """Time one set-up sample, the mean of ``cls.setup_block`` builds.

    Returns (host seconds per build, the last workload built).  The
    previous build is dropped and collected, untimed, before each build,
    so no two clusters are alive at once and no build pays for freeing the
    one before it.  The caller must hold no workload either.
    """
    took = 0.0
    wl = None
    for _ in range(cls.setup_block):
        wl = None
        gc.collect()
        wl, t = setup_workload(cls, seed)
        took += t
    return took / cls.setup_block, wl


def slowdown(stick_s: float, slices: int) -> float:
    """How much slower than nominal the host ran *slices* yardstick slices
    that took *stick_s* seconds in all; 1.0 when there were none."""
    return stick_s / slices / NOMINAL_S if slices else 1.0


def measure(wl, seconds: float, log=None, yardstick=None) -> dict:
    """Run chunks until *seconds* have passed and the prefix is complete.

    With a *yardstick* (a ``yardstick.Yardstick``), one of its slices
    runs after every chunk; the slices count toward *seconds*, and
    ``stick_s`` and ``slices`` in the result are their total time and
    number, and ``nominal_ops_per_s`` is ``ops_per_s`` at the yardstick's
    nominal speed (the raw rate when there is no yardstick).

    Returns the host time and op count over all chunks, plus a *prefix*
    snapshot (the simulated latencies and counter deltas of the first
    ``prefix_chunks`` chunks), which is deterministic for a given seed, and
    the peak memory up to the end of the prefix.  The peak is read there,
    not at the end, because the caches grow with every op: a faster program
    would otherwise run more ops in ``seconds`` and read as a heavier one.
    """
    setup_failed = wl.failed
    setup_errors = list(wl.errors)
    wl.begin_measurement()
    base = wl.counters()
    if log is not None:
        log.reset()
        wl.span_log = log
    prefix = None
    elapsed = stick_s = 0.0
    slices = 0
    while True:
        t0 = time.perf_counter()
        wl.run_chunk()
        elapsed += time.perf_counter() - t0
        if yardstick is not None:
            stick_s += yardstick.slice()
            slices += 1
        if wl.chunks == wl.prefix_chunks:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            now = wl.counters()
            prefix = {
                "sim": wl.sim_metrics(),
                "counts": {k: now[k] - base.get(k, 0) for k in now},
                "calls": dict(log.calls) if log is not None else {},
            }
        if wl.exhausted or (prefix is not None and elapsed + stick_s >= seconds):
            break
    if prefix is None:
        raise SystemExit(f"perfbench: {wl.name} ran out of inputs before its prefix")
    return {
        "elapsed": elapsed,
        "ops": wl.done,
        "ops_per_s": wl.done / elapsed,
        "nominal_ops_per_s": wl.done / elapsed * slowdown(stick_s, slices),
        "stick_s": stick_s,
        "slices": slices,
        "peak_mb": peak_mb,
        "failed": wl.failed + wl.timed_out(),
        "setup_failed": setup_failed,
        "errors": setup_errors + wl.errors,
        "prefix": prefix,
    }


def combine(parts: list[dict]) -> dict:
    """One result from the measurements of several same-seed segments.

    Every segment replays the same ops, so their prefixes must agree
    exactly; a difference is reported as an error.  Peak memory is the
    first segment's, read before any later set-up.
    """
    first = parts[0]
    errors = [e for p in parts for e in p["errors"]]
    for i, part in enumerate(parts[1:], 2):
        if part["prefix"]["sim"] != first["prefix"]["sim"] or \
                part["prefix"]["counts"] != first["prefix"]["counts"]:
            errors.append(f"segment {i} prefix differs from segment 1 on the same seed")
    elapsed = sum(p["elapsed"] for p in parts)
    ops = sum(p["ops"] for p in parts)
    stick_s = sum(p["stick_s"] for p in parts)
    slices = sum(p["slices"] for p in parts)
    return {
        "elapsed": elapsed,
        "ops": ops,
        "ops_per_s": ops / elapsed,
        "nominal_ops_per_s": ops / elapsed * slowdown(stick_s, slices),
        "stick_s": stick_s,
        "slices": slices,
        "peak_mb": first["peak_mb"],
        "failed": sum(p["failed"] for p in parts),
        "setup_failed": sum(p["setup_failed"] for p in parts),
        "errors": errors,
        "prefix": first["prefix"],
    }


def _references(wl, sim: dict) -> tuple[list[str], list[str]]:
    """Printed comparisons with the paper and the older benchmarks, and
    the failures among them."""
    from repro.core.models import PaperClaims

    lines, failures = [], []
    depth = wl.cluster.topology.depth()
    claims = PaperClaims()
    if wl.name == "warm-e1":
        per_level = sim["read_p50_us"] / depth
        lines.append(f"reference: read_p50_us per tree level {per_level:.3f} sim-us at depth "
                     f"{depth}; paper cached_latency_per_level "
                     f"{claims.cached_latency_per_level * 1e6:.1f} us")
        with open(os.path.join(ROOT, "BENCH_kernel.json")) as fh:
            entries = json.load(fh)["entries"]
        recorded = entries[-1]["metrics"]["warm_locate_us"]
        lines.append(f"reference: read_p50_us {sim['read_p50_us']:.3f} sim-us; BENCH_kernel.json "
                     f"warm_locate_us {recorded}")
        if round(sim["read_p50_us"], 3) != recorded:
            failures.append(f"warm-e1 read_p50_us {sim['read_p50_us']} != recorded {recorded}")
    elif wl.name == "cold-flood":
        lines.append(f"reference: read_p50_us {sim['read_p50_us']:.3f} sim-us at depth {depth}; "
                     f"paper uncached_latency {claims.uncached_latency * 1e6:.1f} us at depth 1")
    return lines, failures


def _check(result: dict) -> list[str]:
    problems = list(result["errors"])
    if result["setup_failed"]:
        problems.append(f"{result['setup_failed']} warm-up ops failed")
    return problems


def run_untraced(cls, seed: int, seconds: float) -> tuple[dict, list[str], list[str]]:
    """Measure the end-to-end metrics; returns (result, report lines, problems)."""
    from perf import calibrate

    # The measured phase is split into one segment per set-up sample: each
    # segment sets the workload up afresh (timed) and runs it for an equal
    # share of *seconds*.  The set-up samples are thus spread over the whole
    # run, and their median does not hang on one moment of a host whose
    # speed drifts over seconds.  Host times are scaled to the yardstick's
    # nominal speed, measured by SETUP_SLICES slices on each side of a
    # set-up and one slice after each chunk.
    yardstick = Yardstick()
    raw_setups, setups, parts = [], [], []
    for _ in range(cls.setups):
        around = sum(yardstick.slice() for _ in range(SETUP_SLICES))
        took, wl = setup_sample(cls, seed)
        around += sum(yardstick.slice() for _ in range(SETUP_SLICES))
        raw_setups.append(took)
        setups.append(took / slowdown(around, 2 * SETUP_SLICES))
        parts.append(measure(wl, seconds / cls.setups, yardstick=yardstick))
        if len(parts) == 1:
            lines, failures = _references(wl, parts[0]["prefix"]["sim"])
        wl = None
    result = combine(parts)
    sim = result["prefix"]["sim"]
    for key, value in sim.items():
        lines.append(f"sim {key} {value!r} sim-us (first {cls.prefix_chunks} chunks)")
    lines.append(f"measured {result['ops']} ops in {result['elapsed']:.3f} s, raw "
                 f"{result['ops_per_s']:.4g} ops/s; raw setups "
                 f"{', '.join(f'{s:.4f}' for s in raw_setups)} s; host calibration "
                 f"{calibrate(n=500_000):.0f}/s (perf.calibrate)")
    lines.append(f"yardstick: {len(yardstick.times)} slices, median "
                 f"{statistics.median(yardstick.times) * 1e3:.2f} ms, nominal "
                 f"{NOMINAL_S * 1e3:.2f} ms; host at "
                 f"{1 / slowdown(result['stick_s'], result['slices']):.3f}x nominal speed")
    result["metrics"] = {
        "ops_per_s": {"value": result["nominal_ops_per_s"], "unit": "ops/s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_mem_mb": {"value": result["peak_mb"], "unit": "MB"},
    }
    return result, lines, failures + _check(result)


def run_traced(cls, seed: int, seconds: float) -> tuple[dict, list[str], list[str]]:
    """Measure the per-layer metrics; returns (result, report lines, problems)."""
    import layers
    from tracing import LayerTracer

    yardstick = Yardstick()
    wl, _ = setup_workload(cls, seed)
    plain = measure(wl, seconds * UNTRACED_SHARE, yardstick=yardstick)
    del wl
    gc.collect()
    with LayerTracer() as tracer:
        wl, _ = setup_workload(cls, seed)
        traced = measure(wl, seconds * (1 - UNTRACED_SHARE), tracer.log, yardstick)
    problems = _check(plain) + _check(traced)
    if plain["prefix"]["sim"] != traced["prefix"]["sim"]:
        problems.append("simulated latencies differ between the untraced and traced runs")
    if plain["prefix"]["counts"] != traced["prefix"]["counts"]:
        diff = {k for k, v in plain["prefix"]["counts"].items()
                if traced["prefix"]["counts"].get(k) != v}
        problems.append(f"counters differ between the untraced and traced runs: {sorted(diff)}")
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    spans_path = os.path.join(out_dir, f"spans-{cls.name}-seed{seed}.bin")
    tracer.log.write(spans_path)
    traced["metrics"] = layers.derive(tracer.log, plain, traced)
    lines = [f"{len(tracer.log)} spans written to {os.path.relpath(spans_path, ROOT)}"]
    return traced, lines, problems


def run_one(args) -> int:
    _load_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    runner = run_traced if args.trace else run_untraced
    result, lines, problems = runner(cls, args.seed, args.seconds)
    correct = not problems and result["failed"] == 0
    for line in lines + [f"check failed: {p}" for p in problems]:
        print(f"[{args.workload}] {line}")
    for name, metric in result["metrics"].items():
        print(f"[{args.workload}] {name} {metric['value']!r} {metric['unit']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["ops"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    sys.stdout.flush()
    return 0 if correct else 1


def run_all(args) -> int:
    _load_program()
    from workloads import WORKLOADS

    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        sys.stdout.write(proc.stdout)
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["warm-e1", "cold-flood", "zipf-mixed", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
