#!/usr/bin/env python3
"""Check that zipf-mixed's arrival rate leaves the cluster far from saturation.

    python3 perfbench/saturation.py --seed 1 --rates 100,200,400

Runs the zipf-mixed prefix (five simulated seconds of warm-up, then ten
measured) at each arrival rate and prints the simulated latencies.  Each
daemon serves its messages one at a time, so near saturation messages
queue and the latencies grow with the rate; far below it they stay flat.
"""

from __future__ import annotations

import argparse

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rates", default="100,200,400",
                        help="arrival rates to try, in ops per simulated second")
    args = parser.parse_args(argv)
    run._load_program()
    from workloads import ZipfMixed

    print("rate_per_sim_s ops failed read_p50_us read_p90_us write_p50_us miss_p50_us")
    worst = 0
    for rate in (float(r) for r in args.rates.split(",")):
        cls = type("ZipfMixedAtRate", (ZipfMixed,), {"rate": rate})
        wl, _ = run.setup_workload(cls, args.seed)
        result = run.measure(wl, 0.0)
        sim = result["prefix"]["sim"]
        failed = result["failed"] + result["setup_failed"]
        worst = max(worst, failed)
        print(f"{rate:g} {result['ops']} {failed} {sim['read_p50_us']:.1f} "
              f"{sim['read_p90_us']:.1f} {sim['write_p50_us']:.1f} {sim['miss_p50_us']:.1f}")
        del wl
    return 1 if worst else 0


if __name__ == "__main__":
    raise SystemExit(main())
