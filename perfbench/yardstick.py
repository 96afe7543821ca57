"""A fixed amount of pure-Python work that measures how fast the host is.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds (see README.md, *Host noise*).  A run therefore interleaves
one yardstick *slice* after every chunk of the workload and reports its host
times at the yardstick's nominal speed: a time is scaled by
``NOMINAL_S / slice time``, measured at the same moments.

A slice is a miniature discrete-event loop in the simulator's own idiom:
generator processes resumed from a heap, each walking a linked graph of
objects and looking names up in a dict.  It shares no code with the
program, so a change to ``src/`` does not change the yardstick.
"""

from __future__ import annotations

import gc
import heapq
import random
import time

#: Median seconds of one slice on the host where the benchmark was defined
#: (a shared 2-vCPU Xeon virtual machine, Python 3.11.7).  A time scaled by
#: the yardstick reads as it would on that host at that speed.
NOMINAL_S = 0.035


class _Node:
    __slots__ = ("key", "next", "weight")

    def __init__(self, key: str, weight: int) -> None:
        self.key = key
        self.weight = weight
        self.next: _Node | None = None


class Yardstick:
    """Times slices of a fixed mini event loop; see the module docstring."""

    def __init__(self, nodes: int = 5_000, procs: int = 64, steps: int = 20_000) -> None:
        rng = random.Random(7)
        self.nodes = [_Node(f"/stick/{i:06d}", i & 255) for i in range(nodes)]
        order = list(range(nodes))
        rng.shuffle(order)
        for a, b in zip(order, order[1:] + order[:1]):
            self.nodes[a].next = self.nodes[b]
        self.index = {node.key: node for node in self.nodes}
        self.keys = [self.nodes[rng.randrange(nodes)].key for _ in range(4096)]
        self.procs = procs
        self.steps = steps
        self.checksum = self._run()
        self.times: list[float] = []

    def _proc(self, pid: int):
        node = self.nodes[pid * 997 % len(self.nodes)]
        keys, index = self.keys, self.index
        i = pid * 37
        acc = 0
        while True:
            for _ in range(4):
                node = node.next
            acc += node.weight ^ index[keys[i & 4095]].weight
            i += 1
            yield acc

    def _run(self) -> int:
        procs = [self._proc(p) for p in range(self.procs)]
        heap = [(0, p) for p in range(self.procs)]
        total = 0
        for _ in range(self.steps):
            t, p = heapq.heappop(heap)
            acc = next(procs[p])
            total += acc
            heapq.heappush(heap, (t + (acc & 7) + 1, p))
        return total

    def slice(self) -> float:
        """Run one slice and return its host seconds.

        The collector is off during a slice: the slice frees everything it
        allocates by reference counting, and a collection started here
        would time the workload's heap, not the host.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            total = self._run()
            took = time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()
        if total != self.checksum:
            raise RuntimeError("yardstick slice computed a different result")
        self.times.append(took)
        return took
