"""The metrics registry: counters, gauges, histograms, by name + labels.

Zero dependencies, and deliberately boring.  Every fact the protocol
counts already lives in a field of the component that counts it — a
``*Stats`` dataclass (``CmsdStats.locates``), or a plain attribute
(``ResponseQueue.fast_responses``, ``Simulator.events_processed``).  The
registry does not count those facts a second time: :meth:`pull_counters`
and :meth:`pull_gauge` bind a series to the field, and the value is read
when a snapshot is taken, the way a Prometheus collector pulls.  So each
counter exists once and is always on, and an instrumented hot path pays
nothing for it.

Pushed instruments remain for what no field holds: histograms
(:class:`repro.sim.monitor.Histogram`, so per-node series merge into
cluster totals via :meth:`~repro.sim.monitor.Histogram.merge` and report
the same p50/p95/p99 summary the benches print) and gauges that sample a
moment (the cache population at each window tick).  Those are resolved
once, at component construction, and then mutated through plain
attribute arithmetic — never looked up by name inside a hot loop.

Metric identity is ``(name, sorted(labels))``, the Prometheus convention:
``cache_lookups_total{node="m0"}`` and the same name with ``node="s3"``
are independent series that an exporter can aggregate.
"""

from __future__ import annotations

from repro.sim.monitor import Histogram

__all__ = ["Counter", "Gauge", "MetricsRegistry", "Pulled", "labels_key"]


def labels_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    """Canonical hashable form of a label set."""
    return tuple(sorted(labels.items()))


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount


class Gauge:
    """A value that can go up and down (queue depth, population, load)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta


class Pulled:
    """A series whose value is read from ``(owner, attribute)`` sources.

    A node restart builds fresh daemons with fresh stats, and binds them
    to the same series.  A counter sums every instance it was ever bound
    to, so a rebooted daemon keeps counting; a gauge reads the newest.
    """

    __slots__ = ("sources", "summed")

    def __init__(self, summed: bool) -> None:
        self.sources: list[tuple[object, str]] = []
        self.summed = summed

    @property
    def value(self):
        if self.summed:
            return sum(getattr(owner, attr) for owner, attr in self.sources)
        owner, attr = self.sources[-1]
        return getattr(owner, attr)


class MetricsRegistry:
    """Get-or-create store of instruments keyed by name + labels."""

    def __init__(self) -> None:
        self._counters: dict[tuple, Counter | Pulled] = {}
        self._gauges: dict[tuple, Gauge | Pulled] = {}
        self._histograms: dict[tuple, Histogram] = {}

    # -- instrument factories ------------------------------------------------

    def counter(self, name: str, **labels: str) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels)

    @staticmethod
    def _get(store: dict, factory, name: str, labels: dict[str, str]):
        key = (name, labels_key(labels))
        inst = store.get(key)
        if inst is None:
            inst = store[key] = factory()
        return inst

    # -- read-through series -------------------------------------------------

    def pull_counters(self, owner: object, fields: dict[str, str], **labels: str) -> None:
        """Bind each counter series ``name`` to ``owner.<fields[name]>``."""
        for name, attr in fields.items():
            self._pull(self._counters, name, labels, owner, attr, summed=True)

    def pull_gauge(self, name: str, owner: object, attr: str, **labels: str) -> None:
        """Bind gauge series ``name`` to ``owner.<attr>``."""
        self._pull(self._gauges, name, labels, owner, attr, summed=False)

    @staticmethod
    def _pull(store: dict, name: str, labels: dict, owner: object, attr: str, *, summed: bool):
        key = (name, labels_key(labels))
        series = store.get(key)
        if series is None:
            series = store[key] = Pulled(summed)
        series.sources.append((owner, attr))

    # -- aggregation / readout -----------------------------------------------

    def counter_total(self, name: str) -> int:
        """Sum of one counter name across every label set."""
        return sum(c.value for (n, _), c in self._counters.items() if n == name)

    def merged_histogram(self, name: str) -> Histogram:
        """All series of one histogram name merged into a cluster total."""
        total = Histogram()
        for (n, _), h in self._histograms.items():
            if n == name:
                total.merge(h)
        return total

    def collect(self):
        """Iterate ``(kind, name, labels, instrument)`` over everything.

        Every instrument has a ``value`` (read through, for pulled series)
        except histograms, which have a ``summary()``.
        """
        for (name, lk), c in sorted(self._counters.items()):
            yield "counter", name, dict(lk), c
        for (name, lk), g in sorted(self._gauges.items()):
            yield "gauge", name, dict(lk), g
        for (name, lk), h in sorted(self._histograms.items()):
            yield "histogram", name, dict(lk), h
