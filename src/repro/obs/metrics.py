"""Process-local metrics registry: counters, gauges, and histograms.

Always-on, cheap, pull-based: instrumented layers increment named
counters (``queries_total``, ``retries_total``, ``failovers_total``,
``rows_scanned``, ...), move gauges (``nodes_down``), and record
latencies into histograms (``query_seconds``); callers read a
point-in-time :meth:`snapshot`.  Metrics carry optional labels
(``backend="postgres"``), and each distinct ``(name, labels)`` pair is
its own series, like Prometheus client libraries.

The registry is process-local state, not a wire protocol — tests and the
bench layer read it directly.  :data:`metrics` is the shared default
registry; construct a private :class:`MetricsRegistry` for isolation.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "metrics"]

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing count.

    Mutation takes a per-series lock: ``+=`` is a read-modify-write, and
    shard work may run on dispatcher worker threads.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self.value += amount


class Gauge:
    """A value that can go up and down (current node outages, queue depth).

    Unlike :class:`Counter`, negative moves are legal: health boards
    ``inc`` on a node going down and ``dec`` when it recovers.
    """

    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self.value -= amount


class Histogram:
    """Summary statistics over observed values (count/sum/min/max).

    Enough to answer "how many and how long" without binning; ``mean`` is
    derived.  Observations are floats (seconds, rows, ...).
    """

    __slots__ = ("name", "labels", "count", "total", "minimum", "maximum", "_lock")

    def __init__(self, name: str, labels: _LabelKey) -> None:
        self.name = name
        self.labels = labels
        self.count = 0
        self.total = 0.0
        self.minimum: float | None = None
        self.maximum: float | None = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self.count += 1
            self.total += value
            if self.minimum is None or value < self.minimum:
                self.minimum = value
            if self.maximum is None or value > self.maximum:
                self.maximum = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class MetricsRegistry:
    """Named counters and histograms, keyed by ``(name, labels)``."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[tuple[str, _LabelKey], Counter] = {}
        self._gauges: dict[tuple[str, _LabelKey], Gauge] = {}
        self._histograms: dict[tuple[str, _LabelKey], Histogram] = {}
        #: :meth:`count`'s and :meth:`observe`'s series, looked up once.
        self._series: dict[tuple, Any] = {}

    def counter(self, name: str, **labels: Any) -> Counter:
        key = (name, _label_key(labels))
        counter = self._counters.get(key)
        if counter is None:
            with self._lock:
                counter = self._counters.setdefault(key, Counter(name, key[1]))
        return counter

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = (name, _label_key(labels))
        gauge = self._gauges.get(key)
        if gauge is None:
            with self._lock:
                gauge = self._gauges.setdefault(key, Gauge(name, key[1]))
        return gauge

    def histogram(self, name: str, **labels: Any) -> Histogram:
        key = (name, _label_key(labels))
        histogram = self._histograms.get(key)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.setdefault(key, Histogram(name, key[1]))
        return histogram

    def _resolved(self, key: tuple, lookup: Callable[[], Any]) -> Any:
        """``lookup()``'s series, looked up once per *key* until :meth:`reset`."""
        series = self._series.get(key)
        if series is None:
            with self._lock:  # so a reset cannot drop the series in between
                series = self._series[key] = lookup()
        return series

    def count(self, name: str, backend: str = "", amount: int = 1) -> None:
        """Bump a counter both plain and labeled by *backend* (when named)."""
        if amount:
            for counter in self._resolved(
                ("count", name, backend),
                lambda: [self.counter(name)] + ([self.counter(name, backend=backend)] if backend else []),
            ):
                counter.inc(amount)

    def observe(self, name: str, backend: str, value: float) -> None:
        """Record *value* in the histogram *name* labeled by *backend*."""
        self._resolved(("observe", name, backend), lambda: self.histogram(name, backend=backend)).observe(value)

    # -- reading --------------------------------------------------------
    def counter_value(self, name: str, **labels: Any) -> int:
        """Current value of a counter series (0 if never incremented)."""
        counter = self._counters.get((name, _label_key(labels)))
        return counter.value if counter is not None else 0

    def gauge_value(self, name: str, **labels: Any) -> float:
        """Current value of a gauge series (0.0 if never moved)."""
        gauge = self._gauges.get((name, _label_key(labels)))
        return gauge.value if gauge is not None else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Point-in-time dump of every series, for export/inspection."""

        def series_name(name: str, labels: _LabelKey) -> str:
            if not labels:
                return name
            rendered = ",".join(f"{k}={v}" for k, v in labels)
            return f"{name}{{{rendered}}}"

        out: dict[str, Any] = {"counters": {}, "gauges": {}, "histograms": {}}
        for (name, labels), counter in sorted(self._counters.items()):
            out["counters"][series_name(name, labels)] = counter.value
        for (name, labels), gauge in sorted(self._gauges.items()):
            out["gauges"][series_name(name, labels)] = gauge.value
        for (name, labels), histogram in sorted(self._histograms.items()):
            out["histograms"][series_name(name, labels)] = {
                "count": histogram.count,
                "sum": histogram.total,
                "min": histogram.minimum,
                "max": histogram.maximum,
                "mean": histogram.mean,
            }
        return out

    def reset(self) -> None:
        with self._lock:
            self._series.clear()
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


#: The shared process-local registry instrumented layers write to.
metrics = MetricsRegistry()
