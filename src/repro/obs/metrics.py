"""Thread-safe metrics primitives: counters, gauges, log-bucket histograms.

A :class:`MetricsRegistry` is a named collection of metrics designed to be
left on in production code paths:

* metric objects are created once (``registry.counter(name)`` is
  get-or-create) and then updated lock-striped — the registry keeps a
  small fixed pool of locks and assigns each metric one by name hash, so
  unrelated hot counters do not contend on a single global lock;
* :class:`Histogram` uses fixed power-of-two buckets selected with
  :func:`math.frexp` — no ``log`` calls, no dynamic bucket allocation on
  the observe path;
* :class:`Counter` additionally keeps a small rolling window of
  per-second deltas so ``rate()`` reports a recent events/sec figure
  without unbounded memory.

Snapshots (:meth:`MetricsRegistry.snapshot` / ``to_json``) are plain
dicts safe to serialize; :meth:`MetricsRegistry.merge` folds another
registry in (counters and histograms add, gauges keep the max — the
convention for per-rank registries merged into a run-level view).

Naming convention: ``repro.<subsystem>.<name>`` — e.g.
``repro.smpi.allreduce.bytes``, ``repro.core.step_seconds``,
``repro.serving.flush_seconds``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]

#: Histogram bucket exponents: bucket ``i`` holds values ``v`` with
#: ``2**(i-1+_MIN_EXP) < v <= 2**(i+_MIN_EXP)``.  The range covers
#: sub-microsecond timings (2**-40 ≈ 1e-12) through multi-gigabyte byte
#: counts (2**60 ≈ 1e18); out-of-range values clamp to the edge buckets.
_MIN_EXP = -40
_MAX_EXP = 60
_N_BUCKETS = _MAX_EXP - _MIN_EXP + 1


def _bucket_index(value: float) -> int:
    """Fixed log2 bucket for ``value`` (clamped; ``<= 0`` maps to 0)."""
    if value <= 0.0:
        return 0
    exp = math.frexp(value)[1]  # value = m * 2**exp, 0.5 <= m < 1
    if exp < _MIN_EXP:
        return 0
    if exp > _MAX_EXP:
        return _N_BUCKETS - 1
    return exp - _MIN_EXP


class Counter:
    """Monotonically increasing counter with a rolling-window rate."""

    def __init__(
        self, name: str, lock: threading.Lock, window_s: float = 60.0
    ) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0
        self._window_s = float(window_s)
        # Rolling rate: per-second buckets of (whole_second, delta_sum),
        # pruned on every inc — bounded by window_s entries.
        self._buckets: Deque[List[float]] = deque()

    def inc(self, amount: float = 1.0) -> None:
        now = time.monotonic()
        second = float(int(now))
        with self._lock:
            self._value += amount
            if self._buckets and self._buckets[-1][0] == second:
                self._buckets[-1][1] += amount
            else:
                self._buckets.append([second, amount])
            horizon = now - self._window_s
            while self._buckets and self._buckets[0][0] < horizon:
                self._buckets.popleft()

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def rate(self) -> float:
        """Recent events/sec over (at most) the rolling window."""
        now = time.monotonic()
        horizon = now - self._window_s
        with self._lock:
            while self._buckets and self._buckets[0][0] < horizon:
                self._buckets.popleft()
            if not self._buckets:
                return 0.0
            total = sum(bucket[1] for bucket in self._buckets)
            span = max(now - self._buckets[0][0], 1.0)
        return total / span

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value, "rate_per_s": self.rate()}


class Gauge:
    """Last-value metric (``set``), with ``inc``/``dec`` convenience."""

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def snapshot(self) -> float:
        return self.value


class Histogram:
    """Fixed log2-bucket histogram (no allocation on ``observe``)."""

    def __init__(self, name: str, lock: threading.Lock) -> None:
        self.name = name
        self._lock = lock
        self._counts = [0] * _N_BUCKETS
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def observe(self, value: float) -> None:
        index = _bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if value < self._min:
                self._min = value
            if value > self._max:
                self._max = value

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    @property
    def mean(self) -> float:
        with self._lock:
            return self._sum / self._count if self._count else 0.0

    def snapshot(self) -> Dict[str, Any]:
        with self._lock:
            buckets = {
                # Key = inclusive upper bound of the bucket, as a string
                # (JSON object keys): 2**(i + _MIN_EXP).
                repr(2.0 ** (index + _MIN_EXP)): count
                for index, count in enumerate(self._counts)
                if count
            }
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
        return {
            "count": count,
            "sum": total,
            "mean": (total / count) if count else 0.0,
            "min": lo if count else None,
            "max": hi if count else None,
            "buckets": buckets,
        }

    def _merge_from(self, other: "Histogram") -> None:
        with other._lock:
            counts = list(other._counts)
            count = other._count
            total = other._sum
            lo = other._min
            hi = other._max
        with self._lock:
            for index, n in enumerate(counts):
                self._counts[index] += n
            self._count += count
            self._sum += total
            self._min = min(self._min, lo)
            self._max = max(self._max, hi)


class MetricsRegistry:
    """Named, thread-safe collection of counters, gauges and histograms.

    Metric creation is serialized by one registry lock; updates go
    through a fixed stripe of ``n_stripes`` locks keyed by metric name,
    so hot metrics on different stripes never contend.
    """

    def __init__(self, *, window_s: float = 60.0, n_stripes: int = 16) -> None:
        self._window_s = float(window_s)
        self._create_lock = threading.Lock()
        self._stripes: Tuple[threading.Lock, ...] = tuple(
            threading.Lock() for _ in range(max(1, int(n_stripes)))
        )
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _stripe(self, name: str) -> threading.Lock:
        return self._stripes[hash(name) % len(self._stripes)]

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._counters.get(name)
                if metric is None:
                    metric = Counter(
                        name, self._stripe(name), window_s=self._window_s
                    )
                    self._counters[name] = metric
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._gauges.get(name)
                if metric is None:
                    metric = Gauge(name, self._stripe(name))
                    self._gauges[name] = metric
        return metric

    def histogram(self, name: str) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            with self._create_lock:
                metric = self._histograms.get(name)
                if metric is None:
                    metric = Histogram(name, self._stripe(name))
                    self._histograms[name] = metric
        return metric

    def snapshot(self) -> Dict[str, Any]:
        """Plain-dict snapshot of every metric (JSON-serializable)."""
        with self._create_lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
        return {
            "counters": {c.name: c.snapshot() for c in counters},
            "gauges": {g.name: g.snapshot() for g in gauges},
            "histograms": {h.name: h.snapshot() for h in histograms},
        }

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s metrics into this registry.

        Counters and histogram buckets/count/sum add; gauges keep the
        maximum of the two values (per-rank gauges like queue depth merge
        to the worst/highest observed).  Rolling
        rate windows are not merged — ``rate()`` on the merged registry
        reflects only increments made through it.
        """
        with other._create_lock:
            counters = list(other._counters.values())
            gauges = list(other._gauges.values())
            histograms = list(other._histograms.values())
        for counter in counters:
            delta = counter.value
            if delta:
                self.counter(counter.name).inc(delta)
            else:
                self.counter(counter.name)
        for gauge in gauges:
            mine = self.gauge(gauge.name)
            mine.set(max(mine.value, gauge.value))
        for histogram in histograms:
            self.histogram(histogram.name)._merge_from(histogram)

    def reset(self) -> None:
        with self._create_lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
