"""Metrics registry: counters, gauges, fixed-bucket histograms.

Instruments are deliberately minimal: plain Python objects with
``__slots__`` and one mutating method each, because the allocator
extension touches them on every malloc/free.  Values carry no
wall-clock timestamps -- a snapshot is stamped with the simulated clock
by the caller -- so two identical runs produce byte-identical
snapshots.

A registry can be *disabled*: it then hands out a shared no-op
instrument and :meth:`MetricsRegistry.snapshot` returns an empty
mapping.  Components are expected to check :attr:`MetricsRegistry.enabled`
once at attach time and skip instrumentation wholesale on their hot
paths (the VM batches its counters and flushes only at run/stop
boundaries).
"""

from __future__ import annotations

import math
from bisect import bisect_left
from typing import Dict, List, Optional, Sequence, Union

#: Default histogram bucket upper bounds (values land in the first
#: bucket whose bound is >= value; the implicit last bucket is +inf).
DEFAULT_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """A value that goes up and down (occupancy, footprint)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value

    def add(self, delta: Union[int, float]) -> None:
        self.value += delta


class Histogram:
    """Fixed-bucket histogram of observed values.

    Buckets are cumulative-free: ``counts[i]`` is the number of
    observations ``v`` with ``bounds[i-1] < v <= bounds[i]``; the last
    slot counts everything above the top bound.
    """

    __slots__ = ("name", "bounds", "counts", "total", "sum", "max")

    def __init__(self, name: str,
                 bounds: Sequence[Union[int, float]] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be sorted")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total = 0
        self.sum = 0
        self.max: Union[int, float] = 0

    def observe(self, value: Union[int, float]) -> None:
        self.total += 1
        self.sum += value
        if value > self.max:
            self.max = value
        if value == value:
            self.counts[bisect_left(self.bounds, value)] += 1
        else:
            # NaN compares false with every bound: overflow slot.
            self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def quantile(self, q: float) -> Union[int, float]:
        """The upper bound of the bucket holding the ``q``-quantile
        observation (the open-ended overflow bucket reports the
        observed maximum instead).  Deterministic: derived purely from
        the bucket counts, never from the raw sample stream.  An empty
        histogram answers 0."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        if self.total == 0:
            return 0
        # Epsilon guards float products like 0.95 * 20 == 19.000...004.
        rank = max(1, math.ceil(q * self.total - 1e-9))
        cumulative = 0
        for i, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= rank:
                return self.bounds[i] if i < len(self.bounds) else self.max
        return self.max  # unreachable: counts sum to total

    def merge_from(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.  Both
        must share bucket bounds (fleet aggregation merges per-process
        histograms published with the same layout)."""
        if other.bounds != self.bounds:
            raise ValueError(
                f"histogram bounds mismatch: {self.bounds} vs "
                f"{other.bounds}")
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total
        self.sum += other.sum
        if other.max > self.max:
            self.max = other.max

    def to_snapshot(self) -> Dict[str, object]:
        """The JSON payload :meth:`MetricsRegistry.snapshot` emits."""
        return {"bounds": list(self.bounds), "counts": list(self.counts),
                "total": self.total, "sum": self.sum, "max": self.max,
                "p50": self.quantile(0.50), "p95": self.quantile(0.95),
                "p99": self.quantile(0.99)}

    @classmethod
    def from_snapshot(cls, name: str,
                      payload: Dict[str, object]) -> "Histogram":
        """Rebuild a histogram from its snapshot payload (derived
        fields like p50 are recomputed, not trusted)."""
        hist = cls(name, bounds=tuple(payload["bounds"]))  # type: ignore
        counts = list(payload["counts"])  # type: ignore[arg-type]
        if len(counts) != len(hist.counts):
            raise ValueError(
                f"histogram {name!r}: {len(counts)} counts for "
                f"{len(hist.bounds)} bounds")
        hist.counts = [int(c) for c in counts]
        hist.total = int(payload["total"])  # type: ignore[arg-type]
        hist.sum = payload["sum"]           # type: ignore[assignment]
        hist.max = payload.get("max", 0)    # type: ignore[assignment]
        return hist


class _NullInstrument:
    """Accepts any instrument method as a no-op (disabled registry)."""

    __slots__ = ()

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: Union[int, float]) -> None:
        pass

    def add(self, delta: Union[int, float]) -> None:
        pass

    def observe(self, value: Union[int, float]) -> None:
        pass

    def quantile(self, q: float) -> int:
        return 0


NULL_INSTRUMENT = _NullInstrument()

Instrument = Union[Counter, Gauge, Histogram, _NullInstrument]


class MetricsRegistry:
    """Named instruments, created on first use.

    Names are dotted paths (``"vm.instructions"``,
    ``"checkpoint.dirty_pages"``); snapshots sort by name, so output is
    deterministic regardless of registration order.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument factories -----------------------------------------

    def counter(self, name: str) -> Counter:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str,
                  bounds: Sequence[Union[int, float]] = DEFAULT_BUCKETS
                  ) -> Histogram:
        if not self.enabled:
            return NULL_INSTRUMENT  # type: ignore[return-value]
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = Histogram(name, bounds)
        return inst

    # -- reading ------------------------------------------------------

    def value(self, name: str) -> Union[int, float, None]:
        """Current value of a counter or gauge, or None if unknown."""
        if name in self._counters:
            return self._counters[name].value
        if name in self._gauges:
            return self._gauges[name].value
        return None

    def snapshot(self, time_ns: Optional[int] = None) -> Dict[str, object]:
        """Deterministic, JSON-serializable view of every instrument."""
        snap: Dict[str, object] = {}
        if time_ns is not None:
            snap["time_ns"] = time_ns
        snap["counters"] = {name: c.value for name, c
                            in sorted(self._counters.items())}
        snap["gauges"] = {name: g.value for name, g
                          in sorted(self._gauges.items())}
        snap["histograms"] = {name: h.to_snapshot() for name, h
                              in sorted(self._histograms.items())}
        return snap

    def render(self) -> str:
        """Aligned text table of counters, gauges, and histograms."""
        lines: List[str] = []
        rows = [(name, c.value) for name, c
                in sorted(self._counters.items())]
        rows += [(name, g.value) for name, g
                 in sorted(self._gauges.items())]
        if rows:
            width = max(len(name) for name, _ in rows)
            lines += [f"  {name:<{width}}  {value}" for name, value in rows]
        for name, h in sorted(self._histograms.items()):
            lines.append(f"  {name}  total={h.total} mean={h.mean:.1f} "
                         f"p50={h.quantile(0.50):g} "
                         f"p95={h.quantile(0.95):g} "
                         f"p99={h.quantile(0.99):g}")
        return "\n".join(lines) if lines else "  (no instruments)"


#: Shared disabled registry for components constructed without telemetry.
NULL_REGISTRY = MetricsRegistry(enabled=False)
