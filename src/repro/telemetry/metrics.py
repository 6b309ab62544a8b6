"""Process-wide metrics: counters, gauges and histograms with labels.

Prometheus-shaped but zero-dependency. Every instrument lives in a
:class:`MetricsRegistry`; one registry is process-wide
(:func:`registry`) and is what the instrumentation across :mod:`repro`
publishes into. Instruments hold *labeled series*: ``counter.inc(1,
switch="phys0")`` and ``counter.inc(1, switch="phys1")`` are two series
of the same metric.

Naming convention (enforced loosely, documented in DESIGN.md §5):
``sdt_<module>_<name>``, lowercase with underscores, ``_total`` suffix
for counters, ``_seconds`` for time histograms. Names must match
``[a-z][a-z0-9_]*``.

Instruments are deliberately cheap — a counter increment is one dict
update — but the truly hot paths (netsim event loop, switch pipeline)
still only record while a tracer is installed, keeping untraced
benchmark runs at baseline speed.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator

from repro.util.tables import format_table

_NAME_RE = re.compile(r"[a-z][a-z0-9_]*\Z")

#: default histogram bucket upper bounds (values in arbitrary units;
#: time histograms record seconds, depth histograms record counts)
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0,
)

_NO_LABELS: tuple = ()


def _label_key(labels: dict) -> tuple:
    if not labels:
        return _NO_LABELS
    return tuple(sorted(labels.items()))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"bad metric name {name!r}: use lowercase [a-z0-9_], "
            "convention sdt_<module>_<name>"
        )
    return name


class Counter:
    """Monotonically increasing value, per label set."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._series: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def series(self) -> Iterator[tuple[dict, float]]:
        for key, v in sorted(self._series.items()):
            yield dict(key), v


class Gauge:
    """A value that goes up and down, per label set."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._series: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        self._series[_label_key(labels)] = float(value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = _label_key(labels)
        self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        return self._series.get(_label_key(labels), 0.0)

    def remove(self, **labels) -> None:
        """Drop the series of this label set, once what it measured is
        gone (a no-op when there is none)."""
        self._series.pop(_label_key(labels), None)

    def series(self) -> Iterator[tuple[dict, float]]:
        for key, v in sorted(self._series.items()):
            yield dict(key), v


@dataclass(frozen=True)
class HistogramSnapshot:
    """Aggregates of one histogram series."""

    count: int
    total: float
    min: float
    max: float
    #: cumulative counts per bucket upper bound, +Inf last
    bucket_counts: tuple[int, ...]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0


class _HistSeries:
    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self, num_buckets: int) -> None:
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self.buckets = [0] * (num_buckets + 1)  # +Inf overflow bucket


class Histogram:
    """Bucketed distribution (count/sum/min/max + bucket counts)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> None:
        self.name = _check_name(name)
        self.help = help
        if not buckets or list(buckets) != sorted(buckets):
            raise ValueError(f"histogram {name}: buckets must be ascending")
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[tuple, _HistSeries] = {}

    def observe(self, value: float, **labels) -> None:
        key = _label_key(labels)
        s = self._series.get(key)
        if s is None:
            s = self._series[key] = _HistSeries(len(self.buckets))
        s.count += 1
        s.total += value
        if value < s.min:
            s.min = value
        if value > s.max:
            s.max = value
        s.buckets[bisect_left(self.buckets, value)] += 1

    def snapshot(self, **labels) -> HistogramSnapshot:
        s = self._series.get(_label_key(labels))
        if s is None:
            return HistogramSnapshot(0, 0.0, 0.0, 0.0, ())
        return HistogramSnapshot(
            count=s.count, total=s.total, min=s.min, max=s.max,
            bucket_counts=tuple(s.buckets),
        )

    def series(self) -> Iterator[tuple[dict, HistogramSnapshot]]:
        for key in sorted(self._series):
            yield dict(key), self.snapshot(**dict(key))


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named instruments; get-or-create semantics per (name, kind)."""

    def __init__(self) -> None:
        self._instruments: dict[str, Instrument] = {}

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        existing = self._instruments.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        inst = cls(name, help, **kwargs)
        self._instruments[name] = inst
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_BUCKETS) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Instrument | None:
        return self._instruments.get(name)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def reset(self) -> None:
        """Drop every instrument (test isolation / fresh runs)."""
        self._instruments.clear()

    # --- export -------------------------------------------------------
    def to_dict(self) -> dict:
        """Plain-data dump of every series (JSON-safe)."""
        out: dict = {}
        for name in self.names():
            inst = self._instruments[name]
            if isinstance(inst, Histogram):
                out[name] = {
                    "kind": inst.kind,
                    "series": [
                        {"labels": labels, "count": s.count, "sum": s.total,
                         "min": s.min, "max": s.max}
                        for labels, s in inst.series()
                    ],
                }
            else:
                out[name] = {
                    "kind": inst.kind,
                    "series": [
                        {"labels": labels, "value": v}
                        for labels, v in inst.series()
                    ],
                }
        return out

    def summary_table(self, *, max_series: int = 8) -> str:
        """Human-readable roll-up of every metric (CLI output)."""
        rows = []
        for name in self.names():
            inst = self._instruments[name]
            series = list(inst.series())
            if not series:
                continue
            shown = series[:max_series]
            for labels, v in shown:
                label_str = ",".join(f"{k}={val}" for k, val in labels.items())
                if isinstance(inst, Histogram):
                    value_str = (f"n={v.count} mean={v.mean:.3g} "
                                 f"min={v.min:.3g} max={v.max:.3g}")
                else:
                    value_str = f"{v:g}"
                rows.append([name, inst.kind, label_str or "-", value_str])
            if len(series) > max_series:
                rows.append([name, inst.kind,
                             f"... {len(series) - max_series} more series", ""])
        return format_table(
            ["Metric", "Kind", "Labels", "Value"], rows,
            title="Telemetry metrics",
        )


# --- process-wide registry ----------------------------------------------

_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide registry all built-in instrumentation uses."""
    return _REGISTRY


def set_registry(reg: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry; returns the previous one."""
    global _REGISTRY
    old, _REGISTRY = _REGISTRY, reg
    return old
