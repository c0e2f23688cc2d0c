"""Process-wide metrics: labelled counters and histograms.

A deliberately small, dependency-free metrics facility in the Prometheus
idiom: named instruments with label sets, a process-wide default
:data:`METRICS` registry, JSON-able snapshots, and a text exposition
renderer.  The web layer records fetch/cache behaviour here (labelled by
page-scheme and cache mode); benchmarks embed a snapshot in their
``BENCH_*.json`` result files so the perf trajectory carries its
instrument readings along.

Metrics are *observational only*: nothing in the query path reads them, so
they can stay always-on without violating the tracing layer's
non-interference contract (results, page counts, and access logs are
independent of registry state).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.errors import MetricCardinalityError

__all__ = [
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "DEFAULT_MAX_SAMPLES",
]

#: Histogram bucket upper bounds, in simulated seconds (the only quantity
#: histogrammed out of the box); the last implicit bucket is +Inf.
DEFAULT_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 60.0)

#: Label-cardinality bound per instrument: creating a series beyond it
#: raises :class:`~repro.errors.MetricCardinalityError` (a URL or request
#: id leaking into a label must fail loudly, not grow without bound).
DEFAULT_MAX_SERIES = 512

#: Raw observations each histogram series retains for exact percentiles.
#: Past the bound the sample set is decimated deterministically (keep
#: every other, double the recording stride), so percentiles degrade to an
#: evenly spaced subsample instead of unbounded memory.
DEFAULT_MAX_SAMPLES = 2048


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """A monotonically increasing value per label set."""

    def __init__(
        self,
        name: str,
        help: str = "",
        lock: Optional[threading.Lock] = None,
        max_series: int = DEFAULT_MAX_SERIES,
    ):
        self.name = name
        self.help = help
        self.max_series = max_series
        self._series: dict[tuple, float] = {}
        self._lock = lock or threading.Lock()

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        with self._lock:
            if key not in self._series and len(self._series) >= self.max_series:
                raise MetricCardinalityError(self.name, self.max_series)
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        """Current value for one label set (0 when never incremented)."""
        return self._series.get(_label_key(labels), 0.0)

    def total(self) -> float:
        """Sum over every label set."""
        return sum(self._series.values())

    def snapshot(self) -> dict:
        return {
            "type": "counter",
            "help": self.help,
            "series": [
                {"labels": dict(key), "value": value}
                for key, value in sorted(self._series.items())
            ],
        }


class Histogram:
    """Cumulative-bucket histogram per label set (count/sum/min/max kept).

    Beyond the Prometheus-style buckets, every series retains its raw
    observations (bounded by ``max_samples``) so :meth:`percentile`
    reports *exact* p50/p95/p99 instead of bucket-boundary interpolation.
    When a series outgrows the bound its samples are decimated
    deterministically — keep every other retained sample, then record only
    every ``stride``-th observation from there on — so long-running series
    degrade to an evenly spaced subsample, never to unbounded memory (the
    per-series ``stride`` in snapshots is 1 iff percentiles are exact)."""

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        lock: Optional[threading.Lock] = None,
        max_series: int = DEFAULT_MAX_SERIES,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ):
        if list(buckets) != sorted(buckets) or not buckets:
            raise ValueError("buckets must be a non-empty ascending sequence")
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.help = help
        self.buckets = tuple(float(b) for b in buckets)
        self.max_series = max_series
        self.max_samples = max_samples
        self._series: dict[tuple, dict] = {}
        self._lock = lock or threading.Lock()

    def observe(self, value: float, **labels) -> None:
        self.observe_each((value,), **labels)

    def observe_each(self, values: Sequence[float], **labels) -> None:
        """``observe`` each of ``values`` in order into one series: one
        label-key sort and one lock round trip for all of them."""
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                if len(self._series) >= self.max_series:
                    raise MetricCardinalityError(self.name, self.max_series)
                series = {
                    "count": 0,
                    "sum": 0.0,
                    "min": values[0],
                    "max": values[0],
                    "bucket_counts": [0] * (len(self.buckets) + 1),
                    "samples": [],
                    "stride": 1,
                }
                self._series[key] = series
            for value in values:
                if series["count"] % series["stride"] == 0:
                    series["samples"].append(value)
                    if len(series["samples"]) > self.max_samples:
                        series["samples"] = series["samples"][::2]
                        series["stride"] *= 2
                series["count"] += 1
                series["sum"] += value
                series["min"] = min(series["min"], value)
                series["max"] = max(series["max"], value)
                for i, bound in enumerate(self.buckets):
                    if value <= bound:
                        series["bucket_counts"][i] += 1
                        break
                else:
                    series["bucket_counts"][-1] += 1

    def count(self, **labels) -> int:
        series = self._series.get(_label_key(labels))
        return series["count"] if series else 0

    def sum(self, **labels) -> float:
        series = self._series.get(_label_key(labels))
        return series["sum"] if series else 0.0

    def percentile(self, fraction: float, **labels) -> Optional[float]:
        """The ``fraction``-quantile of one series' retained samples.

        Exact (nearest-rank over every observation) while the series has
        seen at most ``max_samples`` values — the stride is still 1;
        afterwards it is the same statistic over the evenly spaced
        subsample.  ``None`` for a series never observed."""
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or not series["samples"]:
                return None
            ordered = sorted(series["samples"])
        rank = max(0, math.ceil(fraction * len(ordered)) - 1)
        return ordered[min(rank, len(ordered) - 1)]

    def snapshot(self) -> dict:
        return {
            "type": "histogram",
            "help": self.help,
            "buckets": list(self.buckets),
            "series": [
                {
                    "labels": dict(key),
                    **series,
                    # copy the mutable parts: snapshots must stay stable
                    # while the live series keeps observing (the SLO
                    # window store retains old snapshots)
                    "bucket_counts": list(series["bucket_counts"]),
                    "samples": list(series["samples"]),
                }
                for key, series in sorted(self._series.items())
            ],
        }


class MetricsRegistry:
    """Named instruments, created on first use and shared thereafter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, object] = {}

    def counter(
        self,
        name: str,
        help: str = "",
        max_series: int = DEFAULT_MAX_SERIES,
    ) -> Counter:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Counter(
                    name, help, lock=self._lock, max_series=max_series
                )
                self._instruments[name] = instrument
            elif not isinstance(instrument, Counter):
                raise TypeError(f"{name!r} is already a non-counter metric")
            return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
        max_series: int = DEFAULT_MAX_SERIES,
        max_samples: int = DEFAULT_MAX_SAMPLES,
    ) -> Histogram:
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = Histogram(
                    name,
                    help,
                    buckets,
                    lock=self._lock,
                    max_series=max_series,
                    max_samples=max_samples,
                )
                self._instruments[name] = instrument
            elif not isinstance(instrument, Histogram):
                raise TypeError(f"{name!r} is already a non-histogram metric")
            return instrument

    def names(self) -> list[str]:
        return sorted(self._instruments)

    @contextmanager
    def isolated(self) -> Iterator["MetricsRegistry"]:
        """Swap in an empty instrument table for the ``with`` body and
        restore the previous one afterwards — the test-isolation fixture
        (``tests/conftest.py``) wraps every metrics-sensitive test in
        this so parallel-ordered tests cannot bleed counters into each
        other's assertions.  The registry object (and the lock shared
        with every instrument it handed out) stays the same."""
        with self._lock:
            saved = self._instruments
            self._instruments = {}
        try:
            yield self
        finally:
            with self._lock:
                self._instruments = saved

    def snapshot(self) -> dict:
        """JSON-able dump of every instrument and series."""
        return {
            name: instrument.snapshot()
            for name, instrument in sorted(self._instruments.items())
        }

    def reset(self) -> None:
        """Drop every instrument (tests; benchmarks between experiments)."""
        with self._lock:
            self._instruments.clear()

    def render(self) -> str:
        """Prometheus-style text exposition (for humans and scrapers)."""
        lines: list[str] = []
        for name, data in sorted(self.snapshot().items()):
            if data["help"]:
                lines.append(f"# HELP {name} {data['help']}")
            lines.append(f"# TYPE {name} {data['type']}")
            for series in data["series"]:
                labels = ",".join(
                    f'{k}="{v}"' for k, v in sorted(series["labels"].items())
                )
                labelled = f"{name}{{{labels}}}" if labels else name
                if data["type"] == "counter":
                    lines.append(f"{labelled} {series['value']:g}")
                else:
                    quantiles = ""
                    samples = sorted(series.get("samples", ()))
                    if samples:
                        def q(fraction: float) -> float:
                            rank = max(0, math.ceil(fraction * len(samples)) - 1)
                            return samples[min(rank, len(samples) - 1)]
                        quantiles = (
                            f" p50={q(0.50):g} p95={q(0.95):g} p99={q(0.99):g}"
                        )
                    lines.append(
                        f"{labelled} count={series['count']} "
                        f"sum={series['sum']:g} min={series['min']:g} "
                        f"max={series['max']:g}" + quantiles
                    )
        return "\n".join(lines)


#: The process-wide default registry (the web layer records here).
METRICS = MetricsRegistry()
