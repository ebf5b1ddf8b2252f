"""Zero-dependency counters, gauges and histograms (DESIGN.md §11).

A :class:`MetricsRegistry` is a plain in-process accumulator: counters
only go up, gauges hold the last written value, histograms bucket
observations against fixed bounds chosen at first observation.  Metrics
never feed back into a simulation — they are snapshotted into the run
ledger (:meth:`MetricsRegistry.to_dict`) and rendered as a
Prometheus-style text exposition (:func:`render_prometheus`) so any
scrape-shaped tooling can consume them without this repo growing a
dependency.

Labels are low-cardinality key=value pairs (``inc("kernel.fallback",
reason="arvi")``); each distinct label set is its own series, exactly
like the Prometheus data model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Default histogram bucket upper bounds: powers of two cover the
#: integer-shaped metrics this repo histograms (DDT chain lengths)
#: without per-metric tuning.
DEFAULT_BOUNDS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Bucket bounds for durations in seconds.
DURATION_BOUNDS = (0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0,
                   30.0, 60.0, 300.0)

_Key = tuple[str, tuple[tuple[str, str], ...]]


def _key(name: str, labels: dict | None) -> _Key:
    if not labels:
        return (name, ())
    return (name, tuple(sorted((str(k), str(v))
                               for k, v in labels.items())))


@dataclass
class Histogram:
    """Fixed-bound bucketed observations (cumulative, Prometheus-style)."""

    bounds: tuple[float, ...] = DEFAULT_BOUNDS
    counts: list[int] = field(default_factory=list)
    total: float = 0.0
    count: int = 0

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)  # +Inf bucket

    def observe(self, value: float) -> None:
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                break
        else:
            self.counts[-1] += 1
        self.total += value
        self.count += 1

    def to_dict(self) -> dict:
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.count,
        }


class MetricsRegistry:
    """In-process metric accumulator; snapshot-only, never read back."""

    def __init__(self) -> None:
        self._counters: dict[_Key, float] = {}
        self._gauges: dict[_Key, float] = {}
        self._histograms: dict[_Key, Histogram] = {}

    # -- write side ----------------------------------------------------------

    def inc(self, name: str, value: float = 1, **labels) -> None:
        key = _key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def set_gauge(self, name: str, value: float, **labels) -> None:
        self._gauges[_key(name, labels)] = value

    def observe(self, name: str, value: float,
                bounds: tuple[float, ...] | None = None, **labels) -> None:
        key = _key(name, labels)
        histogram = self._histograms.get(key)
        if histogram is None:
            histogram = Histogram(bounds=bounds or DEFAULT_BOUNDS)
            self._histograms[key] = histogram
        histogram.observe(value)

    # -- snapshot side -------------------------------------------------------

    def __len__(self) -> int:
        return (len(self._counters) + len(self._gauges)
                + len(self._histograms))

    def to_dict(self) -> dict:
        """JSON metrics block: the ledger's ``metrics`` event payload."""

        def series(table: dict) -> list[dict]:
            return [
                {"name": name,
                 **({"labels": dict(labels)} if labels else {}),
                 "value": (value.to_dict() if isinstance(value, Histogram)
                           else value)}
                for (name, labels), value in sorted(table.items())
            ]

        return {
            "counters": series(self._counters),
            "gauges": series(self._gauges),
            "histograms": series(self._histograms),
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`to_dict` snapshot into this one.

        Counters and histogram buckets add, gauges last-write-wins —
        how the parent folds its workers' shard metrics into the run
        totals.
        """
        for entry in snapshot.get("counters", ()):
            self.inc(entry["name"], entry["value"],
                     **entry.get("labels", {}))
        for entry in snapshot.get("gauges", ()):
            self.set_gauge(entry["name"], entry["value"],
                           **entry.get("labels", {}))
        for entry in snapshot.get("histograms", ()):
            data = entry["value"]
            key = _key(entry["name"], entry.get("labels"))
            histogram = self._histograms.get(key)
            if histogram is None or list(histogram.bounds) != data["bounds"]:
                histogram = Histogram(bounds=tuple(data["bounds"]))
                self._histograms[key] = histogram
            histogram.counts = [
                mine + theirs for mine, theirs
                in zip(histogram.counts, data["counts"])]
            histogram.total += data["sum"]
            histogram.count += data["count"]


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    return "".join(out)


def _prom_labels(labels: tuple, extra: str = "") -> str:
    parts = [f'{_prom_name(k)}="{v}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def render_prometheus(registry: MetricsRegistry,
                      prefix: str = "repro_") -> str:
    """Prometheus text exposition (format 0.0.4) of one snapshot."""
    lines: list[str] = []
    for (name, labels), value in sorted(registry._counters.items()):
        metric = prefix + _prom_name(name)
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{_prom_labels(labels)} {value}")
    for (name, labels), value in sorted(registry._gauges.items()):
        metric = prefix + _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{_prom_labels(labels)} {value}")
    for (name, labels), histogram in sorted(registry._histograms.items()):
        metric = prefix + _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(histogram.bounds, histogram.counts):
            cumulative += count
            le = 'le="%s"' % bound
            lines.append(f"{metric}_bucket{_prom_labels(labels, le)}"
                         f" {cumulative}")
        inf = 'le="+Inf"'
        lines.append(f"{metric}_bucket{_prom_labels(labels, inf)}"
                     f" {histogram.count}")
        lines.append(f"{metric}_sum{_prom_labels(labels)} {histogram.total}")
        lines.append(f"{metric}_count{_prom_labels(labels)} "
                     f"{histogram.count}")
    return "\n".join(lines) + ("\n" if lines else "")
