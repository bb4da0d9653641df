"""Thread-safe metrics registry: counters, gauges, histograms with labels.

The registry is the accounting layer of the study telemetry stack
(ISSUE 8): every process — coordinator, server rank, group worker —
instruments its hot paths against one process-global registry, and the
distributed runtime ships compact *snapshot deltas* over the existing
heartbeat frames so the coordinator can aggregate a live study view
without new connections.

Design constraints, in order:

1. **Near-zero overhead when disabled.**  Every mutator checks a single
   ``enabled`` flag before touching any lock or dict; the disabled path
   is one attribute load and one branch.  Hot loops that want to avoid
   even argument construction can guard on ``registry.enabled``
   themselves.
2. **Mergeable.**  Counter and histogram series are sums, so snapshots
   merge commutatively and deltas are exact: ``merge(a, delta(a, b)) ==
   b``.  Gauges are last-write-wins per series; distinct senders keep
   distinct label sets (``worker="w0"`` …) so nothing collides.
3. **JSON-friendly.**  Snapshots are plain dict/list/float structures
   that survive ``json.dumps`` unchanged — the same object feeds the
   heartbeat payload (pickled), the ``--metrics-file`` JSONL export, and
   the ``/metrics.json`` endpoint.

Label values are stringified; a series key is the sorted tuple of
``(label, value)`` pairs.  ``metric.labels(**kv)`` returns a bound child
with the key pre-resolved for per-call-site speed.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_BUCKETS",
    "delta",
    "merge",
    "render_prometheus",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-flavoured: the bulk of
#: observed series are fold/checkpoint/group durations).  +inf is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _label_key(labels: Dict[str, str]) -> LabelKey:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class _Metric:
    """Common shape: named, typed, lock-guarded series map."""

    kind = "untyped"

    def __init__(self, registry: "MetricsRegistry", name: str, help: str = ""):
        self._registry = registry
        self.name = name
        self.help = help
        # this lock and MetricsRegistry's are the only telemetry locks:
        # fold-pool threads observe repro_fold_shard_seconds concurrently
        # (kernels/parallel.py); everything else runs on one thread
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, object] = {}

    def _describe(self) -> dict:
        return {"type": self.kind, "help": self.help}


class Counter(_Metric):
    """Monotonically non-decreasing sum (events, bytes, retries)."""

    kind = "counter"

    def labels(self, **labels) -> "_BoundCounter":
        return _BoundCounter(self, _label_key(labels))

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        self._inc_key(_label_key(labels), amount)

    def _inc_key(self, key: LabelKey, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def snapshot_series(self) -> list:
        with self._lock:
            return [
                {"labels": dict(key), "value": float(v)}
                for key, v in self._series.items()
            ]


class Gauge(_Metric):
    """Point-in-time value (queue depth, staleness, in-flight)."""

    kind = "gauge"

    def labels(self, **labels) -> "_BoundGauge":
        return _BoundGauge(self, _label_key(labels))

    def set(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        self._set_key(_label_key(labels), value)

    def inc(self, amount: float = 1.0, **labels) -> None:
        if not self._registry.enabled:
            return
        key = _label_key(labels)
        with self._lock:
            self._series[key] = self._series.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def _set_key(self, key: LabelKey, value: float) -> None:
        with self._lock:
            self._series[key] = float(value)

    def value(self, **labels) -> float:
        with self._lock:
            return float(self._series.get(_label_key(labels), 0.0))

    def snapshot_series(self) -> list:
        with self._lock:
            return [
                {"labels": dict(key), "value": float(v)}
                for key, v in self._series.items()
            ]


class Histogram(_Metric):
    """Bucketed distribution (durations); exact sum/count ride along."""

    kind = "histogram"

    def __init__(
        self,
        registry: "MetricsRegistry",
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ):
        super().__init__(registry, name, help)
        self.bounds: Tuple[float, ...] = tuple(sorted(float(b) for b in buckets))
        if not self.bounds:
            raise ValueError("histogram needs at least one bucket bound")

    def labels(self, **labels) -> "_BoundHistogram":
        return _BoundHistogram(self, _label_key(labels))

    def observe(self, value: float, **labels) -> None:
        if not self._registry.enabled:
            return
        self._observe_key(_label_key(labels), value)

    def _observe_key(self, key: LabelKey, value: float) -> None:
        value = float(value)
        with self._lock:
            state = self._series.get(key)
            if state is None:
                state = [[0] * (len(self.bounds) + 1), 0.0, 0]
                self._series[key] = state
            counts, _, _ = state
            idx = len(self.bounds)  # +inf bucket
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    idx = i
                    break
            counts[idx] += 1
            state[1] += value
            state[2] += 1

    def stats(self, **labels) -> Tuple[float, int]:
        """(sum, count) for one series — cheap mean lookups."""
        with self._lock:
            state = self._series.get(_label_key(labels))
            if state is None:
                return 0.0, 0
            return float(state[1]), int(state[2])

    def snapshot_series(self) -> list:
        with self._lock:
            return [
                {
                    "labels": dict(key),
                    "counts": list(state[0]),
                    "sum": float(state[1]),
                    "count": int(state[2]),
                }
                for key, state in self._series.items()
            ]


class _BoundCounter:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Counter, key: LabelKey):
        self._metric = metric
        self._key = key

    def inc(self, amount: float = 1.0) -> None:
        if not self._metric._registry.enabled:
            return
        self._metric._inc_key(self._key, amount)


class _BoundGauge:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Gauge, key: LabelKey):
        self._metric = metric
        self._key = key

    def set(self, value: float) -> None:
        if not self._metric._registry.enabled:
            return
        self._metric._set_key(self._key, value)


class _BoundHistogram:
    __slots__ = ("_metric", "_key")

    def __init__(self, metric: Histogram, key: LabelKey):
        self._metric = metric
        self._key = key

    def observe(self, value: float) -> None:
        if not self._metric._registry.enabled:
            return
        self._metric._observe_key(self._key, value)


class MetricsRegistry:
    """Named metric collection with get-or-create semantics.

    ``enabled`` gates every mutation; reading (snapshots) always works so
    a just-disabled registry can still be exported.  Creating metric
    objects is allowed while disabled — instrumented modules register
    their metrics at import/init time unconditionally and pay only the
    flag check per call afterwards.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = bool(enabled)
        self._lock = threading.Lock()
        self._metrics: Dict[str, _Metric] = {}

    # -- lifecycle ------------------------------------------------------ #
    def enable(self) -> "MetricsRegistry":
        self.enabled = True
        return self

    def disable(self) -> "MetricsRegistry":
        self.enabled = False
        return self

    def reset(self) -> None:
        """Drop all recorded series (metric objects stay registered)."""
        with self._lock:
            metrics = list(self._metrics.values())
        for metric in metrics:
            with metric._lock:
                metric._series.clear()

    # -- get-or-create -------------------------------------------------- #
    def _get(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(self, name, help=help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}"
                )
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(
        self, name: str, help: str = "",
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get(Histogram, name, help, buckets=buckets)

    # -- export --------------------------------------------------------- #
    def snapshot(self) -> dict:
        """JSON-friendly point-in-time copy of every non-empty metric."""
        with self._lock:
            metrics = list(self._metrics.items())
        out: dict = {}
        for name, metric in sorted(metrics):
            series = metric.snapshot_series()
            if not series:
                continue
            entry = metric._describe()
            entry["series"] = series
            if isinstance(metric, Histogram):
                entry["bounds"] = list(metric.bounds)
            out[name] = entry
        return out


# --------------------------------------------------------------------- #
# snapshot algebra (module functions: snapshots are plain dicts so they
# survive pickling over heartbeats and JSONL round-trips unchanged)
# --------------------------------------------------------------------- #
def _series_map(entry: dict) -> Dict[LabelKey, dict]:
    return {_label_key(s.get("labels", {})): s for s in entry.get("series", [])}


def delta(prev: Optional[dict], cur: dict) -> dict:
    """Per-series difference ``cur - prev`` for counters/histograms;
    gauges pass through at their current value.

    ``prev=None`` (first ship) yields ``cur`` itself.  Series that did
    not change are dropped, so an idle process ships empty deltas.
    Satisfies ``merge(prev, delta(prev, cur)) == cur`` for summable
    types (the hypothesis suite asserts this).
    """
    if prev is None:
        return {k: v for k, v in cur.items() if v.get("series")}
    out: dict = {}
    for name, entry in cur.items():
        kind = entry.get("type")
        prev_entry = prev.get(name)
        if kind == "gauge":
            # gauges are last-write-wins: always ship the current value
            if entry.get("series"):
                out[name] = entry
            continue
        prev_series = _series_map(prev_entry) if prev_entry else {}
        changed = []
        for series in entry.get("series", []):
            key = _label_key(series.get("labels", {}))
            old = prev_series.get(key)
            if kind == "counter":
                # a series new in ``cur`` ships even at value 0.0 — its
                # label set is state the receiver must reproduce
                base = old["value"] if old else 0.0
                diff = series["value"] - base
                if diff != 0.0 or old is None:
                    changed.append({"labels": series["labels"], "value": diff})
            elif kind == "histogram":
                if old is None:
                    changed.append(series)
                    continue
                dcount = series["count"] - old["count"]
                if dcount == 0:
                    continue
                changed.append(
                    {
                        "labels": series["labels"],
                        "counts": [
                            c - p for c, p in zip(series["counts"], old["counts"])
                        ],
                        "sum": series["sum"] - old["sum"],
                        "count": dcount,
                    }
                )
            else:  # unknown kind: ship verbatim (forward compatibility)
                changed.append(series)
        if changed:
            out[name] = {**{k: v for k, v in entry.items() if k != "series"},
                         "series": changed}
    return out


def merge(into: Optional[dict], incoming: dict) -> dict:
    """Fold ``incoming`` (a delta or a full snapshot) into ``into``.

    Counters and histogram series add (commutative, associative);
    gauges take the incoming value.  Returns the merged dict (``into``
    is updated in place when given).
    """
    if into is None:
        into = {}
    for name, entry in incoming.items():
        kind = entry.get("type")
        target = into.get(name)
        if target is None:
            into[name] = {
                **{k: v for k, v in entry.items() if k != "series"},
                "series": [
                    {**s, "labels": dict(s.get("labels", {}))}
                    for s in entry.get("series", [])
                ],
            }
            continue
        tmap = _series_map(target)
        for series in entry.get("series", []):
            key = _label_key(series.get("labels", {}))
            old = tmap.get(key)
            if old is None:
                copied = {**series, "labels": dict(series.get("labels", {}))}
                target["series"].append(copied)
                tmap[key] = copied
            elif kind == "counter":
                old["value"] = old["value"] + series["value"]
            elif kind == "gauge":
                old["value"] = series["value"]
            elif kind == "histogram":
                old["counts"] = [
                    a + b for a, b in zip(old["counts"], series["counts"])
                ]
                old["sum"] = old["sum"] + series["sum"]
                old["count"] = old["count"] + series["count"]
            else:
                old.update(series)
    return into


# --------------------------------------------------------------------- #
# Prometheus text exposition (stdlib-only; the --metrics-port endpoint
# and any future REST layer serve this format)
# --------------------------------------------------------------------- #
def _escape_label(value: str) -> str:
    return value.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _label_str(labels: dict, extra: Optional[dict] = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    f = float(value)
    return str(int(f)) if f == int(f) else repr(f)


def render_prometheus(snapshot: dict) -> str:
    """Render a snapshot in the Prometheus text exposition format."""
    lines: List[str] = []
    for name in sorted(snapshot):
        entry = snapshot[name]
        kind = entry.get("type", "untyped")
        if entry.get("help"):
            lines.append(f"# HELP {name} {entry['help']}")
        lines.append(f"# TYPE {name} {kind}")
        for series in entry.get("series", []):
            labels = series.get("labels", {})
            if kind == "histogram":
                bounds = list(entry.get("bounds", [])) + [float("inf")]
                cumulative = 0
                for bound, count in zip(bounds, series["counts"]):
                    cumulative += count
                    lines.append(
                        f"{name}_bucket{_label_str(labels, {'le': _fmt(bound)})}"
                        f" {cumulative}"
                    )
                lines.append(f"{name}_sum{_label_str(labels)} {series['sum']!r}")
                lines.append(f"{name}_count{_label_str(labels)} {series['count']}")
            else:
                lines.append(
                    f"{name}{_label_str(labels)} {_fmt(series['value'])}"
                )
    return "\n".join(lines) + "\n"
