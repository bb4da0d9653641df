"""Coordinator-side aggregation of shipped telemetry: ``StudyTelemetry``.

Ranks and workers piggyback payloads on their heartbeat frames (see
:mod:`repro.net.framing`)::

    {"metrics": <snapshot delta>, "spans": [<tracer records>]}

The coordinator hands each payload to :meth:`StudyTelemetry.ingest`,
which folds the metric delta into a per-sender accumulated snapshot and
routes span records to the study tracer.  :meth:`combined` merges the
coordinator's own registry with every sender's accumulation into one
study-wide snapshot — the object behind ``--metrics-file`` JSONL lines,
the ``/metrics`` endpoints, and ``repro top``.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

from repro.telemetry.registry import MetricsRegistry, delta, merge
from repro.telemetry.tracer import Tracer

__all__ = ["StudyTelemetry", "series_value", "series_table"]


def series_value(snapshot: dict, metric: str, **labels) -> float:
    """One counter/gauge series value out of a snapshot (0.0 if absent)."""
    entry = snapshot.get(metric)
    if not entry:
        return 0.0
    want = {str(k): str(v) for k, v in labels.items()}
    for series in entry.get("series", []):
        if {str(k): str(v) for k, v in series.get("labels", {}).items()} == want:
            return float(series.get("value", 0.0))
    return 0.0


def series_table(snapshot: dict, metric: str, label: str) -> Dict[str, dict]:
    """Index a metric's series by one label's value.

    Counters/gauges map to ``{"value": v}``; histograms to
    ``{"sum": s, "count": n, "mean": s/n}``.  Series missing the label
    are skipped.
    """
    entry = snapshot.get(metric)
    if not entry:
        return {}
    out: Dict[str, dict] = {}
    for series in entry.get("series", []):
        labels = series.get("labels", {})
        if label not in labels:
            continue
        if "counts" in series:
            count = int(series.get("count", 0))
            total = float(series.get("sum", 0.0))
            out[str(labels[label])] = {
                "sum": total,
                "count": count,
                "mean": total / count if count else 0.0,
            }
        else:
            out[str(labels[label])] = {"value": float(series.get("value", 0.0))}
    return out


class StudyTelemetry:
    """Live study-wide telemetry view assembled from heartbeat payloads.

    Parameters
    ----------
    registry:
        The coordinator's local registry (its own queue/scheduler
        counters).  Merged into :meth:`combined` alongside remote data.
    tracer:
        Optional study tracer; shipped span records are folded into it.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
    ):
        if registry is None:
            from repro.telemetry import REGISTRY
            registry = REGISTRY
        self.registry = registry
        self.tracer = tracer
        self.started = time.time()
        self._lock = threading.Lock()
        self._remote: Dict[str, dict] = {}
        self._payloads = 0

    # -- ingest --------------------------------------------------------- #
    def ingest(self, sender: str, payload: Optional[dict]) -> None:
        """Fold one heartbeat payload from ``sender`` into the view."""
        if not payload:
            return
        metrics = payload.get("metrics")
        with self._lock:
            self._payloads += 1
            if metrics:
                self._remote[sender] = merge(self._remote.get(sender), metrics)
        spans = payload.get("spans")
        if spans and self.tracer is not None:
            self.tracer.extend(spans)

    @property
    def payloads_ingested(self) -> int:
        with self._lock:
            return self._payloads

    def senders(self):
        with self._lock:
            return sorted(self._remote)

    # -- export --------------------------------------------------------- #
    def combined(self) -> dict:
        """Study-wide snapshot: local registry + every sender, merged."""
        out = merge(None, self.registry.snapshot())
        with self._lock:
            remotes = list(self._remote.values())
        for remote in remotes:
            merge(out, remote)
        return out

    def view(self, study: Optional[dict] = None) -> dict:
        """One dashboard frame: study state + derived tables + snapshot.

        ``study`` carries coordinator facts the registry does not hold
        (progress counts, per-worker EWMA from the scheduling policy).
        The frame is JSON-ready — it is exactly one ``--metrics-file``
        JSONL line and the ``/metrics.json`` response body.
        """
        snapshot = self.combined()
        now = time.time()
        workers: Dict[str, dict] = {}
        for name, stats in series_table(
            snapshot, "repro_worker_group_seconds", "worker"
        ).items():
            workers[name] = {
                "groups": stats["count"],
                "mean_group_seconds": stats["mean"],
            }
        for metric, field in (
            ("repro_worker_bytes_sent", "bytes_sent"),
            ("repro_worker_blocked_seconds", "blocked_seconds"),
            ("repro_worker_send_blocks", "send_blocks"),
        ):
            for name, stats in series_table(snapshot, metric, "worker").items():
                workers.setdefault(name, {})[field] = stats["value"]
        ranks: Dict[str, dict] = {}
        for name, stats in series_table(
            snapshot, "repro_rank_fold_seconds", "rank"
        ).items():
            ranks[name] = {"folds": stats["count"], "fold_seconds": stats["sum"]}
        for metric, field in (
            ("repro_rank_bytes_received", "bytes_received"),
            ("repro_rank_messages_received", "messages_received"),
            ("repro_rank_max_ci_width", "max_ci_width"),
        ):
            for name, stats in series_table(snapshot, metric, "rank").items():
                ranks.setdefault(name, {})[field] = stats["value"]
        widths = [
            r["max_ci_width"] for r in ranks.values()
            if "max_ci_width" in r and r["max_ci_width"] == r["max_ci_width"]
        ]
        frame = {
            "time": now,
            "elapsed": now - self.started,
            "study": dict(study or {}),
            "convergence": max(widths) if widths else None,
            "workers": workers,
            "ranks": ranks,
            "metrics": snapshot,
        }
        return frame


# re-exported for senders: build "what changed since my last heartbeat"
__all__.append("delta")
