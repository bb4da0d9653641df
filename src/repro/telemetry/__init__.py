"""Study telemetry: metrics registry, trace spans, live dashboards.

The observability layer (ISSUE 8) in four pieces:

* :mod:`repro.telemetry.registry` — thread-safe Counter / Gauge /
  Histogram registry with label support, snapshot / delta / merge
  algebra, and Prometheus text rendering.  Near-zero overhead while
  disabled (the default).
* :mod:`repro.telemetry.tracer` — span/event tracer exporting Chrome
  trace-event JSON (``repro launch --trace FILE`` → Perfetto).
* :mod:`repro.telemetry.aggregate` — ``StudyTelemetry``: the
  coordinator-side merge of metric deltas that ranks and workers
  piggyback on heartbeat frames.
* surfaces — :mod:`repro.telemetry.top` (``repro top``),
  :mod:`repro.telemetry.exporters` (``--metrics-file`` JSONL,
  ``--metrics-port`` Prometheus HTTP), :mod:`repro.telemetry.logs`
  (structured ``--log-level`` / ``--log-json`` logging).

One process-global registry (:data:`REGISTRY`) serves every component;
``REPRO_TELEMETRY=1`` in the environment enables it at import, and the
coordinator's registration acks flip it on in serve/work processes at
runtime (the ``telemetry`` key of ``welcome`` / ``registered``).
"""

from __future__ import annotations

import os

from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    delta,
    merge,
    render_prometheus,
)
from repro.telemetry.tracer import Tracer, instant_record, span_record

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Tracer",
    "delta",
    "disable",
    "enable",
    "enabled",
    "instant_record",
    "merge",
    "render_prometheus",
    "span_record",
]

#: The process-global registry every instrumented module records into.
REGISTRY = MetricsRegistry(
    enabled=os.environ.get("REPRO_TELEMETRY", "") not in ("", "0", "false")
)


def enable() -> MetricsRegistry:
    """Turn on metric recording in this process."""
    return REGISTRY.enable()


def disable() -> MetricsRegistry:
    """Turn off metric recording (instrumentation becomes no-ops)."""
    return REGISTRY.disable()


def enabled() -> bool:
    return REGISTRY.enabled
