"""``repro top`` — live terminal dashboard for a running study.

Reads dashboard frames (the :meth:`StudyTelemetry.view` shape) from
either surface the launch process exposes:

* ``--metrics-port`` HTTP endpoint → polls ``/metrics.json``;
* ``--metrics-file`` JSONL export → tails the last complete line.

Rendering is a pure function of one frame (unit-testable, and ``--once``
prints a single frame for CI); the live loop just refreshes it.
"""

from __future__ import annotations

import json
import sys
import time
import urllib.error
import urllib.request
from typing import Optional

__all__ = ["fetch_frame", "render_frame", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def _normalize_source(source: str) -> str:
    """Map ``host:port`` / URL / file path onto a fetchable source."""
    if source.startswith(("http://", "https://")):
        return source
    host, sep, port = source.rpartition(":")
    if sep and port.isdigit() and "/" not in source:
        return f"http://{host or '127.0.0.1'}:{port}"
    return source  # a metrics JSONL file path


def fetch_frame(source: str, timeout: float = 2.0) -> Optional[dict]:
    """One dashboard frame from a URL or JSONL file; None when empty."""
    source = _normalize_source(source)
    if source.startswith(("http://", "https://")):
        url = source.rstrip("/")
        if not url.endswith("/metrics.json"):
            url += "/metrics.json"
        with urllib.request.urlopen(url, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    last = None
    with open(source, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                last = line
    return json.loads(last) if last else None


def _mb(nbytes: float) -> str:
    return f"{nbytes / 1e6:8.1f}"


def _pct(part: float, whole: float) -> str:
    return f"{100.0 * part / whole:5.1f}" if whole > 0 else "    -"


def render_frame(frame: Optional[dict]) -> str:
    """One frame → the dashboard text block."""
    if not frame:
        return "repro top — no telemetry frames yet (study still starting?)"
    study = frame.get("study", {})
    elapsed = float(frame.get("elapsed", 0.0))
    lines = []
    fingerprint = study.get("fingerprint", "")
    title = "repro top"
    if fingerprint:
        title += f" — study {fingerprint[:12]}"
    lines.append(f"{title}   elapsed {elapsed:7.1f}s")
    done = study.get("groups_done")
    total = study.get("ngroups")
    progress = []
    if done is not None and total:
        bar_w = 30
        filled = int(bar_w * min(done / total, 1.0))
        progress.append(
            f"groups {done}/{total} [{'#' * filled}{'.' * (bar_w - filled)}]"
        )
    for key, label in (
        ("queue_depth", "queue"),
        ("in_flight", "in-flight"),
        ("workers_active", "workers"),
        ("speculated", "speculated"),
        ("resubmitted", "resubmitted"),
        ("rank_respawns", "respawns"),
    ):
        value = study.get(key)
        if value:
            progress.append(f"{label} {value}")
        elif value == 0 and key in ("queue_depth", "in_flight"):
            progress.append(f"{label} 0")
    if study.get("leases"):
        progress.append(
            f"leases {study['leases']} ({study['groups_per_lease']:.1f} groups each)"
        )
    convergence = frame.get("convergence")
    if convergence is not None:
        progress.append(f"max CI width {convergence:.4g}")
    if progress:
        lines.append("   ".join(progress))
    lines.append("")

    workers = frame.get("workers", {})
    if workers:
        ewma = study.get("ewma", {})
        lines.append(
            f"{'WORKER':<16}{'GROUPS':>7}{'EWMA s':>9}{'MEAN s':>9}"
            f"{'SENT MB':>9}{'SUSP s':>8}{'SUSP %':>7}"
        )
        for name in sorted(workers):
            row = workers[name]
            mean = row.get("mean_group_seconds", 0.0)
            blocked = row.get("blocked_seconds", 0.0)
            ew = ewma.get(name)
            lines.append(
                f"{name:<16}{row.get('groups', 0):>7}"
                f"{(f'{ew:9.3f}' if ew is not None else '        -')}"
                f"{mean:9.3f}"
                f"{_mb(row.get('bytes_sent', 0.0)):>9}"
                f"{blocked:8.2f}{_pct(blocked, elapsed):>7}"
            )
        lines.append("")

    ranks = frame.get("ranks", {})
    if ranks:
        # (no suspension columns: a rank has no buffer of its own to be
        # suspended on — the workers' SUSP columns are where it shows)
        lines.append(
            f"{'RANK':<8}{'FOLDS':>7}{'FOLD s':>9}{'RECV MB':>9}{'MSGS':>9}"
        )
        for name in sorted(ranks, key=lambda r: (len(r), r)):
            row = ranks[name]
            lines.append(
                f"{name:<8}{row.get('folds', 0):>7}"
                f"{row.get('fold_seconds', 0.0):9.2f}"
                f"{_mb(row.get('bytes_received', 0.0)):>9}"
                f"{int(row.get('messages_received', 0)):>9}"
            )
    return "\n".join(lines)


def run_top(
    source: str,
    interval: float = 1.0,
    once: bool = False,
    out=None,
    max_errors: int = 10,
) -> int:
    """Dashboard loop; returns a process exit code.

    ``once`` renders a single frame and exits (CI-friendly).  The live
    loop tolerates transient fetch errors (launch still starting, file
    mid-write) up to ``max_errors`` consecutive failures.
    """
    out = sys.stdout if out is None else out
    errors = 0
    while True:
        try:
            frame = fetch_frame(source)
            errors = 0
        except (OSError, urllib.error.URLError, json.JSONDecodeError) as exc:
            errors += 1
            if once or errors >= max_errors:
                print(f"repro top: cannot read {source}: {exc}", file=out)
                return 1
            frame = None
        text = render_frame(frame)
        if once:
            print(text, file=out)
            return 0
        print(f"{_CLEAR}{text}", file=out, flush=True)
        try:
            time.sleep(max(interval, 0.1))
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            return 0
