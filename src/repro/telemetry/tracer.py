"""Span/event tracer exporting Chrome trace-event JSON (Perfetto-loadable).

The coordinator owns one :class:`Tracer` per study run.  It records its
own view of the group lifecycle (drawn → assigned → done) and folds in:

* compact span/instant records shipped by ranks and workers inside the
  heartbeat metric payloads (simulate / fold / checkpoint phases), and
* :class:`~repro.core.launcher.LauncherEvent` timelines from the rank
  supervisor (respawns) and pool supervisor (elastic resize).

Timestamps are wall-clock ``time.time()`` seconds everywhere — the only
clock every process shares — converted to microseconds relative to the
trace epoch at export.  ``repro launch --trace FILE`` writes the JSON;
open it at https://ui.perfetto.dev or chrome://tracing.

Wire shape of a shipped record (plain dicts; they ride inside the
pickled heartbeat payload and must stay JSON-friendly)::

    {"ph": "X", "name": "simulate group 3", "cat": "worker",
     "t0": <wall s>, "t1": <wall s>, "tid": "worker-0", "args": {...}}
    {"ph": "i", "name": "checkpoint", "cat": "rank",
     "t": <wall s>, "tid": "server-rank-1"}
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Dict, List, Optional

__all__ = ["Tracer", "span_record", "instant_record"]


def span_record(
    name: str, cat: str, t0: float, t1: float,
    tid: str = "", args: Optional[dict] = None,
) -> dict:
    """Compact complete-span record (wall-clock seconds), shippable."""
    rec = {"ph": "X", "name": name, "cat": cat, "t0": t0, "t1": t1, "tid": tid}
    if args:
        rec["args"] = args
    return rec


def instant_record(
    name: str, cat: str, t: Optional[float] = None,
    tid: str = "", args: Optional[dict] = None,
) -> dict:
    """Compact instant-event record (wall-clock seconds), shippable."""
    rec = {
        "ph": "i", "name": name, "cat": cat,
        "t": time.time() if t is None else t, "tid": tid,
    }
    if args:
        rec["args"] = args
    return rec


class Tracer:
    """Collects span/instant records and renders Chrome trace JSON.

    Owned by one thread: in a launch, the coordinator's loop records and
    the runtime renders once the loop has returned.  When ``enabled`` is
    False every recording call is a cheap no-op (mirrors the registry's
    zero-overhead-when-disabled contract).
    """

    PID = 1  # single logical process: lanes are differentiated by tid

    def __init__(self, enabled: bool = True):
        self.enabled = bool(enabled)
        self._records: List[dict] = []
        self._epoch: Optional[float] = None

    # -- recording ------------------------------------------------------ #
    def add(self, record: dict) -> None:
        """Append one compact record (see module docstring for shapes)."""
        if not self.enabled:
            return
        self._records.append(record)

    def extend(self, records) -> None:
        """Fold in records shipped by a remote process."""
        if not self.enabled or not records:
            return
        self._records.extend(records)

    def complete(
        self, name: str, cat: str, t0: float, t1: float,
        tid: str = "", args: Optional[dict] = None,
    ) -> None:
        self.add(span_record(name, cat, t0, t1, tid=tid, args=args))

    def instant(
        self, name: str, cat: str, t: Optional[float] = None,
        tid: str = "", args: Optional[dict] = None,
    ) -> None:
        self.add(instant_record(name, cat, t=t, tid=tid, args=args))

    @contextmanager
    def span(self, name: str, cat: str = "", tid: str = "",
             args: Optional[dict] = None):
        """Record the wrapped block as one complete span."""
        if not self.enabled:
            yield
            return
        t0 = time.time()
        try:
            yield
        finally:
            self.complete(name, cat, t0, time.time(), tid=tid, args=args)

    # -- export --------------------------------------------------------- #
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON object (``{"traceEvents": [...]}``).

        Events are sorted by timestamp; each distinct ``tid`` string
        gets a stable integer lane plus a ``thread_name`` metadata
        record so Perfetto shows readable lane names.
        """
        if self._records:
            self._epoch = min(
                r["t0"] if r["ph"] == "X" else r["t"] for r in self._records
            )
        epoch = self._epoch if self._epoch is not None else 0.0

        tids: Dict[str, int] = {}

        def lane(tid: str) -> int:
            if tid not in tids:
                tids[tid] = len(tids) + 1
            return tids[tid]

        events: List[dict] = []
        for rec in self._records:
            base = {
                "name": rec.get("name", ""),
                "cat": rec.get("cat", "") or "repro",
                "pid": self.PID,
                "tid": lane(rec.get("tid", "") or "coordinator"),
            }
            if rec.get("args"):
                base["args"] = rec["args"]
            if rec["ph"] == "X":
                base["ph"] = "X"
                base["ts"] = round((rec["t0"] - epoch) * 1e6, 3)
                base["dur"] = max(round((rec["t1"] - rec["t0"]) * 1e6, 3), 0.0)
            else:
                base["ph"] = "i"
                base["ts"] = round((rec["t"] - epoch) * 1e6, 3)
                base["s"] = "t"  # thread-scoped instant
            events.append(base)
        events.sort(key=lambda e: e["ts"])
        meta = [
            {
                "ph": "M", "name": "thread_name", "pid": self.PID, "tid": num,
                "args": {"name": tid_name},
            }
            for tid_name, num in sorted(tids.items(), key=lambda kv: kv[1])
        ]
        meta.insert(0, {
            "ph": "M", "name": "process_name", "pid": self.PID,
            "args": {"name": "repro study"},
        })
        return {"traceEvents": meta + events, "displayTimeUnit": "ms"}

    def write(self, path) -> None:
        """Write the Chrome trace JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.chrome_trace(), fh)
            fh.write("\n")
