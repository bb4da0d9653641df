"""Telemetry export formats: the ``--metrics-file`` line and the
``--metrics-port`` response, both rendered from one
:meth:`StudyTelemetry.view` frame.  No socket, timer or thread lives
here: the coordinator's loop calls these helpers in its turn.

* :func:`append_frame` appends one JSON object per line, so a finished
  run leaves a replayable timeline and ``repro top FILE`` can tail a
  live one.
* :func:`http_response` answers one request head: ``/metrics`` and
  ``/`` (Prometheus text), ``/metrics.json`` (the dashboard frame),
  ``/healthz``, and 404 otherwise.
"""

from __future__ import annotations

import json
from http import HTTPStatus
from typing import Callable, Optional

from repro.telemetry.registry import render_prometheus

__all__ = ["MAX_REQUEST_HEAD", "append_frame", "http_response"]

#: longest request head (request line + headers) a metrics client may
#: send; a longer one is answered 400
MAX_REQUEST_HEAD = 8192


def append_frame(path, frame_fn: Callable[[], dict]) -> None:
    """Append ``frame_fn()`` to ``path`` as one JSON line.  A frame that
    fails to render or to land is skipped: a telemetry fault never takes
    the study down."""
    try:
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(frame_fn(), default=_json_default) + "\n")
    except Exception:
        pass


def _json_default(obj):
    try:
        return float(obj)  # numpy scalars
    except (TypeError, ValueError):
        return repr(obj)


def http_response(head: bytes, frame_fn: Callable[[], dict]) -> Optional[bytes]:
    """The whole response to a request ``head``, or None while the head
    is incomplete and within :data:`MAX_REQUEST_HEAD`."""
    end = head.find(b"\r\n\r\n")
    if end < 0:
        if len(head) > MAX_REQUEST_HEAD:
            return _response(400, b"request head too long\n")
        return None
    request = head[:end].split(b"\r\n", 1)[0].split()
    if len(request) != 3:
        return _response(400, b"bad request line\n")
    if request[0] != b"GET":
        return _response(501, b"unsupported method\n")
    path = request[1].decode("latin-1").split("?", 1)[0]
    try:
        if path in ("/metrics", "/"):
            body = render_prometheus(frame_fn().get("metrics", {})).encode()
            ctype = "text/plain; version=0.0.4; charset=utf-8"
        elif path == "/metrics.json":
            body = json.dumps(frame_fn(), default=_json_default).encode()
            ctype = "application/json"
        elif path == "/healthz":
            body, ctype = b"ok\n", "text/plain"
        else:
            return _response(404, b"unknown path (try /metrics)\n")
    except Exception as exc:
        return _response(500, f"telemetry error: {exc}\n".encode())
    return _response(200, body, ctype)


def _response(status: int, body: bytes, ctype: str = "text/plain") -> bytes:
    return (
        f"HTTP/1.0 {status} {HTTPStatus(status).phrase}\r\n"
        f"Server: repro-metrics/1\r\nContent-Type: {ctype}\r\n"
        f"Content-Length: {len(body)}\r\nConnection: close\r\n\r\n"
    ).encode("latin-1") + body
