"""Unit + property tests for the study telemetry stack (ISSUE 8).

Covers the metrics registry (including the hypothesis-checked snapshot
algebra the heartbeat shipping relies on: counter monotonicity and the
``merge(a, delta(a, b)) == b`` invariant, histogram merge
commutativity), the span tracer's Chrome trace-event output, the
single-layout heartbeat framing, the coordinator-side aggregation, the
export surfaces (Prometheus text, JSONL writer, stdlib HTTP endpoint),
structured logging, and the ``repro top`` renderer.
"""

import io
import json
import logging
import socket
import struct
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.framing import recv_frame, send_frame
from repro.telemetry.aggregate import StudyTelemetry, series_table, series_value
from repro.telemetry.exporters import MetricsFileWriter, MetricsHTTPServer
from repro.telemetry.logs import configure_logging, get_logger, ids
from repro.telemetry.registry import (
    MetricsRegistry,
    delta,
    merge,
    render_prometheus,
)
from repro.telemetry.top import _normalize_source, fetch_frame, render_frame
from repro.telemetry.tracer import Tracer, instant_record, span_record
from repro.transport.message import Heartbeat


def roundtrip(msg):
    a, b = socket.socketpair()
    try:
        send_frame(a, msg)
        return recv_frame(b)
    finally:
        a.close()
        b.close()


# --------------------------------------------------------------------- #
class TestRegistry:
    def test_counter_inc_and_labels(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("events", "help text")
        c.inc()
        c.inc(2.5)
        c.inc(worker="w0")
        assert c.value() == 3.5
        assert c.value(worker="w0") == 1.0

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry(enabled=True)
        with pytest.raises(ValueError):
            reg.counter("events").inc(-1.0)

    def test_disabled_registry_mutations_are_noops(self):
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("events")
        g = reg.gauge("depth")
        h = reg.histogram("seconds")
        c.inc()
        c.labels(worker="w0").inc()
        g.set(5.0)
        h.observe(0.1)
        h.labels(rank="0").observe(0.2)
        assert reg.snapshot() == {}

    def test_bound_children_share_series_with_kwargs_path(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("events")
        bound = c.labels(worker="w0")
        bound.inc()
        c.inc(worker="w0")
        assert c.value(worker="w0") == 2.0

    def test_gauge_set_inc_dec(self):
        reg = MetricsRegistry(enabled=True)
        g = reg.gauge("depth")
        g.set(4.0)
        g.inc()
        g.dec(2.0)
        assert g.value() == 3.0

    def test_histogram_buckets_and_stats(self):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            h.observe(v)
        total, count = h.stats()
        assert count == 4 and total == pytest.approx(6.05)
        (series,) = reg.snapshot()["lat"]["series"]
        assert series["counts"] == [1, 2, 1]  # <=0.1, <=1.0, +inf

    def test_get_or_create_rejects_kind_conflict(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_reset_clears_series_but_keeps_metrics(self):
        reg = MetricsRegistry(enabled=True)
        c = reg.counter("events")
        c.inc()
        reg.reset()
        assert reg.snapshot() == {}
        c.inc()
        assert c.value() == 1.0


# --------------------------------------------------------------------- #
# snapshot algebra properties: these invariants are what makes shipping
# per-heartbeat deltas exact, so they get the hypothesis treatment
# --------------------------------------------------------------------- #
amounts = st.lists(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False), max_size=12
)


@settings(max_examples=60, deadline=None)
@given(increments=amounts)
def test_property_counter_monotonic(increments):
    """Counter snapshot values never decrease along an inc sequence."""
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("events")
    last = 0.0
    for amount in increments:
        c.inc(amount)
        value = series_value(reg.snapshot(), "events")
        assert value >= last
        last = value


@settings(max_examples=60, deadline=None)
@given(before=amounts, after=amounts, observations=amounts)
def test_property_merge_delta_roundtrip(before, after, observations):
    """merge(prev, delta(prev, cur)) == cur for counters + histograms."""
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("events")
    h = reg.histogram("lat", buckets=(0.5, 100.0))
    g = reg.gauge("depth")
    for amount in before:
        c.inc(amount)
        g.set(amount)
    prev = reg.snapshot()
    for amount in after:
        c.inc(amount, worker="w0")
        g.set(-amount)
    for value in observations:
        h.observe(value)
    cur = reg.snapshot()
    rebuilt = merge(merge(None, prev), delta(prev, cur))
    assert rebuilt == cur


@settings(max_examples=60, deadline=None)
@given(xs=amounts, ys=amounts)
def test_property_histogram_merge_commutes(xs, ys):
    """merge(a, b) == merge(b, a) for histogram snapshots."""
    def snap(values):
        reg = MetricsRegistry(enabled=True)
        h = reg.histogram("lat", buckets=(0.25, 2.0, 50.0))
        for v in values:
            h.observe(v)
        return reg.snapshot()

    a, b = snap(xs), snap(ys)
    ab = merge(merge(None, a), b)
    ba = merge(merge(None, b), a)
    assert ab == ba


def test_delta_drops_unchanged_series_and_passes_gauges():
    reg = MetricsRegistry(enabled=True)
    c = reg.counter("events")
    g = reg.gauge("depth")
    c.inc(3.0)
    g.set(7.0)
    prev = reg.snapshot()
    changes = delta(prev, reg.snapshot())
    assert "events" not in changes  # idle counter ships nothing
    assert series_value(changes, "depth") == 7.0  # gauges always current
    c.inc(2.0, worker="w1")
    changes = delta(prev, reg.snapshot())
    assert series_value(changes, "events", worker="w1") == 2.0


# --------------------------------------------------------------------- #
class TestPrometheusRender:
    def test_text_exposition(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("repro_groups_done", "settled groups").inc(5)
        reg.gauge("repro_queue_depth").set(2.0)
        h = reg.histogram("repro_fold_seconds", buckets=(0.1, 1.0))
        h.observe(0.05, rank="0")
        h.observe(0.5, rank="0")
        text = render_prometheus(reg.snapshot())
        assert "# HELP repro_groups_done settled groups" in text
        assert "# TYPE repro_groups_done counter" in text
        assert "repro_groups_done 5" in text
        assert "repro_queue_depth 2" in text
        # histogram buckets are cumulative and end at +Inf
        assert 'repro_fold_seconds_bucket{le="0.1",rank="0"} 1' in text
        assert 'repro_fold_seconds_bucket{le="1",rank="0"} 2' in text
        assert 'repro_fold_seconds_bucket{le="+Inf",rank="0"} 2' in text
        assert 'repro_fold_seconds_count{rank="0"} 2' in text

    def test_label_escaping(self):
        reg = MetricsRegistry(enabled=True)
        reg.counter("c").inc(1, peer='we"ird\\name')
        text = render_prometheus(reg.snapshot())
        assert r'peer="we\"ird\\name"' in text


# --------------------------------------------------------------------- #
class TestTracer:
    def test_chrome_trace_shape(self, tmp_path):
        tracer = Tracer()
        with tracer.span("assemble", "coordinator", tid="coordinator"):
            pass
        tracer.complete("group 3", "assigned", 100.0, 100.5, tid="worker-0",
                        args={"group": 3})
        tracer.instant("rank_respawned", "fault", t=100.2, tid="coordinator")
        trace = tracer.chrome_trace()
        json.loads(json.dumps(trace))  # valid Chrome trace JSON
        events = trace["traceEvents"]
        phases = {e["ph"] for e in events}
        assert {"X", "i", "M"} <= phases
        complete = [e for e in events if e["ph"] == "X"]
        for e in complete:
            assert e["dur"] >= 0 and isinstance(e["tid"], int)
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert {"coordinator", "worker-0"} <= names
        # timestamps are relative microseconds, ordered within a lane
        g = next(e for e in complete if e["name"] == "group 3")
        assert g["dur"] == pytest.approx(0.5e6)
        tracer.write(tmp_path / "trace.json")
        loaded = json.loads((tmp_path / "trace.json").read_text())
        assert len(loaded["traceEvents"]) == len(events)

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("x", "y"):
            pass
        tracer.complete("a", "b", 0.0, 1.0)
        tracer.extend([span_record("c", "d", 0.0, 1.0)])
        events = tracer.chrome_trace()["traceEvents"]
        assert [e for e in events if e["ph"] != "M"] == []

    def test_record_builders_ship_plain_dicts(self):
        span = span_record("simulate group 2", "worker", 10.0, 11.5,
                           tid="w0", args={"group": 2})
        inst = instant_record("checkpoint", "rank", t=10.5, tid="r0")
        assert span["ph"] == "X" and span["t1"] - span["t0"] == 1.5
        assert inst["ph"] == "i"
        json.dumps([span, inst])


# --------------------------------------------------------------------- #
class TestHeartbeatFraming:
    """One heartbeat layout: tag ``h``, time, sender, and a metrics
    payload that is empty — and never pickled — for a liveness-only beat."""

    def test_liveness_beat_roundtrips_without_pickle(self, monkeypatch):
        import pickle

        from repro.net.framing import encode_frame

        def no_pickle(*args, **kwargs):
            raise AssertionError("a metrics-free beat must not touch pickle")

        monkeypatch.setattr(pickle, "dumps", no_pickle)
        monkeypatch.setattr(pickle, "loads", no_pickle)
        beat = Heartbeat(sender="server-rank-3", time=12.5)
        (buf,) = encode_frame(beat)
        body = struct.pack("<dH", 12.5, 13) + b"server-rank-3"
        assert bytes(buf) == struct.pack("<I", 1 + len(body)) + b"h" + body
        assert roundtrip(beat) == beat

    def test_metrics_heartbeat_uses_v2_tag_and_roundtrips(self):
        # the one tag is the byte the metrics-carrying layout always had
        from repro.net.framing import encode_frame

        payload = {"metrics": {"repro_x": {"type": "counter", "series": [
            {"labels": {}, "value": 2.0}]}},
            "spans": [span_record("g", "w", 1.0, 2.0, tid="w0")]}
        beat = Heartbeat(sender="worker-1", time=99.25, metrics=payload)
        (buf,) = encode_frame(beat)
        assert bytes(buf)[4:5] == b"h"
        out = roundtrip(beat)
        assert out.sender == "worker-1"
        assert out.time == 99.25
        assert out.metrics == payload

    def test_retired_tag_is_a_protocol_error(self):
        from repro.net.framing import ProtocolError

        body = struct.pack("<d", 3.0) + b"w"  # the layout tag ``H`` carried
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack("<I", 1 + len(body)) + b"H" + body)
            with pytest.raises(ProtocolError, match="unknown frame tag"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_mixed_version_study_roundtrip(self):
        # beats with and without metrics interleave on one connection
        a, b = socket.socketpair()
        try:
            send_frame(a, Heartbeat(sender="w", time=1.0))
            send_frame(a, Heartbeat(sender="w", time=2.0,
                                    metrics={"metrics": {}, "spans": []}))
            send_frame(a, Heartbeat(sender="w", time=3.0))
            assert recv_frame(b).metrics is None
            assert recv_frame(b).metrics == {"metrics": {}, "spans": []}
            assert recv_frame(b).metrics is None
        finally:
            a.close()
            b.close()


# --------------------------------------------------------------------- #
class TestStudyTelemetry:
    def _payload(self, reg, prev):
        cur = reg.snapshot()
        return {"metrics": delta(prev, cur), "spans": []}, cur

    def test_ingest_accumulates_deltas_per_sender(self):
        local = MetricsRegistry(enabled=True)
        tel = StudyTelemetry(local)
        remote = MetricsRegistry(enabled=True)
        c = remote.counter("repro_rank_messages_received")
        c.inc(3, rank="0")
        payload, prev = self._payload(remote, None)
        tel.ingest("server-rank-0", payload)
        c.inc(2, rank="0")
        payload, _ = self._payload(remote, prev)
        tel.ingest("server-rank-0", payload)
        combined = tel.combined()
        assert series_value(
            combined, "repro_rank_messages_received", rank="0"
        ) == 5.0
        assert tel.senders() == ["server-rank-0"]
        assert tel.payloads_ingested == 2

    def test_ingest_routes_spans_to_tracer(self):
        tracer = Tracer()
        tel = StudyTelemetry(MetricsRegistry(enabled=True), tracer)
        tel.ingest("w0", {"metrics": {},
                          "spans": [span_record("g", "w", 0.0, 1.0, tid="w0")]})
        assert any(
            e["ph"] == "X" for e in tracer.chrome_trace()["traceEvents"]
        )

    def test_view_builds_worker_and_rank_tables(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("repro_worker_group_seconds").observe(0.2, worker="w0")
        reg.histogram("repro_worker_group_seconds").observe(0.4, worker="w0")
        reg.gauge("repro_worker_bytes_sent").set(1000.0, worker="w0")
        reg.histogram("repro_rank_fold_seconds").observe(0.01, rank="0")
        reg.gauge("repro_rank_max_ci_width").set(0.5, rank="0")
        reg.gauge("repro_rank_max_ci_width").set(0.75, rank="1")
        tel = StudyTelemetry(reg)
        frame = tel.view({"fingerprint": "abc", "ngroups": 4})
        assert frame["workers"]["w0"]["groups"] == 2
        assert frame["workers"]["w0"]["mean_group_seconds"] == pytest.approx(0.3)
        assert frame["workers"]["w0"]["bytes_sent"] == 1000.0
        assert frame["ranks"]["0"]["folds"] == 1
        assert frame["convergence"] == 0.75  # max across ranks
        json.dumps(frame)  # JSONL/HTTP ready

    def test_view_ignores_nan_convergence(self):
        reg = MetricsRegistry(enabled=True)
        reg.gauge("repro_rank_max_ci_width").set(float("nan"), rank="0")
        frame = StudyTelemetry(reg).view()
        assert frame["convergence"] is None

    def test_series_table_histogram_and_value_shapes(self):
        reg = MetricsRegistry(enabled=True)
        reg.histogram("h").observe(2.0, rank="0")
        reg.gauge("g").set(1.5, rank="0")
        snap = reg.snapshot()
        assert series_table(snap, "h", "rank")["0"]["mean"] == 2.0
        assert series_table(snap, "g", "rank")["0"]["value"] == 1.5
        assert series_table(snap, "missing", "rank") == {}


# --------------------------------------------------------------------- #
class TestExporters:
    def _frame(self):
        return {"time": 1.0, "study": {"ngroups": 2},
                "metrics": {"repro_x": {"type": "counter", "help": "",
                                        "series": [{"labels": {},
                                                    "value": 1.0}]}}}

    def test_jsonl_writer_appends_parseable_frames(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsFileWriter(path, self._frame, interval=10.0)
        writer.start()
        writer.write_frame()
        writer.close()  # writes one final frame
        lines = [json.loads(l) for l in path.read_text().splitlines() if l]
        assert len(lines) >= 2
        assert all(f["study"]["ngroups"] == 2 for f in lines)

    def test_jsonl_writer_truncates_stale_file(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        path.write_text("stale line from a previous study\n")
        writer = MetricsFileWriter(path, self._frame, interval=10.0)
        writer.close()
        lines = path.read_text().splitlines()
        assert all(json.loads(l)["time"] == 1.0 for l in lines if l)

    def test_jsonl_writer_survives_frame_fn_errors(self, tmp_path):
        path = tmp_path / "metrics.jsonl"
        writer = MetricsFileWriter(path, lambda: 1 / 0, interval=10.0)
        writer.write_frame()  # swallowed
        writer.close()
        assert path.read_text() == ""

    def test_http_server_serves_prometheus_and_json(self):
        server = MetricsHTTPServer(self._frame).start()
        try:
            host, port = server.address
            base = f"http://{host}:{port}"
            text = urllib.request.urlopen(f"{base}/metrics").read().decode()
            assert "repro_x 1" in text
            frame = json.loads(
                urllib.request.urlopen(f"{base}/metrics.json").read()
            )
            assert frame["study"]["ngroups"] == 2
            assert urllib.request.urlopen(f"{base}/healthz").read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError):
                urllib.request.urlopen(f"{base}/nope")
        finally:
            server.close()


# --------------------------------------------------------------------- #
class TestStructuredLogs:
    def test_text_format_carries_bound_ids(self):
        stream = io.StringIO()
        configure_logging(level="info", stream=stream)
        log = get_logger("serve", rank=0, study="ab12cd34ef56")
        log.info("restored checkpoint", extra=ids(group=7))
        line = stream.getvalue().strip()
        assert "repro.serve" in line
        assert "rank=0" in line and "study=ab12cd34ef56" in line
        assert "group=7" in line
        assert line.endswith("restored checkpoint")

    def test_json_format_is_one_object_per_line(self):
        stream = io.StringIO()
        configure_logging(level="info", json_mode=True, stream=stream)
        log = get_logger("work", worker="w0")
        log.info("group done", extra=ids(group=3))
        log.warning("slow flush")
        lines = [json.loads(l) for l in stream.getvalue().splitlines()]
        assert lines[0]["msg"] == "group done"
        assert lines[0]["worker"] == "w0" and lines[0]["group"] == 3
        assert lines[1]["level"] == "warning"

    def test_level_filtering(self):
        stream = io.StringIO()
        configure_logging(level="warning", stream=stream)
        get_logger("serve", rank=1).info("chatty")
        assert stream.getvalue() == ""

    def teardown_method(self):
        # leave the shared "repro" logger quiet for other tests
        configure_logging(level="warning", stream=io.StringIO())
        logging.getLogger("repro").handlers.clear()


# --------------------------------------------------------------------- #
class TestTop:
    def _frame(self):
        return {
            "time": 10.0, "elapsed": 4.2,
            "study": {"fingerprint": "ab12cd34ef5678", "ngroups": 10,
                      "groups_done": 4, "queue_depth": 3, "in_flight": 2,
                      "workers_active": 2, "leases": 2,
                      "groups_per_lease": 2.0, "ewma": {"w0": 0.25}},
            "convergence": 0.125,
            "workers": {"w0": {"groups": 4, "mean_group_seconds": 0.2,
                               "bytes_sent": 2e6, "blocked_seconds": 0.5}},
            "ranks": {"0": {"folds": 8, "fold_seconds": 0.04,
                            "bytes_received": 1e6, "messages_received": 8,
                            "blocked_seconds": 0.0}},
        }

    def test_render_frame_contains_tables(self):
        text = render_frame(self._frame())
        assert "study ab12cd34ef56" in text
        assert "groups 4/10" in text
        assert "queue 3" in text and "in-flight 2" in text
        assert "leases 2 (2.0 groups each)" in text
        assert "max CI width 0.125" in text
        assert "w0" in text and "0.250" in text  # EWMA column
        assert "WORKER" in text and "RANK" in text

    def test_render_empty_frame(self):
        assert "no telemetry frames yet" in render_frame(None)

    def test_normalize_source(self):
        assert _normalize_source("127.0.0.1:9000") == "http://127.0.0.1:9000"
        assert _normalize_source(":9000") == "http://127.0.0.1:9000"
        assert _normalize_source("http://x:1/metrics") == "http://x:1/metrics"
        assert _normalize_source("runs/metrics.jsonl") == "runs/metrics.jsonl"

    def test_fetch_frame_reads_last_jsonl_line(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text('{"time": 1}\n{"time": 2}\n')
        assert fetch_frame(str(path))["time"] == 2
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert fetch_frame(str(empty)) is None
