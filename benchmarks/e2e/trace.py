"""Per-layer tracing of one study, done entirely from outside the program.

:class:`Tracer` wraps the public entry points of each layer (the table in
``README.md``), records one span per call — ``(op, start, end, seq,
parent, group, thread)`` — plus counts at the same boundaries, and keeps
everything in memory until the repeat ends.  Spans of one group share its
id; a span started inside another on the same thread names it as parent,
so a layer's *self* time is its span minus its child spans.

The forked rank and worker processes of the distributed runtime record
into their own lists and copy them into their own slice of an anonymous
shared ``mmap`` (allocated before ``run()``) when their entry function
returns.  ``time.monotonic`` is ``CLOCK_MONOTONIC``, which is system
wide, so spans of different processes share one time axis.

End-to-end numbers never come from a traced repeat.  What tracing costs
is reported as ``trace.overhead_share``: spans recorded by the busiest
process times the measured cost of one span, over the traced window.
"""

from __future__ import annotations

import itertools
import json
import mmap
import os
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

import numpy as np

#: (layer, wrapped call).  The index is the op id stored in each span.
OPS = (
    ("solver", "advance"),
    ("sampling", "draw_design"),
    ("core.group", "process_step"),
    ("transport.message", "split_by_partition"),
    ("transport.message", "slice"),
    ("transport.router", "deliver"),
    ("net.framing", "encode_frame"),
    ("net.framing", "send_frame"),
    ("net.framing", "pump"),
    ("net.channel", "send"),
    ("net.shm", "write"),
    ("net.shm", "read_ring_frame"),
    ("core.server", "handle"),
    ("sobol", "update_group_buffer"),
    ("sobol", "flush"),
    ("kernels", "fold"),
    ("stats", "update"),
    ("core.checkpoint", "save_rank"),
    ("core.checkpoint", "restore_rank"),
    ("core.results", "from_server"),
    ("core.results", "assemble_maps"),
)
OP = {f"{layer}.{call}": i for i, (layer, call) in enumerate(OPS)}

#: counts taken at the span boundaries, in slot-header order
COUNTS = (
    "blocked_steps",  # process_step returned BLOCKED
    "suspended_s",  # wall seconds groups stayed BLOCKED
    "split_bytes",  # payload bytes of the chunks split_by_partition returned
    "frames_decoded",  # data frames decoded by pump / read_ring_frame
    "doorbells",  # Doorbell frames passed to send_frame
    "messages_discarded",  # ServerRank.handle returned False
    "fold_calls",  # kernel calls that did fold work
    "fold_bytes",  # computed: slabs read + state read and written
    "checkpoint_bytes",  # bytes save_rank wrote
)

_FIELDS = 7  # op, t0, t1, seq, parent, group, thread
_HEADER = 2 + len(COUNTS)  # nspans, dropped, counts...
_CAPACITY = 400_000  # spans per process slot


class Tracer:
    """Span and count recorder for one repeat (one instance per process
    tree: forked children inherit it and switch to their own slot)."""

    def __init__(self, nslots: int = 4):
        self._records: List[float] = []
        self._counts: Dict[str, float] = dict.fromkeys(COUNTS, 0.0)
        self._tls = threading.local()
        self._seq = itertools.count()
        self._blocked_since: Dict[int, float] = {}
        self._slot_floats = _HEADER + _CAPACITY * _FIELDS
        self._nslots = nslots
        self._slot = 0  # this process's slice; forked children move on
        # anonymous + shared: forked children write, this process reads
        self._shared = mmap.mmap(-1, nslots * self._slot_floats * 8)
        self._slots = np.frombuffer(self._shared, dtype=np.float64).reshape(
            nslots, self._slot_floats
        )

    # ------------------------------------------------------------------ #
    # recording
    # ------------------------------------------------------------------ #
    def wrap(
        self,
        op: int,
        fn: Callable,
        group_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording one span per call.  ``group_of(args)`` names
        the group (default: the enclosing span's); ``after(args, result)``
        takes the counts."""
        clock = time.monotonic
        tls = self._tls
        extend = self._records.extend
        seq = self._seq

        def traced(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
                tls.thread = threading.get_native_id()
            if stack:
                parent, group = stack[-1]
            else:
                parent, group = -1, -1
            if group_of is not None:
                group = group_of(args)
            me = next(seq)
            stack.append((me, group))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                extend((op, t0, t1, me, parent, group, tls.thread))
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------ #
    # installation: wrap the public calls of each layer from outside
    # ------------------------------------------------------------------ #
    def install(self, member_classes=()) -> None:
        import repro.runtime  # noqa: F401 - load every importer of the names below
        from repro.core.checkpoint import CheckpointManager
        from repro.core.group import GroupExecutor, GroupState
        from repro.core.results import StudyResults
        from repro.core.server import MelissaServer, ServerRank
        from repro.kernels import BlasKernel, EinsumKernel, cext
        from repro.net import channel as net_channel
        from repro.net import framing, serve, shm, worker
        from repro.sampling import pickfreeze
        from repro.sobol.martinez import UbiquitousSobolField
        from repro.stats.pipeline import StatisticsPipeline
        from repro.transport import message
        from repro.transport.router import Router

        counts = self._counts
        data_types = (message.FieldMessage, message.GroupFieldMessage)

        for cls in member_classes:
            self._method(cls, "advance", "solver.advance")
        self._function(pickfreeze, "draw_design", "sampling.draw_design")

        blocked = GroupState.BLOCKED
        since = self._blocked_since

        def after_step(args, state):
            if state is blocked:
                counts["blocked_steps"] += 1
                since.setdefault(id(args[0]), time.monotonic())
            elif since:
                start = since.pop(id(args[0]), None)
                if start is not None:
                    counts["suspended_s"] += time.monotonic() - start

        self._method(
            GroupExecutor, "process_step", "core.group.process_step",
            group_of=lambda args: args[0].group.group_id, after=after_step,
        )

        def after_split(args, chunks):
            counts["split_bytes"] += sum(c.data.nbytes for _, c in chunks)

        self._function(
            message, "split_by_partition",
            "transport.message.split_by_partition", after=after_split,
        )
        for cls in data_types:
            self._method(cls, "slice", "transport.message.slice")
        self._method(Router, "deliver", "transport.router.deliver")

        def after_send_frame(args, _):
            if isinstance(args[1], framing.Doorbell):
                counts["doorbells"] += 1

        self._function(framing, "encode_frame", "net.framing.encode_frame")
        self._function(
            framing, "send_frame", "net.framing.send_frame",
            group_of=lambda args: getattr(args[1], "group_id", -1),
            after=after_send_frame,
        )

        def after_pump(args, frames):
            counts["frames_decoded"] += sum(
                isinstance(f, data_types) for f in frames
            )

        self._method(
            framing.FrameReader, "pump", "net.framing.pump", after=after_pump
        )
        for cls in (net_channel.SocketChannel, shm.ShmChannel):
            for name in ("send", "try_send"):
                self._method(cls, name, "net.channel.send")
        self._method(shm.ShmRing, "write", "net.shm.write")

        def after_ring_read(args, item):
            if item is not None and isinstance(item[0], data_types):
                counts["frames_decoded"] += 1

        self._function(
            shm, "read_ring_frame", "net.shm.read_ring_frame",
            after=after_ring_read,
        )

        def after_handle(args, integrated):
            if not integrated:
                counts["messages_discarded"] += 1

        self._method(
            ServerRank, "handle", "core.server.handle",
            group_of=lambda args: args[1].group_id, after=after_handle,
        )
        self._method(
            UbiquitousSobolField, "update_group_buffer",
            "sobol.update_group_buffer",
        )
        self._method(UbiquitousSobolField, "flush", "sobol.flush")

        def fold_counter(fused: bool):
            def after_fold(args, done):
                if fused and not done:
                    return  # declined: the engine calls fold_batch instead
                slabs, lo, hi = args[1], args[2], args[3]
                m = slabs[0].shape[0]
                counts["fold_calls"] += 1
                # slabs read once; mean, m2 (m rows each) and cxy
                # (2p rows) read and written
                counts["fold_bytes"] += 8 * (hi - lo) * (
                    len(slabs) * m + 2 * (2 * m + 2 * (m - 2))
                )
            return after_fold

        for cls in (EinsumKernel, BlasKernel, cext.CExtKernel):
            for name, fused in (("fold_into", True), ("fold_batch", False)):
                if name in cls.__dict__:
                    self._method(cls, name, "kernels.fold", after=fold_counter(fused))
        for name in ("update", "update_timed"):
            self._method(StatisticsPipeline, name, "stats.update")

        def after_save(args, path):
            counts["checkpoint_bytes"] += os.stat(path).st_size

        self._method(
            CheckpointManager, "save_rank", "core.checkpoint.save_rank",
            after=after_save,
        )
        self._method(
            CheckpointManager, "restore_rank", "core.checkpoint.restore_rank"
        )
        self._method(StudyResults, "from_server", "core.results.from_server")
        self._method(MelissaServer, "assemble_maps", "core.results.assemble_maps")

        # forked children: own slot, flushed when the entry function ends
        self._child_entry(
            serve, "run_server_rank", lambda args, kwargs: 1 + args[0]
        )
        self._child_entry(
            worker, "run_worker",
            lambda args, kwargs: 2 + args[0].server_ranks
            + kwargs.get("worker_index", 0),
        )

    def _method(self, cls, name: str, op: str, **hooks) -> None:
        original = cls.__dict__[name]
        if isinstance(original, classmethod):
            traced = classmethod(self.wrap(OP[op], original.__func__, **hooks))
        else:
            traced = self.wrap(OP[op], original, **hooks)
        setattr(cls, name, traced)

    def _function(self, module, name: str, op: str, **hooks) -> None:
        original = getattr(module, name)
        self._rebind(original, name, self.wrap(OP[op], original, **hooks))

    @staticmethod
    def _rebind(original, name: str, replacement) -> None:
        """Point every ``from x import name`` binding in the program at
        ``replacement`` (modules bind the function object at import)."""
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, name, None) is original
            ):
                setattr(module, name, replacement)

    def _child_entry(self, module, name: str, slot_of: Callable) -> None:
        original = getattr(module, name)

        def entry(*args, **kwargs):
            self._become_child(slot_of(args, kwargs))
            try:
                return original(*args, **kwargs)
            finally:
                self.flush()

        self._rebind(original, name, entry)

    def _become_child(self, slot: int) -> None:
        """A forked process starts with the parent's spans: drop them
        (the parent keeps its own) and switch to this process's slot."""
        del self._records[:]
        for key in self._counts:
            self._counts[key] = 0.0
        self._blocked_since.clear()
        self._tls.stack = []
        self._tls.thread = threading.get_native_id()
        self._slot = min(slot, self._nslots - 1)

    def flush(self) -> None:
        """Copy this process's spans and counts into its shared slot."""
        # a writer/event-loop thread may still append: snapshot whole spans
        flat = self._records[: len(self._records) // _FIELDS * _FIELDS]
        spans = np.array(flat, dtype=np.float64).reshape(-1, _FIELDS)
        kept = spans[:_CAPACITY]
        slot = self._slots[self._slot]
        slot[_HEADER:_HEADER + kept.size] = kept.ravel()
        slot[2:_HEADER] = [self._counts[key] for key in COUNTS]
        slot[1] = len(spans) - len(kept)
        slot[0] = len(kept)

    # ------------------------------------------------------------------ #
    # aggregation (in the process that called run())
    # ------------------------------------------------------------------ #
    def collect(self) -> "Trace":
        self.flush()
        spans, counts, dropped = [], dict.fromkeys(COUNTS, 0.0), 0
        for index, slot in enumerate(self._slots):
            n = int(slot[0])
            if not n:
                continue
            rows = slot[_HEADER:_HEADER + n * _FIELDS].reshape(n, _FIELDS)
            spans.append(np.column_stack([rows, np.full(n, float(index))]))
            dropped += int(slot[1])
            for key, value in zip(COUNTS, slot[2:_HEADER]):
                counts[key] += float(value)
        table = np.concatenate(spans) if spans else np.empty((0, _FIELDS + 1))
        return Trace(table, counts, dropped)


class Trace:
    """Collected spans of one repeat: columns ``op, t0, t1, seq, parent,
    group, thread, process``."""

    def __init__(self, spans: np.ndarray, counts: Dict[str, float], dropped: int):
        self.spans = spans
        self.counts = counts
        self.dropped = dropped
        self.self_s = self._self_times()

    def _self_times(self) -> np.ndarray:
        """Span duration minus the durations of its direct children."""
        s = self.spans
        duration = s[:, 2] - s[:, 1]
        own = duration.copy()
        for process in np.unique(s[:, 7]):
            rows = np.flatnonzero(s[:, 7] == process)
            seqs = s[rows, 3]
            order = np.argsort(seqs)
            has_parent = s[rows, 4] >= 0
            pos = np.searchsorted(seqs[order], s[rows[has_parent], 4])
            pos = np.minimum(pos, len(order) - 1)
            found = seqs[order][pos] == s[rows[has_parent], 4]
            np.subtract.at(
                own, rows[order][pos[found]], duration[rows[has_parent]][found]
            )
        return own

    def op(self, name: str, since: float = -np.inf):
        """``(calls, total seconds, self seconds)`` of one wrapped call."""
        mask = (self.spans[:, 0] == OP[name]) & (self.spans[:, 1] >= since)
        rows = self.spans[mask]
        return (
            int(mask.sum()),
            float((rows[:, 2] - rows[:, 1]).sum()),
            float(self.self_s[mask].sum()),
        )

    def last_end(self, name: str) -> float:
        mask = self.spans[:, 0] == OP[name]
        return float(self.spans[mask, 2].max()) if mask.any() else float("nan")

    def layer_self_seconds(self, since: float) -> Dict[str, float]:
        """Self time per layer over spans started at or after ``since``."""
        out: Dict[str, float] = {}
        mask = self.spans[:, 1] >= since
        ops = self.spans[mask, 0].astype(int)
        totals = np.bincount(ops, weights=self.self_s[mask], minlength=len(OPS))
        for (layer, _), seconds in zip(OPS, totals):
            out[layer] = out.get(layer, 0.0) + float(seconds)
        return out

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (open in https://ui.perfetto.dev)."""
        origin = float(self.spans[:, 1].min(initial=np.inf))
        events = [
            {
                "name": ".".join(OPS[int(op)]), "cat": OPS[int(op)][0],
                "ph": "X", "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "pid": int(process), "tid": int(thread),
                "args": {"group": int(group), "seq": int(seq), "parent": int(parent)},
            }
            for op, t0, t1, seq, parent, group, thread, process in self.spans
        ]
        names = {0: "harness+coordinator"}
        events += [
            {"name": "process_name", "ph": "M", "pid": int(p),
             "args": {"name": names.get(int(p), f"forked child (slot {int(p)})")}}
            for p in np.unique(self.spans[:, 7])
        ]
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one recorded span adds to a call, measured on a no-op.
    Spans times this, over the window, is ``trace.overhead_share`` —
    steadier on a shared box than the difference of two windows."""
    def noop():
        pass

    traced = Tracer(nslots=1).wrap(0, noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    t1 = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(0.0, (time.perf_counter() - t1) - (t1 - t0)) / calls


# --------------------------------------------------------------------- #
# machine probes: the denominators of the "fraction of the box" ratios
# --------------------------------------------------------------------- #
def memcpy_gb_s(nbytes: int = 32 << 20, reps: int = 3) -> float:
    """Best-of-``reps`` ``np.copyto`` bandwidth, 32 MB to 32 MB (64 MB
    moved; each byte is counted once, as memcpy bandwidth usually is).
    First-touch page faults cost more than the copy on a VM, so both
    arrays are touched before the clock starts."""
    src = np.ones(nbytes // 8)
    dst = np.zeros_like(src)
    np.copyto(dst, src)
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return nbytes / best / 1e9


def pipe_mb_s(chunk: int = 64 << 10, seconds: float = 0.1) -> float:
    """Raw ``os.pipe`` throughput: 64 KB writes, each read back."""
    r, w = os.pipe()
    try:
        block = bytes(chunk)
        moved = 0
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds:
            os.write(w, block)
            left = chunk
            while left:
                left -= len(os.read(r, left))
            moved += chunk
        return moved / (time.perf_counter() - t0) / 1e6
    finally:
        os.close(r)
        os.close(w)


def auto_probe_s(nparams: int, ncells: int) -> float:
    """Seconds the first fold costs under ``kernel="auto",
    fold_threads="auto"`` on this shape: the autotune the pinned
    execution policy keeps out of the measured runs."""
    from repro.sobol.martinez import UbiquitousSobolField

    field = UbiquitousSobolField(
        nparams=nparams, ntimesteps=1, ncells=ncells,
        kernel="auto", fold_threads="auto",
    )
    rng = np.random.default_rng(0)
    buffers = rng.random((field.batch_size, nparams + 2, ncells))
    for buf in buffers[:-1]:
        field.update_group_buffer(0, buf)
    t0 = time.perf_counter()
    field.update_group_buffer(0, buffers[-1])  # completes the batch: tunes + folds
    return time.perf_counter() - t0
