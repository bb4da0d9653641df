"""One repeat: one study, run once, in this fresh interpreter.

``python -m benchmarks.e2e.repeat --workload W --seed S ...`` is spawned
by the driver (``run.py``) for every warm-up, reference, timed and traced
repeat.  A study is one process in real use, so imports, design drawing,
kernel loading, fork and rendezvous are paid here every time and land in
``setup_s``.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import resource
import shutil
import struct
import sys
import tempfile
import time

RTOL_TWOPASS = 1e-8
RTOL_SEQUENTIAL = 1e-10


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _peak_rss_mib() -> float:
    # Linux reports ru_maxrss in KiB; children = the forked rank and worker
    return max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--spawned-at", type=float, default=None,
                    help="CLOCK_MONOTONIC reading the driver took before spawn")
    ap.add_argument("--work-dir", required=True)
    ap.add_argument("--write-reference", action="store_true",
                    help="run the uninjected sequential study and save its maps")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)
    spawned_at = time.monotonic() if args.spawned_at is None else args.spawned_at

    import numpy as np

    from . import workloads as wl
    from repro.kernels import cext

    workload = wl.BY_NAME[args.workload]
    # pinned execution policy: the program is measured, not the autotuner
    kernel = "cext" if cext.available() else "blas"
    reference_path = os.path.join(args.work_dir, f"reference-{args.seed}.npz")

    # the first member construction opens the timed window; a forked
    # worker reports it through this shared page
    page = mmap.mmap(-1, mmap.PAGESIZE)

    def on_dispatch():
        if page[:8] == b"\0" * 8:
            page[:8] = struct.pack("d", time.monotonic())

    checkpoint_dir = None
    if workload.crashes and not args.write_reference:
        checkpoint_dir = tempfile.mkdtemp(prefix="ckpt-", dir=args.work_dir)
    try:
        built = wl.build(
            workload, args.seed, args.scale, kernel, on_dispatch,
            checkpoint_dir=checkpoint_dir, as_reference=args.write_reference,
        )
        tracer = None
        if args.trace:
            from .trace import Tracer
            from repro.solver.simulation import ScalarSimulation

            tracer = Tracer()
            tracer.install(member_classes=(wl.RampSimulation, ScalarSimulation))

        cpu_before = _cpu_seconds()
        t_call = time.monotonic()
        results = built.study.run(**built.run_kwargs)
        t_end = time.monotonic()
        peak_rss = _peak_rss_mib()
        cpu_s = _cpu_seconds() - cpu_before
        (t_open,) = struct.unpack("d", page[:8])
        window = t_end - t_open

        out = {
            "workload": workload.name, "seed": args.seed, "scale": args.scale,
            "ngroups": built.ngroups, "kernel": kernel,
            "fold_threads": wl.FOLD_THREADS,
            "groups_integrated": int(results.groups_integrated),
            "abandoned_groups": list(results.abandoned_groups),
            "window_s": window,
            "setup_s": t_open - spawned_at,
            "groups_per_s": built.ngroups / window,
            "peak_rss_mb": peak_rss,
        }

        # correctness, outside the timed window
        if args.write_reference:
            np.savez(reference_path, **{m: getattr(results, m) for m in wl.MAPS})
            deviation, rtol = 0.0, 0.0
        elif workload.reference == "twopass":
            deviation = wl.compare_maps(
                results, wl.twopass_maps(built.probes), cells=built.probe_cells
            )
            rtol = RTOL_TWOPASS
        else:
            with np.load(reference_path) as reference:
                deviation = wl.compare_maps(results, reference)
            rtol = RTOL_SEQUENTIAL
        out["parity_deviation"] = deviation
        out["verified"] = bool(
            deviation <= rtol
            and results.groups_integrated == built.ngroups
            and not results.abandoned_groups
        )

        if tracer is not None:
            out.update(_layers(
                tracer.collect(), built, t_call, t_open, t_end, cpu_s,
                args.trace_file,
            ))
        print(json.dumps(out))
        return 0
    finally:
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


def _layers(trace, built, t_call, t_open, t_end, cpu_s, trace_file) -> dict:
    """Per-layer metrics of a traced repeat (names fixed by README.md)."""
    import numpy as np

    from . import trace as tr

    w, study = built.workload, built.study
    driver = study.driver
    window = t_end - t_open
    counts = trace.counts
    m = {}

    calls, total, _ = trace.op("solver.advance")
    m["solver.advance_calls"], m["solver.advance_s"] = calls, total
    m["sampling.draw_design_s"] = trace.op("sampling.draw_design")[1]

    calls, _, own = trace.op("core.group.process_step")
    m["core.group.step_calls"], m["core.group.step_self_s"] = calls, own
    m["core.group.blocked_steps"] = counts["blocked_steps"]

    calls, total, _ = trace.op("transport.message.split_by_partition")
    m["transport.message.split_calls"] = calls
    m["transport.message.split_s"] = total
    m["transport.message.split_bytes"] = counts["split_bytes"]

    calls, _, own = trace.op("transport.router.deliver")
    m["transport.router.deliver_calls"] = calls
    m["transport.router.deliver_self_s"] = own
    # BoundedChannel stats of the in-process router (none when the fabric
    # is a socket or a ring: those report under net.channel)
    router = getattr(driver, "router", None)
    inbound = [ch.stats for ch in router.inbound.values()] if router else []
    m["transport.channel.send_blocks"] = sum(s.send_blocks for s in inbound)
    m["transport.channel.blocked_s"] = sum(s.blocked_seconds for s in inbound)
    m["transport.channel.high_water_bytes"] = max(
        (s.high_water_bytes for s in inbound), default=0
    )

    calls, total, _ = trace.op("net.framing.encode_frame")
    m["net.framing.encode_calls"], m["net.framing.encode_s"] = calls, total
    calls, _, own = trace.op("net.framing.send_frame")
    m["net.framing.send_calls"], m["net.framing.send_s"] = calls, own
    calls, total, _ = trace.op("net.framing.pump")
    m["net.framing.pump_calls"], m["net.framing.pump_s"] = calls, total
    m["net.framing.frames_decoded"] = counts["frames_decoded"]

    coordinator = getattr(driver, "coordinator", None)
    senders = list(coordinator.worker_channel_stats.values()) if coordinator else []
    receivers = list(coordinator.rank_channel_stats.values()) if coordinator else []
    sent = sum(s["bytes_sent"] for s in senders)
    m["net.channel.bytes_sent"] = sent
    m["net.channel.mb_per_s"] = sent / window / 1e6
    m["net.channel.send_wait_s"] = trace.op("net.channel.send")[1]
    m["net.channel.send_blocks"] = sum(s["send_blocks"] for s in senders)
    m["net.channel.send_blocked_s"] = (
        sum(s["blocked_seconds"] for s in senders) + counts["suspended_s"]
    )
    m["net.channel.recv_blocks"] = sum(s["recv_blocks"] for s in receivers)
    m["net.channel.recv_blocked_s"] = sum(s["blocked_seconds"] for s in receivers)
    m["net.channel.high_water_bytes"] = max(
        (s["high_water_bytes"] for s in senders + receivers), default=0
    )

    calls, total, _ = trace.op("net.shm.write")
    m["net.shm.write_calls"], m["net.shm.write_s"] = calls, total
    calls, total, _ = trace.op("net.shm.read_ring_frame")
    m["net.shm.read_calls"], m["net.shm.read_s"] = calls, total
    m["net.shm.doorbells"] = counts["doorbells"]

    calls, _, own = trace.op("core.server.handle")
    m["core.server.handle_calls"], m["core.server.stage_self_s"] = calls, own
    m["core.server.messages_discarded"] = counts["messages_discarded"]

    calls, _, own = trace.op("sobol.update_group_buffer")
    m["sobol.update_calls"] = calls
    m["sobol.update_self_s"] = own + trace.op("sobol.flush")[2]

    fold_s = trace.op("kernels.fold")[1]
    memcpy = tr.memcpy_gb_s()
    m["kernels.fold_calls"] = counts["fold_calls"]
    m["kernels.fold_s"] = fold_s
    m["kernels.fold_bytes"] = counts["fold_bytes"]
    m["kernels.fold_gb_s"] = counts["fold_bytes"] / fold_s / 1e9 if fold_s else 0.0
    m["kernels.fold_frac_memcpy"] = m["kernels.fold_gb_s"] / memcpy
    m["kernels.auto_probe_s"] = tr.auto_probe_s(
        w.group_size - 2, w.ncells // w.server_ranks
    )

    calls, total, _ = trace.op("stats.update")
    m["stats.update_calls"], m["stats.update_s"] = calls, total

    calls, total, _ = trace.op("core.checkpoint.save_rank")
    m["core.checkpoint.save_calls"], m["core.checkpoint.save_s"] = calls, total
    m["core.checkpoint.save_mb_per_s"] = (
        counts["checkpoint_bytes"] / total / 1e6 if total else 0.0
    )
    calls, total, _ = trace.op("core.checkpoint.restore_rank")
    m["core.checkpoint.restore_calls"] = calls
    m["core.checkpoint.restore_s"] = total
    manager = getattr(driver, "checkpoints", None)
    m["core.checkpoint.bytes_on_disk"] = manager.bytes_on_disk() if manager else 0

    m["core.results.assemble_s"] = trace.op("core.results.from_server")[1]

    nprocesses = 1 if w.runtime == "sequential" else 2 + w.server_ranks
    layer_self = trace.layer_self_seconds(since=t_open)
    m["runtime.drain_s"] = t_end - trace.last_end("solver.advance")
    m["runtime.fork_rendezvous_s"] = t_open - t_call
    m["runtime.cpu_s_per_group"] = cpu_s / built.ngroups
    m["runtime.cell_updates_per_s"] = (
        built.ngroups * w.group_size * w.ntimesteps * w.ncells / window
    )
    m["runtime.unattributed_share"] = 1.0 - sum(layer_self.values()) / (
        window * nprocesses
    )

    m["machine.memcpy_gb_s"] = memcpy
    m["machine.pipe_mb_s"] = tr.pipe_mb_s()

    # processes overlap, so the busiest one bounds what tracing added
    busiest = max(np.bincount(trace.spans[:, 7].astype(int)), default=0)
    m["trace.overhead_share"] = busiest * tr.span_cost_s() / window

    if trace_file:
        trace.write_chrome(trace_file)
    return {
        "layers": m,
        "checkpoints_written": manager.checkpoints_written if manager else 0,
        "layer_self_s": layer_self,
        "processes": nprocesses,
        "spans": len(trace.spans),
        "dropped_spans": trace.dropped,
    }


if __name__ == "__main__":
    sys.exit(main())
