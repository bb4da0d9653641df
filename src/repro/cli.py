"""Command-line interface: run studies and campaign replays from a shell.

Study subcommands mirror the examples:

``python -m repro.cli quickstart``
    Ishigami study; prints estimates vs closed form.
``python -m repro.cli tube --nx 48 --ny 24 --groups 40``
    The paper's tube-bundle use case with ASCII Sobol' maps.
``python -m repro.cli campaign --server-nodes 32``
    The Curie campaign through the calibrated performance model.

Distributed deployment (the paper's multi-host shape — every process may
run on a different machine, pointed at the same coordinator):

``python -m repro.cli launch --study quickstart --groups 100 --bind HOST:PORT``
    Rank table + work queue; waits for ranks and workers, prints results.
``python -m repro.cli serve --study quickstart --groups 100 --rank K --coordinator HOST:PORT``
    One Melissa Server rank (run ``--server-ranks`` of these).
``python -m repro.cli work --study quickstart --groups 100 --coordinator HOST:PORT``
    One group worker (run as many as the machines allow).

``launch`` is :class:`~repro.runtime.DistributedRuntime`, the runtime the
tests use: ``--local-workers N`` forks the ranks and N workers on this
host; without it nothing is forked up front and only respawned ranks
(``--respawn-serve``) and elastic workers are forked from the launch.
"""

from __future__ import annotations

import argparse
import importlib
import sys
from typing import List, Optional, Tuple

import numpy as np


def _stats_overrides(args: argparse.Namespace) -> dict:
    """``statistics=[...]`` config override from repeated/comma'd --stats.

    No ``--stats`` flag keeps the study default; ``--stats none`` disables
    general statistics; anything else is a catalog spec string (see
    ``repro stats --list``).
    """
    raw = getattr(args, "stats", None)
    if not raw:
        return {}
    specs: List[str] = []
    for chunk in raw:
        specs.extend(s.strip() for s in chunk.split(",") if s.strip())
    if specs == ["none"]:
        return {"statistics": []}
    return {"statistics": specs}


def _configure_logging(args: argparse.Namespace) -> None:
    """Apply ``--log-level`` / ``--log-json`` (structured logging, ISSUE 8)."""
    from repro.telemetry.logs import configure_logging

    configure_logging(
        level=getattr(args, "log_level", "warning") or "warning",
        json_mode=bool(getattr(args, "log_json", False)),
    )


def _print_observability_summary(coordinator) -> None:
    """End-of-run summary: channel suspensions + the launcher event timeline.

    Both are collected unconditionally (the ``bye``/``rank_state`` frames
    carry final :class:`~repro.transport.channel.ChannelStats` and the
    coordinator keeps its event list), so this needs no telemetry flags.
    """
    worker_stats = getattr(coordinator, "worker_channel_stats", {}) or {}
    rank_stats = getattr(coordinator, "rank_channel_stats", {}) or {}
    if worker_stats or rank_stats:
        print("\nchannel suspension summary (dual-HWM back-pressure):")
        for name in sorted(worker_stats):
            st = worker_stats[name]
            print(
                f"  {name}: sent {int(st.get('bytes_sent', 0)):,} B in "
                f"{int(st.get('messages_sent', 0))} message(s), "
                f"{int(st.get('send_blocks', 0))} suspension(s), "
                f"{float(st.get('blocked_seconds', 0.0)):.3f}s blocked"
            )
        for rank in sorted(rank_stats):
            st = rank_stats[rank]
            print(
                f"  server-rank-{rank}: received "
                f"{int(st.get('bytes_received', 0)):,} B in "
                f"{int(st.get('messages_received', 0))} message(s), at most "
                f"{int(st.get('high_water_bytes', 0)):,} B waiting in one turn"
            )
    events = list(getattr(coordinator, "events", None) or [])
    if events:
        t0 = events[0][0]
        print(f"\nrun timeline ({len(events)} event(s)):")
        for when, kind, detail in events:
            line = f"  +{when - t0:8.3f}s  {kind}"
            if detail:
                line += f"  {detail}"
            print(line)


def _cmd_quickstart(args: argparse.Namespace) -> int:
    from repro import SensitivityStudy
    from repro.sobol import IshigamiFunction

    fn = IshigamiFunction()
    study = SensitivityStudy.for_function(
        fn, ngroups=args.groups, seed=args.seed, kernel=args.kernel,
        fold_threads=args.fold_threads,
        **_stats_overrides(args),
    )
    results = study.run(runtime=args.runtime)
    print(f"groups integrated: {results.groups_integrated}")
    print(f"{'parameter':<6} {'S est':>8} {'S exact':>8} {'ST est':>8} {'ST exact':>9}")
    for k, name in enumerate(results.parameter_names):
        print(
            f"{name:<6} {results.first_order[k, 0, 0]:8.4f} "
            f"{fn.first_order[k]:8.4f} {results.total_order[k, 0, 0]:8.4f} "
            f"{fn.total_order[k]:9.4f}"
        )
    if results.statistics:
        from repro.report import statistics_table

        print(statistics_table(results, title="\nconfigured statistics (t=0)"))
    return 0


def _cmd_tube(args: argparse.Namespace) -> int:
    from repro import SensitivityStudy
    from repro.report import render_field_slice
    from repro.solver import TubeBundleCase

    case = TubeBundleCase(
        nx=args.nx, ny=args.ny, ntimesteps=args.timesteps, total_time=args.time
    )
    study = SensitivityStudy.for_tube_bundle(
        case, ngroups=args.groups, seed=args.seed,
        server_ranks=args.server_ranks, client_ranks=2,
        kernel=args.kernel,
        fold_threads=args.fold_threads,
        **_stats_overrides(args),
    )
    kwargs = {"steps_per_tick": 4} if args.runtime == "sequential" else {}
    results = study.run(runtime=args.runtime, **kwargs)
    print(results.summary())
    if results.statistics:
        from repro.report import statistics_table

        print(statistics_table(results, title="\nconfigured statistics (final t)"))
    step = max(0, int(0.8 * case.ntimesteps))
    for k, name in enumerate(results.parameter_names):
        print(render_field_slice(
            np.nan_to_num(results.first_order_map(k, step)), case.mesh.dims,
            width=min(64, args.nx), height=min(16, args.ny),
            title=f"\nS map: {name} (t={step})", vmin=0.0, vmax=1.0,
        ))
    return 0


def _parse_address(spec: str, wait: float = 60.0) -> Tuple[str, int]:
    """HOST:PORT, or ``@FILE`` naming an address file ``launch`` wrote.

    The file form lets every process bind ephemeral ports (port 0):
    ``launch --bind 127.0.0.1:0 --address-file rendezvous.addr`` writes
    the actual address once bound, and ``serve``/``work`` started with
    ``--coordinator @rendezvous.addr`` poll for the file — no fixed port
    to collide on (the EADDRINUSE class of CI flakes).  Each candidate
    address is probed with a TCP connect before being accepted: a stale
    file from a previous run (its port now dead) keeps the poll going
    until the new launch overwrites it, instead of sending every
    participant off to dial a corpse.
    """
    if spec.startswith("@"):
        import socket as _socket
        import time as _time

        path = spec[1:]
        deadline = _time.monotonic() + wait
        while True:
            content = ""
            try:
                with open(path) as fh:
                    content = fh.read().strip()
            except OSError:
                pass
            if content:
                host, port = _parse_address(content)
                try:
                    _socket.create_connection((host, port), timeout=1.0).close()
                    return host, port
                except OSError:
                    pass  # stale address from a previous run; keep polling
            if _time.monotonic() >= deadline:
                raise SystemExit(f"no live coordinator address in {path!r} after {wait}s")
            _time.sleep(0.1)
    host, _, port = spec.rpartition(":")
    if not host or not port.isdigit():
        raise SystemExit(f"expected HOST:PORT, got {spec!r}")
    return host, int(port)


def _resolve_study(args: argparse.Namespace):
    """Build the SensitivityStudy every distributed participant agrees on.

    ``--study`` accepts the built-in specs ``quickstart`` (Ishigami, one
    cell), ``vector`` (Ishigami over ``--cells`` cells — the cheap
    multi-rank smoke study), and ``tube`` (the paper's CFD case), or
    ``module:callable`` where the callable takes no arguments and
    returns a :class:`~repro.study.SensitivityStudy` — the escape hatch
    for real models.  Every process (launch / serve / work) must be
    given the SAME spec and flags; the coordinator rejects mismatched
    fingerprints.
    """
    from repro import SensitivityStudy

    spec = args.study
    if spec == "quickstart":
        from repro.sobol import IshigamiFunction

        return SensitivityStudy.for_function(
            IshigamiFunction(), ngroups=args.groups, seed=args.seed,
            ntimesteps=args.timesteps, server_ranks=args.server_ranks,
            kernel=getattr(args, "kernel", None),
            **_stats_overrides(args),
        )
    if spec == "vector":
        from repro.core.config import StudyConfig
        from repro.core.group import VectorFieldSimulation
        from repro.sobol import IshigamiFunction

        fn = IshigamiFunction()
        ncells = args.cells
        ntimesteps = args.timesteps
        config = StudyConfig(
            space=fn.space(), ngroups=args.groups, ntimesteps=ntimesteps,
            ncells=ncells, seed=args.seed, server_ranks=args.server_ranks,
            client_ranks=min(2, ncells), kernel=getattr(args, "kernel", None),
            **_stats_overrides(args),
        )

        def factory(params, sim_id):
            return VectorFieldSimulation(fn, params, ncells, ntimesteps, sim_id)

        return SensitivityStudy(config, factory)
    if spec == "tube":
        from repro.solver import TubeBundleCase

        case = TubeBundleCase()
        return SensitivityStudy.for_tube_bundle(
            case, ngroups=args.groups, seed=args.seed,
            server_ranks=args.server_ranks,
            kernel=getattr(args, "kernel", None),
            **_stats_overrides(args),
        )
    if ":" in spec:
        module_name, _, attr = spec.partition(":")
        obj = getattr(importlib.import_module(module_name), attr)
        study = obj() if callable(obj) and not isinstance(obj, SensitivityStudy) else obj
        if not isinstance(study, SensitivityStudy):
            raise SystemExit(f"--study {spec!r} did not yield a SensitivityStudy")
        return study
    raise SystemExit(
        f"unknown study spec {spec!r} "
        "(use 'quickstart', 'vector', 'tube', or module:callable)"
    )


def _resolved_study(args: argparse.Namespace):
    """The study plus the per-process config overrides (not fingerprinted)."""
    study = _resolve_study(args)
    interval = getattr(args, "checkpoint_interval", None)
    if interval is not None:
        study.config.checkpoint_interval = interval
    transport = getattr(args, "transport", None)
    if transport is not None:
        study.config.transport = transport
    fold_threads = getattr(args, "fold_threads", None)
    if fold_threads is not None:
        from repro.kernels.parallel import validate_threads_spec

        study.config.fold_threads = validate_threads_spec(fold_threads)
    return study


def _fault_arg(spec: str):
    """``--fault`` type: a bad spec is a usage error, before anything
    connects."""
    from repro.faults import parse_fault

    try:
        return parse_fault(spec)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.serve import run_server_rank

    _configure_logging(args)
    study = _resolved_study(args)
    return run_server_rank(
        args.rank,
        study.config,
        _parse_address(args.coordinator),
        data_host=args.data_host,
        data_port=args.data_port,
        checkpoint_dir=args.checkpoint_dir,
        fault=args.fault,
    )


def _cmd_work(args: argparse.Namespace) -> int:
    from repro.net.worker import run_worker

    _configure_logging(args)
    study = _resolved_study(args)
    return run_worker(
        study.config,
        study.factory,
        _parse_address(args.coordinator),
        name=args.name,
        fault=args.fault,
    )


def _scheduling_spec(args: argparse.Namespace) -> Optional[str]:
    """Scheduling spec string from the launch flags (None = plain FIFO).

    ``--schedule`` passes a full :func:`repro.scheduler.policy.parse_scheduling`
    spec; ``--speculate`` / ``--elastic`` are sugar for one
    clause each, optionally with that clause's parameters attached
    (``--speculate multiple=2.5,min_done=1``).
    """
    if args.schedule:
        if args.speculate is not None or args.elastic is not None:
            raise SystemExit("pass either --schedule or the per-clause flags, not both")
        return args.schedule
    clauses = []
    for kind, value in (
        ("speculate", args.speculate),
        ("elastic", args.elastic),
    ):
        if value is None:
            continue
        clauses.append(f"{kind}:{value}" if value else kind)
    return ";".join(clauses) or None


def _cmd_launch(args: argparse.Namespace) -> int:
    import os

    from repro.runtime import DistributedRuntime

    _configure_logging(args)
    study = _resolved_study(args)
    scheduling = _scheduling_spec(args)
    if scheduling is not None:
        from repro.scheduler.policy import parse_scheduling

        study.config.scheduling = parse_scheduling(scheduling)
    if args.address_file:
        # a leftover file from a previous run would hand serve/work a
        # dead address before we bind; remove it up front
        try:
            os.unlink(args.address_file)
        except OSError:
            pass
    host, port = _parse_address(args.bind)
    runtime = DistributedRuntime(
        study.config, study.factory, nworkers=args.local_workers,
        host=host, port=port, data_host=args.respawn_data_host,
        checkpoint_dir=args.checkpoint_dir,
        supervise=bool(args.local_workers) or args.respawn_serve,
        trace_file=args.trace, metrics_file=args.metrics_file,
        metrics_port=args.metrics_port, metrics_interval=args.metrics_interval,
    )
    address = runtime.start()
    print(
        f"coordinator on {address[0]}:{address[1]} — "
        f"waiting for {study.config.server_ranks} server rank(s) and workers"
    )
    if runtime.metrics_server is not None:
        print(f"metrics endpoint: {runtime.metrics_server.url}")
    if args.address_file:
        # atomic publish: pollers must never read a half-written file
        tmp = f"{args.address_file}.tmp"
        with open(tmp, "w") as fh:
            fh.write(f"{address[0]}:{address[1]}\n")
        os.replace(tmp, args.address_file)
    results = runtime.wait(args.timeout)
    coordinator, pool = runtime.coordinator, runtime.pool
    if coordinator.rank_respawns:
        print(f"respawned server rank(s): {coordinator.rank_respawns}")
    print(results.summary())
    if results.abandoned_groups:
        print(f"abandoned groups: {results.abandoned_groups}")
    if coordinator.speculated:
        print(f"speculated group(s): {sorted(set(coordinator.speculated))}")
    if pool is not None:
        print(
            f"elastic workers spawned: {pool.spawned_total}, "
            f"retired: {pool.retired_total}"
        )
    _print_observability_summary(coordinator)
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.telemetry.top import run_top

    return run_top(args.source, interval=args.interval, once=args.once)


def _cmd_stats(args: argparse.Namespace) -> int:
    """``repro stats --list``: the registered streaming-statistics catalog."""
    from repro.report import format_table
    from repro.stats import available_statistics

    rows = []
    for name, cls in available_statistics().items():
        params = ", ".join(
            f"{key}={default}" if default is not None else f"{key} (required)"
            for key, default in cls.PARAMS.items()
        ) or "-"
        merge = "exact" if cls.exact_merge else "approximate"
        rows.append([name, params, merge, cls.description])
    print(format_table(
        ["name", "parameters", "merge", "description"], rows,
        title="streaming-statistics catalog (use with --stats or "
              "StudyConfig(statistics=[...]))",
    ))
    print(
        "\ncustom plugins: subclass repro.stats.FieldStatistic, decorate "
        "with @repro.stats.register,\nor reference one directly as "
        "'my_module:MyStatistic' in any spec position."
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.perfmodel import CampaignSimulator, paper_campaign
    from repro.report import format_table

    params = paper_campaign(args.server_nodes)
    result = CampaignSimulator(params).run()
    summary = result.summary()
    rows = [[k, v] for k, v in summary.items()]
    print(format_table(
        ["quantity", "value"], rows,
        title=f"Curie campaign model, server on {args.server_nodes} nodes",
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Melissa (SC'17) reproduction: in-transit sensitivity analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    runtime_choices = ("sequential", "distributed")
    from repro.kernels import KERNEL_NAMES

    def add_kernel_arg(sp):
        sp.add_argument(
            "--kernel", choices=KERNEL_NAMES, default=None,
            help="co-moment fold backend (default: 'auto' = cext where "
                 "it builds, else einsum)",
        )
        sp.add_argument(
            "--fold-threads", metavar="N|auto", default=None,
            help="fold-pool width per server rank: an int >= 1, or "
                 "'auto' = min(usable cpus // local ranks, cell blocks) "
                 "(default: 'auto')",
        )

    def add_stats_arg(sp):
        sp.add_argument(
            "--stats", action="append", default=None, metavar="SPEC",
            help="statistic spec from the catalog (repeat or comma-"
                 "separate; 'none' disables; see `repro stats --list`); "
                 "default: the study's configured statistics",
        )

    p = sub.add_parser("quickstart", help="Ishigami study vs closed form")
    p.add_argument("--groups", type=int, default=2000)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--runtime", choices=runtime_choices, default="sequential",
                   help="execution driver (distributed = loopback processes)")
    add_kernel_arg(p)
    add_stats_arg(p)
    p.set_defaults(func=_cmd_quickstart)

    p = sub.add_parser("tube", help="tube-bundle use case with ASCII maps")
    p.add_argument("--nx", type=int, default=48)
    p.add_argument("--ny", type=int, default=24)
    p.add_argument("--timesteps", type=int, default=10)
    p.add_argument("--time", type=float, default=1.5)
    p.add_argument("--groups", type=int, default=30)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--server-ranks", type=int, default=4)
    p.add_argument("--runtime", choices=runtime_choices, default="sequential",
                   help="execution driver (distributed = loopback processes)")
    add_kernel_arg(p)
    add_stats_arg(p)
    p.set_defaults(func=_cmd_tube)

    p = sub.add_parser("campaign", help="Curie campaign performance model")
    p.add_argument("--server-nodes", type=int, default=32)
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser("stats", help="the streaming-statistics catalog")
    p.add_argument("--list", action="store_true", default=True,
                   help="list registered statistics (default action)")
    p.set_defaults(func=_cmd_stats)

    def add_log_args(sp):
        sp.add_argument(
            "--log-level", default="warning",
            choices=("debug", "info", "warning", "error"),
            help="structured-log verbosity for this process (default: warning)",
        )
        sp.add_argument(
            "--log-json", action="store_true",
            help="emit structured logs as one JSON object per line",
        )

    def add_fault_arg(sp, process):
        sp.add_argument(
            "--fault", type=_fault_arg, default=None, metavar="SPEC",
            help=f"inject a fault into this {process}: crash[:after=N] | "
                 "zombie[:after=N] | straggler:delay=S (after N messages; "
                 "S seconds per message)",
        )

    def add_study_args(sp):
        sp.add_argument(
            "--study", default="quickstart",
            help="study spec: quickstart | vector | tube | module:callable "
                 "(must be identical on launch, serve, and work)",
        )
        sp.add_argument("--groups", type=int, default=100)
        sp.add_argument("--seed", type=int, default=42)
        sp.add_argument("--timesteps", type=int, default=1)
        sp.add_argument("--cells", type=int, default=32,
                        help="cell count for the 'vector' study spec")
        sp.add_argument("--server-ranks", type=int, default=1)
        sp.add_argument("--checkpoint-interval", type=float, default=None,
                        help="seconds between rank checkpoints (default: "
                             "the study config's 600s)")
        sp.add_argument("--transport", choices=("auto", "tcp", "shm"),
                        default=None,
                        help="data-plane fabric: auto negotiates a "
                             "shared-memory ring per channel when worker "
                             "and rank share a host, falling back to TCP; "
                             "tcp/shm pin the fabric (per-process knob, "
                             "not fingerprinted)")
        add_kernel_arg(sp)
        add_stats_arg(sp)

    p = sub.add_parser(
        "serve", help="one Melissa Server rank (distributed deployment)"
    )
    add_study_args(p)
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--coordinator", required=True, metavar="HOST:PORT")
    p.add_argument("--data-host", default="127.0.0.1",
                   help="interface for this rank's data listener")
    p.add_argument("--data-port", type=int, default=0,
                   help="data port (0 = ephemeral, sent to the coordinator)")
    p.add_argument("--checkpoint-dir", default=None)
    add_fault_arg(p, "rank")
    add_log_args(p)
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("work", help="one group worker (distributed deployment)")
    add_study_args(p)
    p.add_argument("--coordinator", required=True, metavar="HOST:PORT")
    p.add_argument("--name", default="", help="worker name for logs/liveness")
    add_fault_arg(p, "worker")
    add_log_args(p)
    p.set_defaults(func=_cmd_work)

    p = sub.add_parser(
        "launch",
        help="coordinator: rank table + work queue + results assembly",
    )
    add_study_args(p)
    p.add_argument("--bind", default="127.0.0.1:0", metavar="HOST:PORT")
    p.add_argument("--timeout", type=float, default=600.0)
    p.add_argument("--local-workers", type=int, default=0,
                   help="fork the server ranks + N workers on this host "
                        "(0: serve/work processes dial in)")
    p.add_argument("--checkpoint-dir", default=None)
    p.add_argument("--address-file", default=None, metavar="PATH",
                   help="write the bound coordinator address here so "
                        "serve/work can use --coordinator @PATH (enables "
                        "--bind HOST:0)")
    p.add_argument("--respawn-serve", action="store_true",
                   help="supervise server ranks: kill a dead or silent "
                        "serve and fork its replacement on this host from "
                        "its checkpoint (Sec. 4.2.3); on with --local-workers")
    p.add_argument("--respawn-data-host", default=None, metavar="HOST",
                   help="interface the ranks this launch forks bind their "
                        "data listener on (default: the --bind host, so "
                        "remote workers can still reach them)")
    p.add_argument("--schedule", default=None, metavar="SPEC",
                   help="full scheduling spec, ';'-separated clauses "
                        "(e.g. 'speculate:multiple=2.5;elastic:high=6')")
    p.add_argument("--speculate", nargs="?", const="", default=None,
                   metavar="PARAMS",
                   help="speculatively re-run straggler groups (optional "
                        "clause params, e.g. 'multiple=2.5,min_done=2'); "
                        "first completion wins, duplicates discard exactly")
    p.add_argument("--elastic", nargs="?", const="", default=None,
                   metavar="PARAMS",
                   help="elastic pool resize: spawn extra workers while "
                        "queue depth exceeds the high-water mark, retire "
                        "them below the low-water mark (optional params, "
                        "e.g. 'high=6,low=1,max=4,budget=8')")
    p.add_argument("--trace", default=None, metavar="FILE",
                   help="write a Chrome trace-event JSON timeline of the "
                        "study here (open in Perfetto / chrome://tracing)")
    p.add_argument("--metrics-file", default=None, metavar="FILE",
                   help="append live dashboard frames (JSONL) here; "
                        "`repro top FILE` tails it")
    p.add_argument("--metrics-interval", type=float, default=1.0,
                   help="seconds between --metrics-file frames (default 1.0)")
    p.add_argument("--metrics-port", type=int, default=None, metavar="PORT",
                   help="serve /metrics (Prometheus text) and /metrics.json "
                        "on this port (0 = ephemeral, printed at startup)")
    add_log_args(p)
    p.set_defaults(func=_cmd_launch)

    p = sub.add_parser(
        "top", help="live study dashboard from a metrics endpoint or file"
    )
    p.add_argument("source",
                   help="HOST:PORT or http://... of a --metrics-port "
                        "endpoint, or the path of a --metrics-file JSONL")
    p.add_argument("--interval", type=float, default=1.0,
                   help="refresh period in seconds (default 1.0)")
    p.add_argument("--once", action="store_true",
                   help="render a single frame and exit (no screen control)")
    p.set_defaults(func=_cmd_top)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
