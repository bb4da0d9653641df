"""FIFO vs speculative scheduling tail-latency shootout (ISSUE 7).

One straggler worker (0.6 s injected per delivered message) joins a
3-worker loopback pool twice: once under plain FIFO assignment and once
with speculative re-execution enabled.  FIFO pays the straggler's full
tail — whatever groups it holds finish at its pace; with speculation the
coordinator re-issues overdue groups to idle fast workers and the first
completion wins, so the tail collapses to roughly the fast workers'
pace.  Emits machine-readable ``BENCH_scheduler.json`` plus a human
table, and asserts the mechanism (speculative copies fired, duplicates
discarded, every group integrated) rather than wall-clock ratios, which
are noisy on shared CI machines.
"""

import json
import time

import numpy as np

from repro.core import StudyConfig
from repro.core.group import VectorFieldSimulation
from repro.faults import FaultPlan, ProcessFault
from repro.report import format_table
from repro.runtime import DistributedRuntime
from repro.sobol import IshigamiFunction

NCELLS = 32
NGROUPS = 16
NTIMESTEPS = 2
NWORKERS = 3
STRAGGLER_DELAY = 0.6


class BenchSim(VectorFieldSimulation):
    def __init__(self, fn, params, ntimesteps=1, simulation_id=0):
        super().__init__(fn, params, NCELLS, ntimesteps=ntimesteps,
                         simulation_id=simulation_id)


def _run(scheduling):
    fn = IshigamiFunction()
    config = StudyConfig(
        space=fn.space(), ngroups=NGROUPS, ntimesteps=NTIMESTEPS,
        ncells=NCELLS, server_ranks=2, client_ranks=1, seed=17,
        heartbeat_interval=0.1, scheduling=scheduling,
    )

    def factory(params, sim_id):
        return BenchSim(fn, params, ntimesteps=NTIMESTEPS, simulation_id=sim_id)

    plan = FaultPlan(
        worker_faults={0: ProcessFault("straggler", delay=STRAGGLER_DELAY)}
    )
    runtime = DistributedRuntime(config, factory, nworkers=NWORKERS,
                                 fault_plan=plan)
    start = time.perf_counter()
    results = runtime.run(timeout=180.0)
    wall = time.perf_counter() - start
    return runtime, results, wall


def test_scheduler_shootout(results_dir):
    """Same straggler, two policies; BENCH_scheduler.json records both."""
    _, fifo_results, fifo_wall = _run(scheduling=None)
    runtime, spec_results, spec_wall = _run(
        scheduling="speculate:multiple=2,min_done=2"
    )
    coordinator = runtime.coordinator

    assert fifo_results.groups_integrated == NGROUPS
    assert spec_results.groups_integrated == NGROUPS
    assert coordinator.speculated, "speculation never fired"
    np.testing.assert_allclose(
        spec_results.first_order, fifo_results.first_order,
        rtol=1e-10, atol=1e-12,
    )

    rows = [
        {
            "policy": "fifo",
            "wall_s": round(fifo_wall, 3),
            "speculated_groups": 0,
            "speculation_wins": 0,
            "duplicates_discarded": 0,
        },
        {
            "policy": "speculate",
            "wall_s": round(spec_wall, 3),
            "speculated_groups": len(set(coordinator.speculated)),
            "speculation_wins": coordinator.speculation_wins,
            "duplicates_discarded": coordinator.duplicates_discarded,
        },
    ]
    payload = {
        "experiment": "scheduler_shootout",
        "ngroups": NGROUPS,
        "nworkers": NWORKERS,
        "straggler_delay_s": STRAGGLER_DELAY,
        "scheduling_spec": "speculate:multiple=2,min_done=2",
        "runs": rows,
        "speedup_vs_fifo": round(fifo_wall / spec_wall, 3),
    }
    (results_dir / "BENCH_scheduler.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )
    table = format_table(
        ["policy", "wall s", "speculated", "wins", "dups discarded"],
        [[r["policy"], r["wall_s"], r["speculated_groups"],
          r["speculation_wins"], r["duplicates_discarded"]] for r in rows],
        title=(f"straggler tail latency, {NGROUPS} groups / {NWORKERS} workers, "
               f"one worker +{STRAGGLER_DELAY}s per message"),
    )
    (results_dir / "table_scheduler.txt").write_text(table + "\n")
    print(table)
    print(f"speedup vs fifo: {payload['speedup_vs_fifo']}x")
