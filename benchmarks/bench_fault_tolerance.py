"""T3: fault-tolerance costs and correctness (paper Sec. 5.4).

Paper numbers: group timeout 300 s; checkpoint 2.75 s/process (959 MB to
Lustre), restart read 7.24 s/process; ~0.5% server overhead at a 600 s
checkpoint period; restarted groups' replayed iterations are discarded.

Here we (a) check the model reproduces those numbers from the paper's own
bandwidths, (b) measure *real* checkpoint/restore round-trips of a loaded
server at laptop scale, and (c) measure that a faulted study costs only
the recomputed iterations — statistics stay exact (asserted throughout
the test suite; timed here).
"""

import numpy as np
import pytest

from repro.core import MelissaServer, StudyConfig
from repro.core.checkpoint import CheckpointManager
from repro.core.results import StudyResults
from repro.perfmodel import paper_campaign
from repro.report import comparison_table
from repro.sampling import ParameterSpace, Uniform
from repro.transport.message import GroupFieldMessage


def loaded_server(ncells=60_000, ntimesteps=4, ngroups=12, server_ranks=2):
    space = ParameterSpace(
        names=tuple(f"x{i}" for i in range(3)),
        distributions=tuple(Uniform(0, 1) for _ in range(3)),
    )
    config = StudyConfig(
        space=space, ngroups=ngroups, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, client_ranks=1,
    )
    server = MelissaServer(config)
    rng = np.random.default_rng(0)
    for g in range(ngroups):
        for t in range(ntimesteps):
            for rank in server.ranks:
                data = rng.normal(size=(config.group_size,
                                        rank.cell_hi - rank.cell_lo))
                rank.handle(
                    GroupFieldMessage(g, t, rank.cell_lo, rank.cell_hi, data),
                    float(t),
                )
    return config, server


def test_model_checkpoint_times_match_paper(benchmark, results_dir):
    params = benchmark.pedantic(lambda: paper_campaign(32), rounds=1, iterations=1)
    overhead = params.checkpoint_seconds_per_process / params.checkpoint_period_seconds
    entries = [
        ("checkpoint s/proc", 2.75, params.checkpoint_seconds_per_process),
        ("restart read s/proc", 7.24, params.restart_read_seconds_per_process),
        ("overhead @600s period (%)", 0.5, 100 * overhead),
    ]
    (results_dir / "table_fault_tolerance.txt").write_text(
        comparison_table(entries, title="T3: fault-tolerance costs") + "\n"
    )
    assert params.checkpoint_seconds_per_process == pytest.approx(2.75, rel=0.05)
    assert params.restart_read_seconds_per_process == pytest.approx(7.24, rel=0.05)
    assert 100 * overhead == pytest.approx(0.46, abs=0.15)  # paper: ~0.5%


def test_real_checkpoint_write(benchmark, tmp_path):
    """Wall time of a real per-rank checkpoint of a loaded server."""
    config, server = loaded_server()
    manager = CheckpointManager(tmp_path)
    benchmark(lambda: manager.save(server))
    assert manager.bytes_on_disk() > 1e6  # a real multi-MB state


def test_real_checkpoint_restore(benchmark, tmp_path):
    config, server = loaded_server()
    manager = CheckpointManager(tmp_path)
    manager.save(server)
    restored = benchmark(lambda: manager.restore(config))
    np.testing.assert_array_equal(
        StudyResults.from_server(restored).first_order,
        StudyResults.from_server(server).first_order,
    )


def test_timeout_scan_cost(benchmark):
    """The per-period liveness scan must be cheap even with many groups."""
    config, server = loaded_server(ncells=1000, ngroups=500, ntimesteps=2)
    stale = benchmark(lambda: server.check_timeouts(now=1e6, timeout=300.0))
    assert stale == []  # all groups finished -> none stale


def test_discard_on_replay_throughput(benchmark):
    """Replayed messages must be rejected at negligible cost (the server
    sees every resent timestep of every restarted group)."""
    config, server = loaded_server(ncells=20_000, ngroups=6, ntimesteps=3)
    rank = server.ranks[0]
    width = rank.cell_hi - rank.cell_lo
    replay = GroupFieldMessage(
        0, 0, rank.cell_lo, rank.cell_hi,
        np.zeros((config.group_size, width)),
    )
    discarded_before = rank.messages_discarded

    def replay_storm():
        for _ in range(100):
            rank.handle(replay, 999.0)

    benchmark(replay_storm)
    assert rank.messages_discarded > discarded_before
    # statistics untouched by the storm
    assert rank.sobol.state_dict()["counts"][0] == 6
