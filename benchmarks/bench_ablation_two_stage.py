"""V2 (ablation): the two-stage data transfer vs per-member sends.

Sec. 4.1.2 motivates gathering the p+2 members' data on the main
simulation before redistribution "to limit the number of messages sent
to Melissa Server".  This ablation runs the same study both ways and
measures the message-count ratio (p+2 = 8x for the 6-parameter case)
and the statistical identity of the results.
"""

import numpy as np
import pytest

from repro.core import StudyConfig
from repro.report import format_table
from repro.runtime import SequentialRuntime
from repro.solver import TubeBundleCase
from repro.transport import total_stats


@pytest.fixture(scope="module")
def case():
    return TubeBundleCase(nx=24, ny=12, ntimesteps=5, total_time=0.8)


def make_config(case, two_stage):
    return StudyConfig(
        space=case.parameter_space(),
        ngroups=6,
        ntimesteps=case.ntimesteps,
        ncells=case.ncells,
        seed=31,
        server_ranks=3,
        client_ranks=2,
        two_stage_transfer=two_stage,
    )


def run_mode(case, two_stage):
    config = make_config(case, two_stage)

    def factory(params, sim_id):
        return case.simulation(params, simulation_id=sim_id)

    runtime = SequentialRuntime(config, factory, steps_per_tick=5)
    results = runtime.run()
    stats = total_stats(runtime.router.inbound.values())
    return results, stats


def test_two_stage_reduces_messages(case, results_dir, benchmark):
    results_two, stats_two = benchmark.pedantic(
        lambda: run_mode(case, True), rounds=1, iterations=1
    )
    results_direct, stats_direct = run_mode(case, False)

    ratio = stats_direct["messages_sent"] / stats_two["messages_sent"]
    group_size = 8  # p + 2
    table = format_table(
        ["transfer mode", "messages", "bytes"],
        [
            ["two-stage (paper)", stats_two["messages_sent"],
             stats_two["bytes_sent"]],
            ["direct per-member", stats_direct["messages_sent"],
             stats_direct["bytes_sent"]],
        ],
        title=f"V2: two-stage ablation (message ratio {ratio:.1f}x, "
              f"expected {group_size}x)",
    )
    (results_dir / "table_two_stage_ablation.txt").write_text(table + "\n")

    # exactly p+2 times more messages without in-group aggregation
    assert ratio == pytest.approx(group_size, rel=1e-6)
    # payload bytes are identical up to per-message headers
    assert stats_direct["bytes_sent"] > stats_two["bytes_sent"]
    payload = (
        results_two.ncells * 8 * group_size
        * case.ntimesteps * 6  # groups
    )
    assert stats_two["bytes_sent"] >= payload

    # and the statistics do not depend on the transfer shape
    np.testing.assert_allclose(
        results_two.first_order, results_direct.first_order,
        rtol=1e-12, equal_nan=True,
    )


def test_direct_mode_processing_overhead(case, benchmark):
    """Server-side handling cost of the 8x message storm (per timestep)."""
    from repro.core import MelissaServer
    from repro.transport.message import FieldMessage

    config = make_config(case, False)
    server = MelissaServer(config)
    rank = server.ranks[0]
    width = rank.cell_hi - rank.cell_lo
    rng = np.random.default_rng(0)
    fields = rng.normal(size=(config.group_size, width))
    counter = {"step": 0}

    def storm():
        t = counter["step"]
        counter["step"] += 1
        if t >= config.ntimesteps:
            return
        for member in range(config.group_size):
            rank.handle(
                FieldMessage(0, member, t, rank.cell_lo, rank.cell_hi,
                             fields[member]),
                1.0,
            )

    benchmark.pedantic(storm, rounds=min(5, config.ntimesteps), iterations=1)
    assert rank.messages_processed > 0
