"""Cross-substrate property tests (hypothesis).

The big one: the server's staged integration is invariant to *how* a
group's data is sliced and interleaved — any partition of the cells into
messages, delivered in any order, across any member grouping, yields
statistics identical to whole-field delivery.  This is the property that
makes the asynchronous N x M transport correct by construction.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MelissaServer, StudyConfig
from repro.core.results import StudyResults
from repro.sampling import ParameterSpace, Uniform
from repro.scheduler import BatchScheduler, Job, JobState, SchedulerError
from repro.transport.message import FieldMessage, GroupFieldMessage


def make_config(ncells, ntimesteps=1, nparams=2, server_ranks=1):
    space = ParameterSpace(
        names=tuple(f"x{i}" for i in range(nparams)),
        distributions=tuple(Uniform(0, 1) for _ in range(nparams)),
    )
    return StudyConfig(
        space=space, ngroups=4, ntimesteps=ntimesteps, ncells=ncells,
        server_ranks=server_ranks, client_ranks=1,
    )


@settings(max_examples=40, deadline=None)
@given(
    ncells=st.integers(min_value=2, max_value=24),
    ngroups=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=10_000),
    data=st.data(),
)
def test_property_slicing_invariance(ncells, ngroups, seed, data):
    """Random cell partitions + random delivery order == whole delivery."""
    config = make_config(ncells)
    rng = np.random.default_rng(seed)
    fields = rng.normal(size=(ngroups, config.group_size, ncells))

    whole = MelissaServer(config)
    for g in range(ngroups):
        whole.ranks[0].handle(
            GroupFieldMessage(g, 0, 0, ncells, fields[g]), 1.0
        )

    sliced = MelissaServer(config)
    messages = []
    for g in range(ngroups):
        # random fenceposts partitioning [0, ncells)
        ncuts = data.draw(st.integers(min_value=0, max_value=min(4, ncells - 1)))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=1, max_value=ncells - 1),
                    min_size=ncuts, max_size=ncuts, unique=True,
                )
            )
        )
        bounds = [0] + cuts + [ncells]
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            # randomly choose aggregated vs per-member framing
            if data.draw(st.booleans()):
                messages.append(
                    GroupFieldMessage(g, 0, lo, hi, fields[g][:, lo:hi])
                )
            else:
                for member in range(config.group_size):
                    messages.append(
                        FieldMessage(g, member, 0, lo, hi,
                                     fields[g][member, lo:hi])
                    )
    order = rng.permutation(len(messages))
    for idx in order:
        sliced.ranks[0].handle(messages[idx], 1.0)

    assert sliced.ranks[0].staged_entries == 0  # everything completed
    got, want = StudyResults.from_server(sliced), StudyResults.from_server(whole)
    np.testing.assert_allclose(
        got.first_order, want.first_order, rtol=1e-9, atol=1e-12, equal_nan=True,
    )
    np.testing.assert_allclose(
        got.variance, want.variance, rtol=1e-9, equal_nan=True,
    )


@settings(max_examples=40, deadline=None)
@given(
    server_ranks=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_rank_count_invariance(server_ranks, seed):
    """Statistics are independent of the server partitioning."""
    ncells = 12
    config_n = make_config(ncells, server_ranks=server_ranks)
    config_1 = make_config(ncells, server_ranks=1)
    rng = np.random.default_rng(seed)
    fields = rng.normal(size=(5, config_1.group_size, ncells))

    multi = MelissaServer(config_n)
    single = MelissaServer(config_1)
    for g in range(5):
        single.ranks[0].handle(GroupFieldMessage(g, 0, 0, ncells, fields[g]), 1.0)
        for rank in multi.ranks:
            multi.ranks[rank.rank].handle(
                GroupFieldMessage(
                    g, 0, rank.cell_lo, rank.cell_hi,
                    fields[g][:, rank.cell_lo:rank.cell_hi],
                ),
                1.0,
            )
    np.testing.assert_allclose(
        StudyResults.from_server(multi).first_order,
        StudyResults.from_server(single).first_order,
        rtol=1e-12, equal_nan=True,
    )


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_property_scheduler_accounting(data):
    """Any legal op sequence keeps node accounting consistent."""
    total_nodes = data.draw(st.integers(min_value=4, max_value=32))
    sched = BatchScheduler(total_nodes=total_nodes)
    ops = data.draw(st.lists(
        st.tuples(
            st.sampled_from(["submit", "tick", "complete", "fail", "cancel"]),
            st.integers(min_value=1, max_value=8),
        ),
        min_size=1, max_size=40,
    ))
    now = 0.0
    for op, arg in ops:
        now += 1.0
        if op == "submit":
            nodes = min(arg, total_nodes)
            sched.submit(Job(nodes=nodes, walltime=1e9), now)
        elif op == "tick":
            sched.tick(now)
        else:
            running = sched.running_jobs
            if running:
                target = running[arg % len(running)]
                getattr(sched, op)(target.job_id, now)
        # invariants
        assert 0 <= sched.nodes_in_use <= total_nodes
        assert sched.nodes_in_use == sum(j.nodes for j in sched.running_jobs)
        for job in sched.running_jobs:
            assert job.state == JobState.RUNNING


@settings(max_examples=60, deadline=None)
@given(
    group=st.integers(min_value=0, max_value=2**40),
    member=st.integers(min_value=0, max_value=100),
    step=st.integers(min_value=0, max_value=2**30),
    lo=st.integers(min_value=0, max_value=10_000),
    width=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_message_roundtrip(group, member, step, lo, width, seed):
    """Wire framing is lossless for any header values and payload."""
    data = np.random.default_rng(seed).normal(size=width)
    msg = FieldMessage(group, member, step, lo, lo + width, data)
    back = FieldMessage.from_bytes(msg.to_bytes())
    assert (back.group_id, back.member, back.timestep) == (group, member, step)
    np.testing.assert_array_equal(back.data, data)

    gmsg = GroupFieldMessage(group, step, lo, lo + width,
                             np.vstack([data, data * 2]))
    gback = GroupFieldMessage.from_bytes(gmsg.to_bytes())
    assert gback.nmembers == 2
    np.testing.assert_array_equal(gback.data, gmsg.data)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_property_channel_fifo_and_accounting(data):
    """Random send/recv interleavings preserve FIFO order and byte sums."""
    from repro.transport.channel import BoundedChannel

    ch = BoundedChannel()  # unbounded: focus on ordering/accounting
    sent, received = [], []
    counter = 0
    ops = data.draw(st.lists(st.sampled_from(["send", "recv"]),
                             min_size=1, max_size=60))
    for op in ops:
        if op == "send":
            msg = FieldMessage(0, 0, counter, 0, 2, np.zeros(2))
            counter += 1
            ch.try_send(msg)
            sent.append(msg.timestep)
        else:
            received.extend(m.timestep for m in ch.drain())
    received.extend(m.timestep for m in ch.drain())
    assert received == sent  # FIFO, nothing lost
    assert ch.stats.messages_sent == ch.stats.messages_received
    assert ch.stats.bytes_sent == ch.stats.bytes_received
    assert ch.pending_bytes == 0
