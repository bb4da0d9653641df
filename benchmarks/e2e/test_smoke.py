"""Smoke test of the reference benchmark (no timing assertions).

Every workload runs at 2 % of its size — reference/warm-up and one
traced repeat — and must emit every end-to-end and per-layer metric
``BENCHMARK.json`` names, with its unit, pass its correctness check, and
show the traced counts its shape dictates (including exact zeros for the
layers it bypasses).
"""

from concurrent.futures import ThreadPoolExecutor

import pytest

from . import run
from .workloads import WORKLOADS

SCALE = 0.02


@pytest.fixture(scope="module")
def results():
    # the five runs only wait on their child interpreters: overlap them
    with ThreadPoolExecutor(len(WORKLOADS)) as pool:
        futures = {
            w.name: pool.submit(
                run.measure, w.name, seed=1, seconds=0.0, trace=True,
                scale=SCALE, repeats=1,
            )
            for w in WORKLOADS
        }
        return {name: future.result() for name, future in futures.items()}


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_workload_emits_every_metric(workload, results):
    result = results[workload.name]
    bench = run.spec()
    assert result["failed"] == 0, result
    assert result["attempted"] == workload.groups_at(SCALE)
    assert result["closed_form_failures"] == []
    for section, trace in (("end_to_end", False), ("per_layer", True)):
        line = run.report(result, trace)
        assert line["correct"] and line["failed"] == 0
        assert {n: v["unit"] for n, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in bench[section]
        }
    layers = {n: g["value"] for n, g in result["per_layer"].items()}
    messages = (
        workload.groups_at(SCALE) * workload.ntimesteps * workload.client_ranks
    )
    if workload.crashes:
        assert layers["core.checkpoint.save_calls"] > 0
        assert layers["core.checkpoint.restore_calls"] == workload.restore_calls
        assert layers["core.checkpoint.bytes_on_disk"] > 0
        assert layers["core.server.handle_calls"] >= messages
    else:
        assert layers["core.server.handle_calls"] == messages
    if workload.runtime == "distributed":
        assert layers["net.framing.frames_decoded"] == messages
        assert layers["net.channel.bytes_sent"] > 0
        assert (layers["net.shm.write_calls"] == messages) == (
            workload.transport == "shm"
        )
    else:
        assert layers["net.framing.send_calls"] == 0
        assert layers["net.shm.write_calls"] == 0
