"""The five reference workloads and their correctness references.

Each workload is one closed-loop study run to completion through the
public API (``SensitivityStudy(...).run(runtime=..., ...)``,
``StudyConfig``, ``FaultPlan``).  Shapes are fixed; only ``ngroups`` is
rescaled (``--scale``) so a repeat lasts about three seconds on a
2-vCPU box.  The ``why`` strings say which layers a workload loads and
which it bypasses — they are what ``BENCHMARK.json`` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

#: pinned with the kernel backend: the program is measured, not the autotuner
FOLD_THREADS = 1

#: cells whose member outputs the factory wrapper records for the
#: two-pass reference estimate (evenly spaced over the mesh)
NPROBES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    runtime: str  # "sequential" | "distributed"
    model: str  # "gfunction" (benchmark-side ramp member) | "tube" (the CFD solver)
    ngroups: int
    mesh: Tuple[int, ...]  # (ncells,) for the ramp member, (nx, ny) for the tube
    ntimesteps: int
    server_ranks: int
    client_ranks: int = 2
    transport: Optional[str] = None
    channel_capacity_bytes: Optional[int] = None
    #: virtual seconds between checkpoints / ServerCrash times, at full scale
    checkpoint_interval: Optional[float] = None
    crashes: Tuple[float, ...] = ()
    #: "twopass" = NumPy two-pass Martinez estimate on the probe cells;
    #: "sequential" = an uninjected sequential run of the same config
    reference: str = "twopass"

    nparams: int = 6  # GFunction and the tube case alike; build() checks it

    @property
    def ncells(self) -> int:
        return math.prod(self.mesh)

    @property
    def group_size(self) -> int:
        return self.nparams + 2  # pick-freeze: A, B and one C_k per parameter

    @property
    def restore_calls(self) -> int:
        # per crash the launcher reads the checkpoint for the finished
        # groups and the restarted server job loads it again
        return len(self.crashes) * 2 * self.server_ranks

    def groups_at(self, scale: float) -> int:
        # two groups is the least a correlation estimate is defined on
        return max(2, round(self.ngroups * scale))

    def timeline_at(self, scale: float) -> float:
        """Length of the scaled study's virtual timeline relative to the
        full-size one.  The sequential runtime runs 15 groups at a time
        (62 free nodes / 4 per group), so a study lasts one 10-virtual-s
        wave per 15 groups; checkpoint cadence and crash times are tied
        to that timeline and shrink with it."""
        waves = lambda n: -(-n // 15)  # noqa: E731
        return waves(self.groups_at(scale)) / waves(self.ngroups)


WORKLOADS = (
    Workload(
        name="server_bound_seq",
        why="sequential, 20k cells x 10 steps, cheap member: stage+fold+stats "
            "dominate; the quietest signal for server/sobol/kernels/stats/"
            "transport changes",
        runtime="sequential", model="gfunction", ngroups=180,
        mesh=(20000,), ntimesteps=10, server_ranks=2,
    ),
    Workload(
        name="sim_bound_tube",
        why="sequential, the paper's tube-bundle CFD case: solver is ~95% of "
            "wall; the control on which every server/fabric change must "
            "predict no move",
        runtime="sequential", model="tube", ngroups=12,
        mesh=(64, 32), ntimesteps=15, server_ranks=2,
    ),
    Workload(
        name="fabric_tcp",
        why="loopback rank+worker over TCP framing with 1 MiB dual-HWM "
            "channels: per-frame split/encode/send/pump/stage cost, worker "
            "side is the bottleneck stage",
        runtime="distributed", model="gfunction", ngroups=1200,
        mesh=(2048,), ntimesteps=4, server_ranks=1,
        transport="tcp", channel_capacity_bytes=1 << 20,
        reference="sequential",
    ),
    Workload(
        name="fabric_shm",
        why="the identical study over the shared-memory ring: shared code "
            "(encode, split, staging) must not buy one fabric at the "
            "other's cost; net.shm counters live only here",
        runtime="distributed", model="gfunction", ngroups=1200,
        mesh=(2048,), ntimesteps=4, server_ranks=1,
        transport="shm", channel_capacity_bytes=1 << 20,
        reference="sequential",
    ),
    Workload(
        name="ckpt_recovery_seq",
        why="server_bound_seq shape with 10-virtual-s checkpoints and two "
            "virtual-time server crashes: save_rank beside restore_rank of "
            "the same state, and the RSS canary for pickled state",
        runtime="sequential", model="gfunction", ngroups=150,
        mesh=(20000,), ntimesteps=10, server_ranks=2,
        checkpoint_interval=10.0, crashes=(40.0, 90.0),
        reference="sequential",
    ),
)

BY_NAME = {w.name: w for w in WORKLOADS}


# --------------------------------------------------------------------- #
# benchmark-side member simulation
# --------------------------------------------------------------------- #
class RampSimulation:
    """A scalar model value spread over ``ncells`` by a cached ramp:
    ``value * (1 + ramp) + 0.05 * step * ramp``.

    Same field as ``repro.core.group.VectorFieldSimulation`` but the ramp
    is built once per process, so the member costs two vector ops per
    step and the study's wall-clock belongs to the server path.
    """

    def __init__(self, value: float, base: np.ndarray, drift: np.ndarray,
                 ntimesteps: int, simulation_id: int):
        self.ntimesteps = ntimesteps
        self.simulation_id = simulation_id
        self._value = value
        self._base = base
        self._drift = drift
        self._next = 0

    @property
    def ncells(self) -> int:
        return self._base.shape[0]

    @property
    def finished(self) -> bool:
        return self._next >= self.ntimesteps

    def advance(self):
        step = self._next
        self._next = step + 1
        return step, self._value * self._base + step * self._drift


class _Probed:
    """Member wrapper recording the probe cells of every output field."""

    def __init__(self, sim, sink: np.ndarray, cells: np.ndarray):
        self._sim = sim
        self._sink = sink  # (group_size slot) -> (ntimesteps, NPROBES)
        self._cells = cells
        self.ntimesteps = sim.ntimesteps

    @property
    def ncells(self) -> int:
        return self._sim.ncells

    @property
    def finished(self) -> bool:
        return self._sim.finished

    def advance(self):
        step, field = self._sim.advance()
        self._sink[step] = field[self._cells]
        return step, field


@dataclass
class Built:
    """One workload instantiated for one (seed, scale)."""

    workload: Workload
    ngroups: int
    study: object
    run_kwargs: dict
    #: (ngroups, group_size, ntimesteps, NPROBES) recorded member outputs
    probes: Optional[np.ndarray]
    probe_cells: np.ndarray


def build(
    workload: Workload,
    seed: int,
    scale: float,
    kernel: str,
    on_dispatch: Callable[[], None],
    checkpoint_dir=None,
    as_reference: bool = False,
) -> Built:
    """Instantiate ``workload`` through the public API.

    ``on_dispatch`` is called at every member-simulation construction
    (the benchmark-side factory is where the timed window opens).
    ``as_reference`` strips fault plan, checkpoints and fabric: the
    uninjected sequential run of the same config and seed.
    """
    from repro import SensitivityStudy, StudyConfig
    from repro.faults import FaultPlan, ServerCrash

    w = workload
    ngroups = w.groups_at(scale)
    timeline = w.timeline_at(scale)
    cells = np.linspace(0, w.ncells - 1, NPROBES).astype(np.intp)
    record = w.reference == "twopass" and not as_reference
    probes = (
        np.full((ngroups, w.group_size, w.ntimesteps, NPROBES), np.nan)
        if record else None
    )
    policy = dict(kernel=kernel, fold_threads=FOLD_THREADS)

    if w.model == "tube":
        from repro.solver import TubeBundleCase

        nx, ny = w.mesh
        case = TubeBundleCase(nx=nx, ny=ny, ntimesteps=w.ntimesteps, total_time=1.6)
        study = SensitivityStudy.for_tube_bundle(
            case, ngroups=ngroups, seed=seed, server_ranks=w.server_ranks,
            client_ranks=w.client_ranks, **policy,
        )
        make_member = study.factory
    else:
        from repro.sobol import GFunction

        fn = GFunction()
        if w.checkpoint_interval is not None and not as_reference:
            policy["checkpoint_interval"] = w.checkpoint_interval * timeline
        config = StudyConfig(
            space=fn.space(), ngroups=ngroups, ntimesteps=w.ntimesteps,
            ncells=w.ncells, seed=seed, server_ranks=w.server_ranks,
            client_ranks=w.client_ranks,
            channel_capacity_bytes=w.channel_capacity_bytes, **policy,
        )
        ramp = np.linspace(0.0, 1.0, w.ncells)
        base, drift = 1.0 + ramp, 0.05 * ramp

        def make_member(params, sim_id):
            return RampSimulation(
                float(fn(params)[0]), base, drift, w.ntimesteps, sim_id
            )

        study = SensitivityStudy(config, make_member)

    def factory(params, sim_id):
        on_dispatch()
        sim = make_member(params, sim_id)
        if probes is not None:
            group, member = divmod(sim_id, w.group_size)
            sim = _Probed(sim, probes[group, member], cells)
        return sim

    assert study.config.space.nparams == w.nparams, "closed forms assume this"
    study.factory = factory

    run_kwargs: dict = {"runtime": "sequential"}
    if not as_reference:
        if w.runtime == "distributed":
            run_kwargs = {
                "runtime": "distributed", "nworkers": 1,
                "transport": w.transport, "timeout": 50.0,
            }
        if w.crashes:
            run_kwargs["fault_plan"] = FaultPlan(
                server_crashes=[ServerCrash(at_time=t * timeline) for t in w.crashes]
            )
            run_kwargs["checkpoint_dir"] = checkpoint_dir
    return Built(w, ngroups, study, run_kwargs, probes, cells)


# --------------------------------------------------------------------- #
# correctness references
# --------------------------------------------------------------------- #
MAPS = ("first_order", "total_order", "variance", "mean")


def twopass_maps(probes: np.ndarray) -> dict:
    """Two-pass Martinez estimate (paper Eq. 5-6) on the recorded probe
    cells: ``S_k = corr(Y^B, Y^Ck)``, ``ST_k = 1 - corr(Y^A, Y^Ck)``,
    unbiased ``Var(Y^A)`` and ``mean(Y^A)``.  ``probes`` is
    ``(ngroups, p + 2, ntimesteps, ncells)``; maps come back in results
    layout ``(p, T, ncells)`` / ``(T, ncells)``.
    """
    n = probes.shape[0]
    centered = probes - probes.mean(axis=0)
    a, b, c = centered[:, 0], centered[:, 1], centered[:, 2:]
    ss_a, ss_b = (a * a).sum(axis=0), (b * b).sum(axis=0)
    ss_c = (c * c).sum(axis=0)  # (p, T, cells)
    with np.errstate(divide="ignore", invalid="ignore"):
        first = (b[:, None] * c).sum(axis=0) / np.sqrt(ss_b * ss_c)
        total = 1.0 - (a[:, None] * c).sum(axis=0) / np.sqrt(ss_a * ss_c)
    return {
        "first_order": first,
        "total_order": total,
        "variance": ss_a / (n - 1),
        "mean": probes[:, 0].mean(axis=0),
    }


def compare_maps(results, reference: dict, cells=None) -> float:
    """Largest relative deviation of ``results`` from ``reference`` over
    the four maps; ``inf`` when shapes or NaN patterns differ.  A cell
    without variance has NaN indices on both sides (paper Sec. 5.5).
    Entries below a millionth of their map's largest magnitude are
    measured against that floor, not against themselves."""
    worst = 0.0
    for name in MAPS:
        got = getattr(results, name)
        if cells is not None:
            got = got[..., cells]
        ref = reference[name]
        if got.shape != ref.shape or (np.isnan(got) != np.isnan(ref)).any():
            return float("inf")
        ok = ~np.isnan(ref)
        if not ok.any():
            continue
        magnitude = np.abs(ref[ok])
        floor = max(1e-6 * float(magnitude.max()), np.finfo(float).tiny)
        dev = np.abs(got[ok] - ref[ok]) / np.maximum(magnitude, floor)
        worst = max(worst, float(dev.max()))
    return worst
