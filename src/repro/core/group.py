"""Simulation groups: p+2 synchronized ensemble members and their client API.

A :class:`SimulationGroup` is the *description* (which pick-freeze row,
which parameter vectors); a :class:`GroupExecutor` is the *running
instance*: it owns the p+2 member simulations, the Melissa 3-call client
API (Initialize / Process / Finalize, Sec. 4.1.3), the two-stage data
transfer (Sec. 4.1.2), and the back-pressure behaviour (a group whose
messages cannot be delivered because the server buffers are full is
*suspended* — it stops advancing until its outbox drains, the Fig. 6a/b
mechanism).

Fault injection hooks (crash at a timestep, zombie, straggler) implement
the failure modes of Sec. 4.2.2 for the fault-tolerance tests.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional, Protocol, Tuple

import numpy as np

from repro.core.config import StudyConfig
from repro.mesh.partition import BlockPartition
from repro.sampling.pickfreeze import PickFreezeDesign
from repro.transport.base import TransportClient
from repro.transport.message import FieldMessage, GroupFieldMessage
from repro.transport.router import redistribution_plan


class MemberSimulation(Protocol):
    """What a group member must look like (ScalarSimulation satisfies it)."""

    ntimesteps: int

    @property
    def ncells(self) -> int: ...

    @property
    def finished(self) -> bool: ...

    def advance(self) -> tuple: ...


#: factory(parameter_vector, simulation_id) -> MemberSimulation
SimulationFactory = Callable[[np.ndarray, int], MemberSimulation]


class FunctionSimulation:
    """Adapter running a plain function as a 1-cell, configurable-step member.

    Lets analytic models (Ishigami & co) flow through the full framework —
    the quickstart example and many integration tests use it.  With
    ``ntimesteps > 1`` the same scalar is re-emitted each step (a steady
    'field'), which is exactly what order-independence tests want.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], params: np.ndarray,
                 ntimesteps: int = 1, simulation_id: int = 0):
        self.ntimesteps = int(ntimesteps)
        self._value = float(np.asarray(fn(np.atleast_2d(params))).ravel()[0])
        self._next = 0
        self.simulation_id = simulation_id

    @property
    def ncells(self) -> int:
        return 1

    @property
    def finished(self) -> bool:
        return self._next >= self.ntimesteps

    def advance(self):
        if self.finished:
            raise RuntimeError("simulation already finished")
        step = self._next
        self._next += 1
        return step, np.array([self._value])

    def __iter__(self):
        while not self.finished:
            yield self.advance()


class VectorFieldSimulation(FunctionSimulation):
    """A scalar model spread over ``ncells`` cells via a deterministic
    ramp: ``f(x) * (1 + ramp) + 0.05 * step * ramp``.

    The cheap multi-cell member behind the CLI's ``--study vector`` spec
    and the multi-rank integration tests — enough spatial and temporal
    structure to exercise partitioning, splitting, and back-pressure
    without a CFD solver's cost.
    """

    def __init__(self, fn: Callable[[np.ndarray], float], params: np.ndarray,
                 ncells: int, ntimesteps: int = 1, simulation_id: int = 0):
        super().__init__(fn, params, ntimesteps=ntimesteps,
                         simulation_id=simulation_id)
        self._ncells = int(ncells)

    @property
    def ncells(self) -> int:
        return self._ncells

    def advance(self):
        step, field = super().advance()
        ramp = np.linspace(0.0, 1.0, self._ncells)
        return step, float(field[0]) * (1.0 + ramp) + 0.05 * step * ramp


@dataclass(frozen=True)
class SimulationGroup:
    """Static description of pick-freeze group i (the p+2 member runs)."""

    group_id: int
    member_parameters: np.ndarray  # (p+2, p)

    def __post_init__(self):
        params = np.asarray(self.member_parameters, dtype=np.float64)
        object.__setattr__(self, "member_parameters", params)
        if params.ndim != 2 or params.shape[0] != params.shape[1] + 2:
            raise ValueError("member_parameters must be (p+2, p)")
        if self.group_id < 0:
            raise ValueError("group_id must be non-negative")

    @property
    def nparams(self) -> int:
        return self.member_parameters.shape[1]

    @property
    def size(self) -> int:
        return self.member_parameters.shape[0]

    @classmethod
    def from_design(cls, design: PickFreezeDesign, group_id: int) -> "SimulationGroup":
        return cls(group_id=group_id, member_parameters=design.group_parameters(group_id))


class GroupState(enum.Enum):
    CREATED = "created"
    RUNNING = "running"
    BLOCKED = "blocked"  # suspended on full server buffers
    FINISHED = "finished"
    CRASHED = "crashed"


class GroupCrashed(RuntimeError):
    """Raised by a fault-injected member at its scheduled crash timestep."""


class GroupExecutor:
    """Running instance of one simulation group.

    Parameters
    ----------
    group:
        The pick-freeze row to run.
    factory:
        Builds one member simulation from (parameter vector, global sim id).
    config:
        Study configuration (client ranks, transfer mode...).
    router:
        The transport fabric to the server — any
        :class:`~repro.transport.base.TransportClient` (in-memory router
        or the socket router over tcp | shm).
    fail_at_timestep:
        Fault injection — every member "crashes" when the group reaches
        this timestep (the whole group is one failure unit, Sec. 4.2).
    zombie:
        Fault injection — the group runs but never sends anything
        (the "zombie group" of Sec. 4.2.2).
    straggler_factor:
        Fault injection — the group advances only every n-th step call.
    """

    def __init__(
        self,
        group: SimulationGroup,
        factory: SimulationFactory,
        config: StudyConfig,
        router: TransportClient,
        fail_at_timestep: Optional[int] = None,
        zombie: bool = False,
        straggler_factor: int = 1,
    ):
        if straggler_factor < 1:
            raise ValueError("straggler_factor must be >= 1")
        self.group = group
        self.config = config
        self.router = router
        self.fail_at_timestep = fail_at_timestep
        self.zombie = zombie
        self.straggler_factor = straggler_factor
        self._step_calls = 0
        self._advanced_steps = 0
        self.state = GroupState.CREATED
        self.members: List[MemberSimulation] = []
        self._factory = factory
        self._outbox: Deque = deque()
        self.client_partition = BlockPartition(config.ncells, config.client_ranks)
        # cell range [lo, hi) of every client rank x server rank intersection,
        # re-derived only when the router shows a different partition object
        self._plan: List[Tuple[int, int]] = []
        self._plan_partition: Optional[BlockPartition] = None
        self.timesteps_sent = 0
        self.messages_emitted = 0

    # ------------------------------------------------------------------ #
    # the Melissa 3-call API (Sec. 4.1.3)
    # ------------------------------------------------------------------ #
    def initialize(self) -> None:
        """Build the members; each must produce ``config.ncells`` cells."""
        if self.state != GroupState.CREATED:
            raise RuntimeError("initialize called twice")
        base_id = self.group.group_id * self.group.size
        self.members = [
            self._factory(self.group.member_parameters[m], base_id + m)
            for m in range(self.group.size)
        ]
        for m, sim in enumerate(self.members):
            if sim.ncells != self.config.ncells:
                raise ValueError(
                    f"member {m} produces {sim.ncells} cells, "
                    f"study configured {self.config.ncells}"
                )
        self.state = GroupState.RUNNING

    def process_step(self) -> GroupState:
        """Advance one synchronized timestep and push it to the server.

        Blocked semantics: if the previous step's messages are still
        undeliverable (full buffers), the group does NOT advance — it
        retries its outbox and stays suspended, extending its wall-clock
        footprint exactly as the paper's first experiment shows.
        """
        if self.state in (GroupState.FINISHED, GroupState.CRASHED):
            raise RuntimeError(f"group is {self.state.value}")
        if self.state == GroupState.CREATED:
            raise RuntimeError("initialize must be called first")
        # retry pending sends before doing any new work
        self._flush()
        if self._outbox:
            self.state = GroupState.BLOCKED
            return self.state
        if self.finished_computing:
            self.finalize()
            return self.state
        self._step_calls += 1
        if self._step_calls % self.straggler_factor != 0:
            self.state = GroupState.RUNNING  # computing slowly, not blocked
            return self.state
        timestep = self._advanced_steps
        if self.fail_at_timestep is not None and timestep >= self.fail_at_timestep:
            self.state = GroupState.CRASHED
            raise GroupCrashed(
                f"group {self.group.group_id} crashed at timestep {timestep}"
            )
        # one copy on the group side: every member's output lands directly
        # in the payload slab of each plan entry.  The transport hands the
        # slabs out: the owning rank's, recycled once folded, where it can
        # (transport.message).  A zombie computes but fills and sends
        # nothing: its plan is empty
        plan = [] if self.zombie else self._redistribution_plan()
        slabs = [self.router.payload(self.group.size, lo, hi) for lo, hi in plan]
        shape = (self.config.ncells,)
        step_ids = set()
        for m, sim in enumerate(self.members):
            step, field_values = sim.advance()
            step_ids.add(step)
            if np.shape(field_values) != shape:
                raise ValueError(
                    f"member {m} of group {self.group.group_id} returned a field "
                    f"of shape {np.shape(field_values)}, expected {shape}"
                )
            for slab, (lo, hi) in zip(slabs, plan):
                slab[m] = field_values[lo:hi]
        if len(step_ids) != 1:
            raise RuntimeError("group members desynchronized")
        self._advanced_steps += 1
        self._emit(step_ids.pop(), plan, slabs)
        self._flush()
        self.timesteps_sent += 1
        if self._outbox:
            self.state = GroupState.BLOCKED
        elif self.finished_computing:
            self.finalize()
        else:
            self.state = GroupState.RUNNING
        return self.state

    def finalize(self) -> None:
        """Finish the group once every message is delivered."""
        if self._outbox:
            raise RuntimeError("cannot finalize with undelivered messages")
        self.state = GroupState.FINISHED

    # ------------------------------------------------------------------ #
    @property
    def finished_computing(self) -> bool:
        return bool(self.members) and all(s.finished for s in self.members)

    # ------------------------------------------------------------------ #
    # two-stage transfer (Sec. 4.1.2)
    # ------------------------------------------------------------------ #
    def _redistribution_plan(self) -> List[Tuple[int, int]]:
        partition = self.router.server_partition
        if partition is not self._plan_partition:
            self._plan = [
                (lo, hi)
                for entries in redistribution_plan(self.client_partition, partition)
                for _, lo, hi in entries
            ]
            self._plan_partition = partition
        return self._plan

    def _emit(self, timestep: int, plan, slabs: List[np.ndarray]) -> None:
        """Enqueue one message per plan entry: stage 1 (every member's
        slice gathered per client rank) and stage 2 (the split along the
        server partition) already happened when the slabs were filled."""
        group_id = self.group.group_id
        for (lo, hi), slab in zip(plan, slabs):
            if self.config.two_stage_transfer:
                self._outbox.append(GroupFieldMessage(group_id, timestep, lo, hi, slab))
            else:
                # ablation: every member pushes its own slices (p+2 x messages)
                self._outbox.extend(
                    FieldMessage(group_id, member, timestep, lo, hi, row)
                    for member, row in enumerate(slab)
                )

    def _flush(self) -> None:
        """Deliver as much of the outbox as buffer space allows."""
        while self._outbox:
            if not self.router.deliver(self._outbox[0]):
                return
            self._outbox.popleft()
            self.messages_emitted += 1
