"""Study drivers.

The Melissa logic (:mod:`repro.core`) is pure bookkeeping over message
streams; a *runtime* supplies the execution model:

* :class:`SequentialRuntime` — deterministic virtual-time driver.  All
  components are stepped from one loop, faults are injected from a
  :class:`repro.faults.FaultPlan`, and any run is exactly reproducible.
  This is the workhorse for tests, examples, and the real (small-scale)
  end-to-end benchmarks.
* :class:`DistributedRuntime` — socket driver: server ranks and group
  workers are independent OS processes connected over TCP through
  :mod:`repro.net` (the paper's ZeroMQ deployment shape).  It forks
  the ranks and workers on this host, or (``nworkers=0``, what
  ``repro launch`` without ``--local-workers`` runs) lets ``repro
  serve`` / ``repro work`` processes on any machine dial in.  It is
  imported when first used, so a sequential study never loads the
  socket stack.
"""

from repro.runtime.sequential import SequentialRuntime


def __getattr__(name):
    if name == "DistributedRuntime":
        from repro.runtime.distributed import DistributedRuntime

        return DistributedRuntime
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = ["DistributedRuntime", "SequentialRuntime"]
