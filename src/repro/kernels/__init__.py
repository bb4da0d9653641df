"""Pluggable compiled co-moment kernels for the batched Sobol' fold.

The fold hot path of :class:`~repro.sobol.martinez.UbiquitousSobolField`
is one contraction shape — batch residual co-moments per cell — with
several profitable implementations.  This package makes the backend a
runtime choice:

========  ==========================================================
backend   what it is
========  ==========================================================
einsum    PR 1 baseline: NumPy einsum contractions (always available)
blas      GEMM/syrk-shaped stacked ``np.matmul`` over cell-major
          residuals (by name only: never what ``auto`` picks)
cext      fused cell-tiled C kernel, compiled on demand with the
          system compiler (no pip dependency; unavailable without a
          C compiler)
auto      the default: cext where it builds, else einsum, decided
          once when the field is constructed
========  ==========================================================

``auto`` is a rule, not a measurement: no fold ever times itself, so two
processes on one host always run the same backend and a restored state
continues under the backend that wrote it.  ``blas`` is selectable by
name only (at p = 6 it measured 3x slower than einsum on the 2-vCPU
reference box).  ``StudyConfig.kernel`` / ``--kernel`` name a backend
explicitly; requesting cext on a host that cannot build it falls back
to the einsum baseline with a warning — studies never fail because a
host lacks a toolchain.  Every backend computes the same
mathematically exact formulas; the equivalence suite pins them all to
the scalar reference at rtol 1e-10.

Multicore folds: every backend here releases the GIL during its compute
loops — the cext pipeline through ``ctypes.CDLL`` (which drops the GIL
around every foreign call by construction), einsum/BLAS through NumPy's
buffer-threshold GIL release — so the :mod:`repro.kernels.parallel`
layer can shard one fold across cell blocks onto a thread pool and
actually run them concurrently.  Kernel
instances own reusable scratch and are NOT thread-safe; the parallel
layer builds one instance per worker thread.

The compiled library also serves the tube solver:
:func:`repro.kernels.cext.stencil_library` builds ``_stencil.c``, the
solver's substep loop, through the same cache and flag tiers, and
:mod:`repro.solver.advect` steps its NumPy loop where that returns None.
"""

from __future__ import annotations

import warnings
from typing import List, Optional

from repro.kernels.base import CoMomentKernel
from repro.kernels.blas import BlasKernel
from repro.kernels.einsum import EinsumKernel

#: selectable names (auto resolves to one of the others)
KERNEL_NAMES = ("auto", "einsum", "blas", "cext")

#: what ``auto`` means: the first of these the host can run
_AUTO_ORDER = ("cext", "einsum")


def _construct(name: str, nparams: int, batch_size: int, block_cells: int):
    if name == "einsum":
        return EinsumKernel(nparams, batch_size, block_cells)
    if name == "blas":
        return BlasKernel(nparams, batch_size, block_cells)
    if name == "cext":
        from repro.kernels.cext import CExtKernel

        return CExtKernel(nparams, batch_size, block_cells)
    raise ValueError(f"unknown kernel backend {name!r}; choose from {KERNEL_NAMES}")


def _usable(name: str) -> bool:
    """Whether this host can run ``name`` (probing cext builds/loads it)."""
    from repro.kernels import cext

    return name != "cext" or cext.available()


def available_backends() -> List[str]:
    """Concrete backends usable on this host."""
    return [name for name in KERNEL_NAMES[1:] if _usable(name)]


def resolve_spec(spec: Optional[str]) -> str:
    """Canonical spelling of a backend spec (``None`` means ``"auto"``)."""
    spec = "auto" if spec is None else str(spec).lower()
    if spec not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel backend {spec!r}; choose from {KERNEL_NAMES}"
        )
    return spec


def resolve_backend(spec: Optional[str]) -> str:
    """The backend a field built with ``spec`` folds on, on this host:
    the named one when the host can run it, else the einsum baseline;
    ``auto`` is cext where it builds, else einsum.

    Call before forking ranks: probing cext compiles the shared library
    once here and every child inherits the loaded module / warm disk
    cache instead of racing into duplicate compiler runs on first fold.
    """
    name = resolve_spec(spec)
    ladder = _AUTO_ORDER if name == "auto" else (name, "einsum")
    return next(candidate for candidate in ladder if _usable(candidate))


def make_kernel(
    spec: Optional[str], nparams: int, batch_size: int, block_cells: int
) -> CoMomentKernel:
    """Build the kernel for a field, honoring the rule and the fallback."""
    name = resolve_spec(spec)
    if name == "auto":
        name = resolve_backend(name)
    try:
        return _construct(name, nparams, batch_size, block_cells)
    except RuntimeError as exc:
        # graceful fallback: optional backend missing on this host
        warnings.warn(
            f"kernel backend {name!r} unavailable ({exc}); "
            "falling back to 'einsum'",
            RuntimeWarning,
            stacklevel=2,
        )
        return EinsumKernel(nparams, batch_size, block_cells)


from repro.kernels import parallel  # noqa: E402  (needs _construct above)

__all__ = [
    "CoMomentKernel",
    "EinsumKernel",
    "BlasKernel",
    "KERNEL_NAMES",
    "available_backends",
    "make_kernel",
    "parallel",
    "resolve_backend",
    "resolve_spec",
]
