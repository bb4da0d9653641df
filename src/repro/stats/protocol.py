"""The ``FieldStatistic`` plugin protocol and statistics registry.

The paper's central systems claim (Sec. 3.1, 4.1) is that *any* statistic
expressible as a one-pass update with bounded, mergeable state can run in
transit.  This module turns that claim into an extension point: a
:class:`FieldStatistic` is an object with

* ``update(sample)``       — fold one field sample (O(field size), no
  dependence on how many samples came before);
* ``update_group(buffer)`` — fold one complete ``(p+2, *shape)`` group
  buffer (defaults to updating on the A and B members, the only two with
  independent inputs; group-aware statistics override it);
* ``merge(other)``         — absorb a disjoint partial stream *exactly*
  (the Chan/Pebay pairwise combine).  Mergeability is the fault-tolerance
  primitive: discard-on-replay, rank respawn, and cross-rank reduction all
  lean on it;
* ``state_dict()`` / ``from_state_dict()`` — plain-array snapshots for the
  per-rank checkpoint files (Sec. 4.2.3);
* ``finalize()`` / ``result_names`` — named result fields, each shaped
  ``(*extra_axes, *field_shape)`` with the field axes LAST so per-rank
  partitions concatenate on ``axis=-1`` during result assembly.

Statistics are selected by *spec strings* — ``"moments:order=4"``,
``"exceedance:thresholds=0.5+2.0"``, ``"quantiles:qs=0.05+0.95:lo=-10:hi=10"``
— parsed here and canonicalized (defaults filled, values normalized) so
that two processes configured with equivalent spellings agree on the
checkpoint/coordination fingerprint.  Custom plugins register with the
:func:`register` decorator or are addressed entry-point style as
``"my_pkg.my_module:MyStatistic"``.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, ClassVar, Dict, List, Mapping, Optional, Sequence, Tuple, Type

import numpy as np

__all__ = [
    "FieldStatistic",
    "StatContext",
    "register",
    "lookup",
    "available_statistics",
    "parse_spec",
    "format_spec",
    "canonicalize_spec",
    "canonicalize_specs",
]


# --------------------------------------------------------------------- #
# context
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class StatContext:
    """Everything a statistic may need to size its state.

    ``shape`` is the local field partition shape (one server rank's cell
    range), NOT the global mesh — statistics are built per rank and their
    results concatenated along the last axis.

    On a server rank ``ab_moments(timestep)`` returns ``(count, mean, m2)``
    of the A and B member streams the Sobol' engine already folds
    (``mean`` / ``m2`` shaped ``(2, *shape)``, ``count`` groups per
    stream); a statistic that is a function of those moments reads them
    instead of streaming the rows a second time.  ``timestep`` is the one
    this instance serves (the pipeline sets it per row).
    """

    shape: Tuple[int, ...]
    nparams: int
    parameter_names: Tuple[str, ...] = ()
    timestep: int = 0
    ab_moments: Optional[Callable[[int], Tuple[int, np.ndarray, np.ndarray]]] = None

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))
        names = tuple(self.parameter_names) or tuple(
            f"x{i + 1}" for i in range(self.nparams)
        )
        if len(names) != self.nparams:
            raise ValueError(
                f"{len(names)} parameter names for {self.nparams} parameters"
            )
        object.__setattr__(self, "parameter_names", names)

    @property
    def nmembers(self) -> int:
        """Group size: p + 2 (A, B, and one C^k per parameter)."""
        return self.nparams + 2


# --------------------------------------------------------------------- #
# protocol
# --------------------------------------------------------------------- #
class FieldStatistic:
    """Base class every pluggable in-transit statistic derives from.

    Class attributes
    ----------------
    name:
        Registry key and spec-string head (``"moments"``).
    description:
        One-liner for ``repro stats --list``.
    PARAMS:
        Ordered mapping of parameter name -> default value *string*;
        ``None`` marks a required parameter.  Spec canonicalization fills
        defaults from here and rejects unknown keys.
    kind:
        ``"member"`` statistics consume individual A/B member samples via
        ``update``; ``"group"`` statistics override ``update_group`` and
        consume whole ``(p+2, *shape)`` buffers.
    exact_merge:
        True when ``merge`` is algebraically exact (commutes and
        associates to floating-point error with any stream split).  Such
        statistics carry the full fault-tolerance guarantee: respawn,
        replay, and cross-runtime runs reproduce sequential results to
        rtol 1e-10.  Sketches whose merge is approximate set this False
        and are documented as best-effort under faults.
    streams:
        False on an instance that reads its numbers from ``ctx.ab_moments``
        and folds nothing: the pipeline then never calls its updates.
    """

    name: ClassVar[str] = ""
    description: ClassVar[str] = ""
    PARAMS: ClassVar[Dict[str, Optional[str]]] = {}
    kind: ClassVar[str] = "member"
    exact_merge: ClassVar[bool] = True
    streams: bool = True

    def __init__(self, ctx: StatContext, params: Optional[Mapping[str, str]] = None):
        self.ctx = ctx
        self.shape = ctx.shape
        self.params: Dict[str, str] = type(self).canonical_params(params or {})

    # -- streaming protocol ------------------------------------------- #
    def update(self, sample: np.ndarray) -> None:
        """Fold one field sample of ``self.shape`` into the running state."""
        raise NotImplementedError

    def update_group(self, buffer: np.ndarray) -> None:
        """Fold one complete ``(nmembers, *shape)`` group buffer.

        Default: general statistics see only the A and B members — the
        only two simulations per group whose inputs are independently
        sampled (Sec. 4.1); the pick-freeze C^k members would bias plain
        statistics.  Group-aware statistics (Sobol'-type) override this.
        """
        self.update(buffer[0])
        self.update(buffer[1])

    def merge(self, other: "FieldStatistic") -> None:
        """Absorb the partial state of ``other`` (disjoint sample set)."""
        raise NotImplementedError

    # -- checkpointing ------------------------------------------------- #
    def state_dict(self) -> dict:
        raise NotImplementedError

    def load_state(self, state: dict) -> None:
        raise NotImplementedError

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        ctx: StatContext,
        params: Optional[Mapping[str, str]] = None,
    ) -> "FieldStatistic":
        obj = cls(ctx, params)
        obj.load_state(state)
        return obj

    # -- results ------------------------------------------------------- #
    @property
    def result_names(self) -> Tuple[str, ...]:
        """Names of the fields :meth:`finalize` produces (data-independent)."""
        raise NotImplementedError

    def finalize(self) -> Dict[str, np.ndarray]:
        """Name -> array mapping; field axes are LAST on every array."""
        raise NotImplementedError

    # -- spec handling -------------------------------------------------- #
    @classmethod
    def canonical_params(cls, params: Mapping[str, str]) -> Dict[str, str]:
        """Fill defaults, validate, and normalize a raw parameter mapping."""
        unknown = sorted(set(params) - set(cls.PARAMS))
        if unknown:
            raise ValueError(
                f"statistic '{cls.name}' does not accept parameter(s) "
                f"{', '.join(unknown)} (valid: {', '.join(cls.PARAMS) or 'none'})"
            )
        out: Dict[str, str] = {}
        for key, default in cls.PARAMS.items():
            if key in params:
                raw = str(params[key])
            elif default is None:
                raise ValueError(
                    f"statistic '{cls.name}' requires parameter '{key}'"
                )
            else:
                raw = default
            out[key] = cls.canonical_value(key, raw)
        return out

    @classmethod
    def canonical_value(cls, key: str, value: str) -> str:
        """Normalize one parameter value (override for numeric params)."""
        return value

    # -- small conveniences -------------------------------------------- #
    @staticmethod
    def _canon_int(value: str, lo: int = None, hi: int = None) -> str:
        try:
            v = int(value)
        except (TypeError, ValueError):
            raise ValueError(f"expected an integer, got {value!r}") from None
        if lo is not None and v < lo or hi is not None and v > hi:
            raise ValueError(f"value {v} outside [{lo}, {hi}]")
        return str(v)

    @staticmethod
    def _canon_float(value: str) -> str:
        try:
            return repr(float(value))
        except (TypeError, ValueError):
            raise ValueError(f"expected a float, got {value!r}") from None

    @staticmethod
    def _canon_float_list(value: str) -> str:
        parts = [p for p in str(value).split("+") if p]
        if not parts:
            raise ValueError("expected a '+'-separated list of floats")
        return "+".join(repr(float(p)) for p in parts)

    @staticmethod
    def _parse_float_list(value: str) -> Tuple[float, ...]:
        return tuple(float(p) for p in str(value).split("+") if p)


# --------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------- #
_REGISTRY: Dict[str, Type[FieldStatistic]] = {}


def register(cls: Type[FieldStatistic]) -> Type[FieldStatistic]:
    """Class decorator adding a :class:`FieldStatistic` to the catalog."""
    if not (isinstance(cls, type) and issubclass(cls, FieldStatistic)):
        raise TypeError("register() expects a FieldStatistic subclass")
    name = cls.name
    if not name:
        raise ValueError(f"{cls.__name__} must set a non-empty 'name'")
    existing = _REGISTRY.get(name)
    if existing is not None and existing is not cls:
        raise ValueError(
            f"statistic name '{name}' already registered by {existing.__name__}"
        )
    _REGISTRY[name] = cls
    return cls


def lookup(name: str) -> Type[FieldStatistic]:
    """Resolve a statistic by catalog name or ``module.path:Attr`` spec."""
    cls = _REGISTRY.get(name)
    if cls is not None:
        return cls
    if ":" in name and "." in name.split(":", 1)[0]:
        module_name, attr = name.split(":", 1)
        try:
            module = importlib.import_module(module_name)
        except ImportError as exc:
            raise ValueError(
                f"cannot import statistic plugin module '{module_name}': {exc}"
            ) from exc
        cls = getattr(module, attr, None)
        if not (isinstance(cls, type) and issubclass(cls, FieldStatistic)):
            raise ValueError(
                f"'{name}' does not name a FieldStatistic subclass"
            )
        return cls
    known = ", ".join(sorted(_REGISTRY))
    raise ValueError(f"unknown statistic '{name}' (available: {known})")


def available_statistics() -> Dict[str, Type[FieldStatistic]]:
    """The registered catalog, name -> class, sorted by name."""
    return {name: _REGISTRY[name] for name in sorted(_REGISTRY)}


# --------------------------------------------------------------------- #
# spec strings
# --------------------------------------------------------------------- #
def parse_spec(spec: str) -> Tuple[str, Dict[str, str]]:
    """Split ``"name:key=val:key=val"`` into its head and parameter map.

    A head containing a dot may carry an entry-point attribute segment
    (``"pkg.mod:Attr:key=val"``); the attribute is folded into the head.
    """
    spec = str(spec).strip()
    if not spec:
        raise ValueError("empty statistic spec")
    segments = spec.split(":")
    head = segments[0]
    rest = segments[1:]
    if "." in head and rest and "=" not in rest[0]:
        head = f"{head}:{rest[0]}"
        rest = rest[1:]
    params: Dict[str, str] = {}
    for seg in rest:
        if "=" not in seg:
            raise ValueError(
                f"malformed statistic spec segment '{seg}' in '{spec}' "
                "(expected key=value)"
            )
        key, value = seg.split("=", 1)
        if key in params:
            raise ValueError(f"duplicate parameter '{key}' in spec '{spec}'")
        params[key] = value
    return head, params


def format_spec(name: str, params: Mapping[str, str]) -> str:
    """Deterministic spec string: head plus sorted ``key=value`` segments."""
    tail = "".join(f":{k}={params[k]}" for k in sorted(params))
    return f"{name}{tail}"


def canonicalize_spec(spec: str) -> str:
    """Resolve, default-fill, and normalize one spec string.

    Canonical forms are what checkpoint fingerprints and the distributed
    coordinator compare, so equivalent spellings (``"moments"`` vs
    ``"moments:order=2"``) canonicalize identically.
    """
    name, params = parse_spec(spec)
    cls = lookup(name)
    head = name if name not in _REGISTRY and ":" in name else cls.name
    return format_spec(head, cls.canonical_params(params))


def canonicalize_specs(specs: Sequence[str]) -> Tuple[str, ...]:
    """Canonicalize a spec collection, rejecting duplicates."""
    if isinstance(specs, str):
        specs = [s for s in specs.split(",") if s.strip()]
    out: List[str] = []
    for spec in specs:
        canon = canonicalize_spec(spec)
        if canon in out:
            raise ValueError(f"duplicate statistic spec '{canon}'")
        out.append(canon)
    return tuple(out)
