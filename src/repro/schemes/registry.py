"""The pluggable scheme registry — one source of truth for ``strategy=``.

Every communication scheme the library can price or execute is a
:class:`SchemeSpec` in the process-wide :class:`SchemeRegistry`:
the paper's four schemes, the DGCL variants, the communication-avoiding
additions (CAGNET 1.5D/2D, DistGNN delayed aggregation), and anything a
user registers with :func:`register_scheme`.  The session's
``strategy=`` knob, the auto-tuner's :class:`~repro.autotune.space`
enumeration, :func:`~repro.baselines.evaluate_scheme` dispatch and the
CLI ``--strategy`` choice lists all resolve names here, so adding a
scheme in one place makes it tunable, executable, cacheable and
CLI-visible at once.

A spec carries two callables:

* ``builder(relation, topology, *, chunks_per_class, seed, staleness)
  -> CommPlan`` — compiles the executable plan (``None``
  for evaluation-only schemes like Swap or Replication);
* ``cost_fn(workload, ctx) -> SchemeResult`` — prices one epoch under
  the staged cost model; ``ctx`` is an :class:`EvalContext` with the
  telemetry handle, forced method table, fidelity and staleness.

Unknown names raise :class:`~repro.errors.UnknownSchemeError` listing
every registered scheme.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.errors import UnknownSchemeError
from repro.obs.telemetry import Telemetry

__all__ = [
    "EvalContext",
    "SchemeSpec",
    "SchemeRegistry",
    "global_registry",
    "register_scheme",
    "get_scheme",
    "scheme_names",
    "plan_scheme_names",
    "session_strategy_names",
    "resolve_strategy",
]


def _always_feasible(topology) -> bool:
    """Default feasibility predicate: the scheme runs on any topology."""
    return True


@dataclass
class EvalContext:
    """Everything a scheme's ``cost_fn`` may need beyond the workload.

    Mirrors the keyword surface of
    :func:`~repro.baselines.evaluate_scheme`; cost functions read the
    fields they care about and ignore the rest.
    """

    fidelity: str = "event"
    staleness: int = 0
    methods: Optional[object] = None  # a comm MethodTable, or None
    telemetry: Telemetry = Telemetry()


@dataclass(frozen=True)
class SchemeSpec:
    """One registered communication scheme.

    ``feasible`` takes a :class:`~repro.topology.topology.Topology`
    and answers whether the scheme can run on it at all (Swap is
    single-machine, DGCL-R needs two); ``tunable_method`` /
    ``tunable_chunks`` tell the search space which knobs can influence
    the scheme's cost (others are pinned so the space holds no
    duplicate evaluations); ``staleness_options`` is the sweep of the
    bounded-staleness knob (``(0,)`` for exact schemes).
    """

    name: str
    builder: Optional[Callable] = None
    cost_fn: Optional[Callable] = None
    version: str = "1"
    aliases: Tuple[str, ...] = ()
    description: str = ""
    feasible: Callable[[object], bool] = field(default=_always_feasible)
    tunable_method: bool = False
    tunable_chunks: bool = False
    staleness_options: Tuple[int, ...] = (0,)
    builtin: bool = False

    @property
    def plan_based(self) -> bool:
        """True when the scheme compiles to an executable CommPlan."""
        return self.builder is not None

    @property
    def supports_staleness(self) -> bool:
        """True when the staleness knob can change the scheme's cost."""
        return self.staleness_options != (0,)

    def build_plan(self, relation, topology, *, chunks_per_class: int = 4,
                   seed: int = 0, staleness: int = 0):
        """Compile the executable plan (plan-based schemes only)."""
        if self.builder is None:
            raise ValueError(
                f"scheme {self.name!r} does not compile to a CommPlan; "
                "it can only be priced, not executed"
            )
        return self.builder(
            relation, topology, chunks_per_class=chunks_per_class,
            seed=seed, staleness=staleness,
        )


class SchemeRegistry:
    """Name -> :class:`SchemeSpec` mapping with alias resolution."""

    def __init__(self) -> None:
        self._specs: Dict[str, SchemeSpec] = {}
        self._aliases: Dict[str, str] = {}

    # ------------------------------------------------------------------
    def register(self, spec: SchemeSpec, replace_existing: bool = False) -> SchemeSpec:
        """Add a spec; duplicate names/aliases raise unless replacing."""
        taken = set(self._specs) | set(self._aliases)
        for name in (spec.name,) + spec.aliases:
            if name in taken and not replace_existing and \
                    self._aliases.get(name, name) != spec.name:
                raise ValueError(f"scheme name {name!r} is already registered")
        if spec.name in self._specs and not replace_existing:
            raise ValueError(f"scheme {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        for alias in spec.aliases:
            self._aliases[alias] = spec.name
        return spec

    def unregister(self, name: str) -> None:
        """Remove a scheme and its aliases (mainly for tests)."""
        spec = self._specs.pop(self.canonical(name))
        for alias in spec.aliases:
            self._aliases.pop(alias, None)

    def canonical(self, name: str) -> str:
        """Resolve aliases to the registered name; raise when unknown."""
        if name in self._specs:
            return name
        if name in self._aliases:
            return self._aliases[name]
        raise UnknownSchemeError(name, self.names())

    def get(self, name: str) -> SchemeSpec:
        """The spec for ``name`` (alias-aware); typed error when absent."""
        return self._specs[self.canonical(name)]

    def __contains__(self, name: str) -> bool:
        return name in self._specs or name in self._aliases

    def names(self) -> Tuple[str, ...]:
        """Registered scheme names, registration-ordered."""
        return tuple(self._specs)

    def plan_based_names(self) -> Tuple[str, ...]:
        """Names of the schemes that compile to an executable plan."""
        return tuple(n for n, s in self._specs.items() if s.plan_based)

    def specs(self) -> List[SchemeSpec]:
        """Every registered spec, registration-ordered."""
        return list(self._specs.values())


#: The process-wide registry every surface resolves against.
_REGISTRY = SchemeRegistry()


def global_registry() -> SchemeRegistry:
    """The process-wide :class:`SchemeRegistry`."""
    return _REGISTRY


def register_scheme(
    name: str,
    *,
    builder: Optional[Callable] = None,
    cost_fn: Optional[Callable] = None,
    version: str = "1",
    aliases: Sequence[str] = (),
    description: str = "",
    feasible: Optional[Callable[[object], bool]] = None,
    tunable_method: bool = False,
    tunable_chunks: bool = False,
    staleness_options: Sequence[int] = (0,),
    replace_existing: bool = False,
) -> SchemeSpec:
    """Register a custom communication scheme (everything keyword-only).

    At least one of ``builder`` / ``cost_fn`` must be given.  A scheme
    with only a ``builder`` is priced through the generic partitioned
    evaluation of its compiled plan; a scheme with only a ``cost_fn``
    can be tuned but never executed.  Returns the stored
    :class:`SchemeSpec`.  The scheme immediately becomes a valid
    ``strategy=`` for sessions, a tunable candidate for
    :class:`~repro.autotune.space.SearchSpace`, and a recognised name
    for :func:`~repro.baselines.evaluate_scheme`; its ``name`` and
    ``version`` feed every plan-cache fingerprint that prices it.
    """
    if builder is None and cost_fn is None:
        raise ValueError("register_scheme needs a builder=, a cost_fn=, "
                         "or both")
    if cost_fn is None:
        from repro.schemes.builtin import generic_plan_cost_fn

        cost_fn = generic_plan_cost_fn(name)
    spec = SchemeSpec(
        name=name,
        builder=builder,
        cost_fn=cost_fn,
        version=version,
        aliases=tuple(aliases),
        description=description,
        feasible=feasible if feasible is not None else _always_feasible,
        tunable_method=tunable_method,
        tunable_chunks=tunable_chunks,
        staleness_options=tuple(staleness_options),
    )
    return _REGISTRY.register(spec, replace_existing=replace_existing)


def get_scheme(name: str) -> SchemeSpec:
    """The registered spec for ``name`` (alias-aware)."""
    return _REGISTRY.get(name)


def scheme_names() -> Tuple[str, ...]:
    """Every registered scheme name."""
    return _REGISTRY.names()


def plan_scheme_names() -> Tuple[str, ...]:
    """Every registered scheme that compiles to an executable plan."""
    return _REGISTRY.plan_based_names()


#: Historical session vocabulary kept as aliases: ``spst`` -> dgcl,
#: ``p2p`` -> peer-to-peer.  ``auto`` is not a scheme — it is the
#: tuner's selection mode — so the session surface handles it itself.
def session_strategy_names() -> Tuple[str, ...]:
    """Valid ``strategy=`` spellings for a session, ``auto`` included."""
    extra = tuple(sorted(_REGISTRY._aliases))
    return extra + _REGISTRY.plan_based_names() + ("auto",)


def resolve_strategy(strategy: str) -> Optional[SchemeSpec]:
    """Resolve a session ``strategy=`` to its plan-based spec.

    ``"auto"`` returns ``None`` (the tuner picks); any other name must
    resolve to a *plan-based* registered scheme or
    :class:`~repro.errors.UnknownSchemeError` is raised listing the
    valid spellings.
    """
    if strategy == "auto":
        return None
    try:
        spec = _REGISTRY.get(strategy)
    except UnknownSchemeError:
        raise UnknownSchemeError(strategy, session_strategy_names()) from None
    if not spec.plan_based:
        raise UnknownSchemeError(strategy, session_strategy_names())
    return spec
