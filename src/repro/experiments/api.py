"""Declarative experiment API: generic axes, specs, and the plugin registry.

This is to experiments what :mod:`repro.detectors` is to detector families:
one declarative surface the rest of the system consumes.  An experiment is
an :class:`ExperimentSpec` — id, title, params dataclass, a declarative
**grid** (axes, expanded to cells in canonical reporting order), the cell
runner, the metrics each cell reports, and the tabulation layout — and
registers itself with :func:`register_experiment`.  The harness registry,
``run_all``, and the CLI all resolve experiments from here, so a
registered experiment reaches ``repro run``/``repro experiments``/CI with
no further wiring.  External plugins register by importing before use —
either explicitly or via the ``REPRO_PLUGINS`` environment variable
(:mod:`repro.harness.plugins`), which the registry loads alongside the
built-ins; in-repo experiment modules also take one entry in ``_BUILTIN_MODULES``
(the auto-import + canonical-order mapping — a conformance test fails if
a module registers an experiment without one).

Axes
----
A grid is the cartesian product of :class:`Axis` objects (the *last* axis
varies fastest, matching a nested ``for`` loop), or a concatenation of
:class:`Section` products for multi-part experiments (f2's regime-shift
and variance sweeps).  The shared axis kinds cover every pattern the
experiments use:

* :class:`ParamAxis` — coordinate values drawn from a params field;
* :class:`TrialAxis` — ``range(params.trials)`` repetition;
* :class:`DetectorAxis` — :mod:`repro.detectors` registry keys drawn from
  a params field, validated against the registry at expansion time;
* :class:`FixedAxis` / :class:`ConstAxis` — statically known values
  (scenario names, ablation variants, section tags).

Cell **ordering and seeding are load-bearing**: artifacts are
byte-identical across runs, and per-cell seeds are derived from the cell's
coordinates (:func:`repro.harness.spec.cell_seed`), so an axis change is
an observable experiment change.  The registry-parametrized conformance
suite pins the legacy grids to committed goldens.

Tabulation helpers
------------------
:func:`group_values`, :func:`stat_mean` and :func:`per_detector_headers`
centralise the aggregation boilerplate the hand-rolled ``tabulate``
functions used to duplicate (per-detector column layouts, mean/max stat
aggregation over trials).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from statistics import mean as _mean
from typing import Any, ClassVar, Iterable, Mapping, Sequence

from ..errors import ConfigurationError
from ..harness.spec import ScenarioSpec

__all__ = [
    "Axis",
    "ParamAxis",
    "TrialAxis",
    "DetectorAxis",
    "FaultAxis",
    "FixedAxis",
    "ConstAxis",
    "Section",
    "Metric",
    "Monotone",
    "Banded",
    "check_shapes",
    "ExperimentSpec",
    "register_experiment",
    "get_experiment",
    "all_experiments",
    "experiment_keys",
    "group_values",
    "stat_mean",
    "per_detector_headers",
]


# ---------------------------------------------------------------------------
# axes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Axis:
    """One coordinate of an experiment grid.

    ``name`` is the coordinate key in every cell dict (and therefore part
    of the per-cell seed derivation); :meth:`expand` yields the axis's
    values under a given params instance.

    An ``optional`` axis (class-level flag) is **dropped from the grid
    entirely** when it expands to no values — the cells then carry no
    coordinate for it, so per-cell seeds and artifacts are byte-identical
    to a grid that never declared the axis.  This is how opt-in axes
    (:class:`FaultAxis`) join legacy experiments without perturbing their
    pinned goldens.
    """

    name: str
    optional: ClassVar[bool] = False

    def expand(self, params: Any) -> Sequence[Any]:
        raise NotImplementedError


@dataclass(frozen=True)
class ParamAxis(Axis):
    """Values drawn from a params field (a tuple, e.g. ``sizes``)."""

    field: str

    def expand(self, params: Any) -> Sequence[Any]:
        return tuple(getattr(params, self.field))


@dataclass(frozen=True)
class TrialAxis(Axis):
    """``range(params.<field>)`` — independent repetitions of a cell."""

    name: str = "trial"
    field: str = "trials"

    def expand(self, params: Any) -> Sequence[Any]:
        return tuple(range(getattr(params, self.field)))


@dataclass(frozen=True)
class DetectorAxis(Axis):
    """Detector registry keys drawn from a params field.

    Keys are validated against :mod:`repro.detectors` at expansion time so
    a typo fails before any cell burns compute.  The field may be a tuple
    (``detectors``, the sweepable comparison set) or a single key string
    (``detector``).
    """

    name: str = "detector"
    field: str = "detectors"

    def expand(self, params: Any) -> Sequence[Any]:
        from ..detectors import get_detector

        raw = getattr(params, self.field)
        keys = (raw,) if isinstance(raw, str) else tuple(raw)
        for key in keys:
            get_detector(key)  # raises ConfigurationError on unknown keys
        return keys


@dataclass(frozen=True)
class FaultAxis(Axis):
    """Fault-scenario names drawn from a params field (default ``faults``).

    Values are names from the :mod:`repro.experiments.scenarios` fault
    registry (``partition``, ``crashrec``, ``churn``, ``lossburst``...),
    validated at expansion time.  The axis is *optional*: with the field
    empty (every legacy params default) it vanishes from the grid, so
    adding it to an experiment is byte-invisible until a preset or
    override opts in.
    """

    name: str = "fault"
    field: str = "faults"
    optional: ClassVar[bool] = True

    def expand(self, params: Any) -> Sequence[Any]:
        from .scenarios import get_fault_scenario

        names = tuple(getattr(params, self.field))
        for name in names:
            get_fault_scenario(name)  # raises ConfigurationError on unknown names
        return names


@dataclass(frozen=True)
class FixedAxis(Axis):
    """Statically known values (scenario names, ablation variants...)."""

    values: tuple[Any, ...]

    def expand(self, params: Any) -> Sequence[Any]:
        return self.values


@dataclass(frozen=True)
class ConstAxis(Axis):
    """A single fixed value — tags every cell of a section (e.g. ``sweep``)."""

    value: Any

    def expand(self, params: Any) -> Sequence[Any]:
        return (self.value,)


@dataclass(frozen=True)
class Section:
    """A named sub-grid: the cartesian product of its axes.

    Multi-part experiments (f2) concatenate sections; single-part
    experiments use one anonymous section (built implicitly from a flat
    axis tuple).  ``name`` lets tabulation address one section's cells
    (:meth:`ExperimentSpec.section_cells`).
    """

    axes: tuple[Axis, ...]
    name: str = ""

    def __post_init__(self) -> None:
        names = [axis.name for axis in self.axes]
        if len(set(names)) != len(names):
            # A duplicate name would silently collapse in the cell dict,
            # dropping an axis from the sweep while multiplying the grid.
            raise ConfigurationError(
                f"duplicate axis names in section {self.name or '<anonymous>'!r}: {names}"
            )

    def cells(self, params: Any) -> list[dict[str, Any]]:
        # Optional axes with no values under these params disappear from
        # the product — no coordinate key, hence unchanged cell seeds.
        axes = [
            axis
            for axis in self.axes
            if not (axis.optional and not axis.expand(params))
        ]
        values = [axis.expand(params) for axis in axes]
        return [
            {axis.name: value for axis, value in zip(axes, combo)}
            for combo in itertools.product(*values)
        ]


def _as_sections(axes: tuple) -> tuple[Section, ...]:
    """Normalise a spec's ``axes`` to sections (flat axes -> one section)."""
    if not axes:
        return ()
    if all(isinstance(item, Section) for item in axes):
        return tuple(axes)
    if all(isinstance(item, Axis) for item in axes):
        return (Section(axes=tuple(axes)),)
    raise ConfigurationError(
        "axes must be all Axis or all Section instances, not a mixture"
    )


@dataclass(frozen=True)
class _AxesGrid:
    """The ``cells`` callable derived from a spec's declarative axes."""

    sections: tuple[Section, ...]

    def __call__(self, params: Any) -> list[dict[str, Any]]:
        return [cell for section in self.sections for cell in section.cells(params)]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Metric:
    """One value every cell of the experiment reports.

    ``name`` is the key in ``run_cell``'s returned mapping; ``help`` is a
    one-liner for docs and the CLI.  The conformance suite asserts that
    every declared metric actually appears in every cell value.
    """

    name: str
    help: str = ""


# ---------------------------------------------------------------------------
# expected shapes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Monotone:
    """Declares that a metric moves monotonically along one axis.

    For every fixed combination of the *other* coordinates (trials are
    averaged out first), the metric's means must be non-increasing
    (``direction="decreasing"``) or non-decreasing (``"increasing"``)
    along the ``along`` axis, up to an absolute ``tolerance`` per step.
    """

    metric: str
    along: str
    direction: str = "increasing"
    tolerance: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("increasing", "decreasing"):
            raise ConfigurationError(
                f"direction must be 'increasing' or 'decreasing', got {self.direction!r}"
            )

    def check(
        self, cells: Sequence[Mapping[str, Any]], values: Sequence[Mapping[str, Any]]
    ) -> list[str]:
        groups: dict[tuple, dict[Any, list[float]]] = {}
        for coords, value in zip(cells, values):
            if self.along not in coords:
                continue
            metric = value.get(self.metric)
            if metric is None:
                continue
            key = tuple(
                (name, coord)
                for name, coord in sorted(coords.items(), key=repr)
                if name not in (self.along, "trial")
            )
            series = groups.setdefault(key, {})
            series.setdefault(coords[self.along], []).append(float(metric))
        violations: list[str] = []
        for key, series in groups.items():
            points = [(along, _mean(samples)) for along, samples in series.items()]
            for (prev_at, prev), (cur_at, cur) in zip(points, points[1:]):
                drift = cur - prev if self.direction == "increasing" else prev - cur
                if drift < -self.tolerance:
                    where = dict(key) or "all cells"
                    violations.append(
                        f"{self.metric} not {self.direction} along {self.along} "
                        f"at {where}: {prev:.6g} @ {self.along}={prev_at!r} -> "
                        f"{cur:.6g} @ {self.along}={cur_at!r}"
                    )
        return violations


@dataclass(frozen=True)
class Banded:
    """Declares that a metric stays inside ``[lo, hi]`` in every cell."""

    metric: str
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self) -> None:
        if self.lo is None and self.hi is None:
            raise ConfigurationError("a band needs at least one of lo / hi")

    def check(
        self, cells: Sequence[Mapping[str, Any]], values: Sequence[Mapping[str, Any]]
    ) -> list[str]:
        violations: list[str] = []
        for coords, value in zip(cells, values):
            metric = value.get(self.metric)
            if metric is None:
                continue
            metric = float(metric)
            if self.lo is not None and metric < self.lo:
                violations.append(
                    f"{self.metric}={metric:.6g} below lo={self.lo:g} at {dict(coords)}"
                )
            elif self.hi is not None and metric > self.hi:
                violations.append(
                    f"{self.metric}={metric:.6g} above hi={self.hi:g} at {dict(coords)}"
                )
        return violations


def check_shapes(
    spec: "ExperimentSpec",
    params: Any,
    values: Sequence[Mapping[str, Any]],
) -> list[str]:
    """Every declared shape violation for a finished grid (empty = clean).

    ``values`` must be in ``spec.cells(params)`` order, exactly as handed
    to ``tabulate``.  The conformance suite runs this generically over
    every registered experiment.
    """
    cells = spec.cells(params)
    violations: list[str] = []
    for shape in spec.shapes:
        violations.extend(shape.check(cells, values))
    return violations


# ---------------------------------------------------------------------------
# spec
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec(ScenarioSpec):
    """A :class:`~repro.harness.spec.ScenarioSpec` declared through axes.

    ``axes``
        The grid: a tuple of :class:`Axis` (one section) or
        :class:`Section` objects (concatenated).  ``cells`` is derived
        from it — cell ordering is the sections in order, each expanded as
        a nested loop with the last axis varying fastest.  Passing an
        explicit ``cells`` callable instead remains supported.
    ``metrics``
        The values every cell reports (:class:`Metric`).
    ``shapes``
        Expected-shape declarations (:class:`Monotone`, :class:`Banded`)
        over the reported metrics, asserted generically by
        :func:`check_shapes` in the conformance suite.
    ``tabulate``
        The tabulation layout, as before: ``tabulate(params, values) ->
        Table | list[Table]`` with ``values`` in cell order.

    Declaring the grid as data (rather than a ``cells`` callable) is what
    the CLI's grid introspection (``sections()``, ``axis_names()``,
    ``grid_size()``), streaming tabulation and the conformance suite key
    off.  A minimal registration is shown in the README's
    "adding an experiment" walkthrough; ``docs/architecture.md`` lists
    the invariants (stable-name seeding, byte-identical artifacts) a new
    experiment inherits for free by going through this class.
    """

    axes: tuple = ()
    metrics: tuple[Metric, ...] = ()
    shapes: tuple = ()

    def __post_init__(self) -> None:
        sections = _as_sections(self.axes)
        if self.cells is None:
            if not sections:
                raise ConfigurationError(
                    f"experiment {self.exp_id!r} needs axes or an explicit cells callable"
                )
            object.__setattr__(self, "cells", _AxesGrid(sections))
        super().__post_init__()

    # -- grid introspection -------------------------------------------------
    def sections(self) -> tuple[Section, ...]:
        return _as_sections(self.axes)

    def section_cells(self, name: str, params: Any) -> list[dict[str, Any]]:
        """One named section's cells (in grid order)."""
        for section in self.sections():
            if section.name == name:
                return section.cells(params)
        raise ConfigurationError(
            f"experiment {self.exp_id!r} has no section {name!r}; "
            f"sections: {[s.name for s in self.sections()]}"
        )

    def axis_names(self) -> list[str]:
        """Coordinate names across all sections, first occurrence order."""
        names: list[str] = []
        for section in self.sections():
            for axis in section.axes:
                if axis.name not in names:
                    names.append(axis.name)
        return names

    def grid_size(self, *, full: bool = False) -> int:
        """Number of cells under the default (or ``full``) params."""
        return len(self.cells(self.make_params(full=full)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_REGISTRY: dict[str, ExperimentSpec] = {}

#: the built-in experiments in canonical reporting order: id -> module
#: (one mapping, so an id cannot be ordered without also being loadable).
#: :func:`all_experiments` imposes this order on iteration, with any
#: externally registered experiments appended in registration order.
_BUILTIN_MODULES = {
    "t1": "t1_detection_vs_n",
    "t2": "t2_impact_of_f",
    "t3": "t3_message_load",
    "t4": "t4_consensus",
    "f1": "f1_detection_cdf",
    "f2": "f2_delay_variance",
    "f3": "f3_mp_sensitivity",
    "e1": "e1_density",
    "e2": "e2_mobility",
    "a1": "a1_grace_ablation",
    "a2": "a2_loss_resilience",
    "q1": "q1_qos_comparison",
    "c1": "c1_consensus_qos",
}


def register_experiment(spec: ExperimentSpec) -> ExperimentSpec:
    """Register an experiment; the id must be new (idempotent for same spec).

    Usable directly (``SPEC = register_experiment(ExperimentSpec(...))``)
    — registration happens at module import, mirroring
    :func:`repro.detectors.register_detector`.
    """
    if not spec.exp_id or spec.exp_id != spec.exp_id.lower():
        # Lookups lowercase their query, so a mixed-case id would be
        # listed but unresolvable.
        raise ConfigurationError(
            f"experiment id must be non-empty lower-case: {spec.exp_id!r}"
        )
    existing = _REGISTRY.get(spec.exp_id)
    if existing is not None and existing is not spec:
        raise ConfigurationError(f"experiment id {spec.exp_id!r} is already registered")
    _REGISTRY[spec.exp_id] = spec
    return spec


def _ensure_builtin(only: str | None = None) -> None:
    """Import the built-in experiment modules (they register on import;
    all of them, or the one registering ``only``), then any
    ``REPRO_PLUGINS`` modules — so out-of-tree experiments reach every
    registry consumer (CLI listings, ``run_all``, distributed workers)
    exactly like built-ins.  Plugins load *after* built-ins so a plugin can
    resolve built-in specs at import time."""
    import importlib

    from ..harness.plugins import load_plugins

    for exp_id in _BUILTIN_MODULES if only is None else (only,):
        module = _BUILTIN_MODULES[exp_id]
        if exp_id not in _REGISTRY:
            importlib.import_module(f".{module}", package=__package__)
            if exp_id not in _REGISTRY:
                raise ConfigurationError(
                    f"module {module!r} did not register experiment {exp_id!r}; "
                    "fix the _BUILTIN_MODULES mapping or the module's exp_id"
                )
    load_plugins()


def get_experiment(exp_id: str) -> ExperimentSpec:
    """The spec registered under ``exp_id`` (case-insensitive).

    A built-in id imports its own module only (a process that runs one
    grid should not pay for the other twelve); any other id imports
    everything, so a plugin can rely on the built-ins and the error below
    names every valid id.
    """
    key = exp_id.lower() if isinstance(exp_id, str) else exp_id
    _ensure_builtin(key if key in _BUILTIN_MODULES else None)
    spec = _REGISTRY.get(key)
    if spec is None:
        raise ConfigurationError(
            f"unknown experiment {exp_id!r}; choose from {sorted(_REGISTRY)}"
        )
    return spec


def all_experiments() -> dict[str, ExperimentSpec]:
    """Every registered experiment, in canonical reporting order.

    Built-ins come first (t1..t4, f1..f3, e1, e2, a1, a2, q1), then any
    externally registered experiments in registration order — the order
    ``run_all``, ``repro run`` (with no ids), and ``repro experiments``
    iterate, so a new registration can never be silently skipped.

    Ordering is imposed here, not inherited from registration order: a
    built-in module imported directly (``import
    repro.experiments.e2_mobility``) registers itself before its
    canonical predecessors, so the raw registry dict can be arbitrarily
    rotated.
    """
    _ensure_builtin()
    ordered = {exp_id: _REGISTRY[exp_id] for exp_id in _BUILTIN_MODULES}
    for exp_id, spec in _REGISTRY.items():
        if exp_id not in ordered:
            ordered[exp_id] = spec
    return ordered


def experiment_keys() -> list[str]:
    return list(all_experiments())


# ---------------------------------------------------------------------------
# shared tabulation machinery
# ---------------------------------------------------------------------------


def group_values(
    cells: Iterable[Mapping[str, Any]],
    values: Iterable[Any],
    *keys: str,
) -> dict[tuple, list[Any]]:
    """Group cell values by coordinate keys, preserving grid order.

    The returned dict maps ``tuple(coords[k] for k in keys)`` to the
    values of all matching cells, in cell order — the common "aggregate
    over trials" step of tabulation.
    """
    grouped: dict[tuple, list[Any]] = {}
    for coords, value in zip(cells, values):
        grouped.setdefault(tuple(coords[key] for key in keys), []).append(value)
    return grouped


def stat_mean(values: Iterable[float]) -> float:
    """Mean of the values, ``nan`` when empty (table-friendly)."""
    values = list(values)
    return _mean(values) if values else float("nan")


def per_detector_headers(
    detectors: Sequence[str],
    stats: Sequence[str] = (),
    template: str | None = None,
) -> list[str]:
    """The conventional per-detector column layout.

    With ``stats`` empty there is one column per detector (f1-style,
    default template ``"{detector} (s)"``); otherwise detector-major,
    stat-minor (t1-style ``mean``/``max`` pairs, default template
    ``"{detector} {stat} (s)"``).
    """
    if not stats:
        template = template if template is not None else "{detector} (s)"
        return [template.format(detector=detector) for detector in detectors]
    template = template if template is not None else "{detector} {stat} (s)"
    return [
        template.format(detector=detector, stat=stat)
        for detector in detectors
        for stat in stats
    ]
