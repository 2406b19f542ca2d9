"""One string-keyed registry, shared by every pluggable family.

Detector families (:data:`repro.detectors.registry.DETECTORS`), consensus
protocols (:data:`repro.consensus.registry.PROTOCOLS`), experiments
(:data:`repro.experiments.api.EXPERIMENTS`) and fault scenarios
(:data:`repro.experiments.scenarios.FAULT_SCENARIOS`) are each one
:class:`Registry`.  A family registers a spec under a stable lower-case key
when its module is imported, and every consumer — simulator, runtime,
experiment grids, the CLI listings — resolves it by key.

**Lookup rule.**  A key that is already registered is returned as is.  A
built-in key imports only its own module, so a process that runs one grid
or hosts one detector pays for nothing else.  Any other key, and every
listing, first imports every built-in module and then the plugins
(:func:`repro.harness.plugins.load_plugins`), so a plugin can resolve
built-ins at import time and appears everywhere a built-in does.

**Order rule.**  A listing returns the built-ins in their declared order,
then every other registration in registration order.

:class:`TypedParams` is the spec side shared by detector and consensus
specs: a frozen dataclass of typed knobs, built strictly from overrides.
"""

from __future__ import annotations

import dataclasses
import importlib
from typing import Any, Generic, Mapping, TypeVar

from .errors import ConfigurationError

__all__ = ["Registry", "TypedParams"]

S = TypeVar("S")


class Registry(Generic[S]):
    """The specs of one family, keyed by their ``key_attr`` attribute.

    ``noun`` names the family in errors; ``builtins`` maps every built-in
    key to the module that registers it, in listing order.
    """

    def __init__(self, noun: str, key_attr: str, builtins: Mapping[str, str]) -> None:
        self.noun = noun
        self.key_attr = key_attr
        self.builtins = dict(builtins)
        self.specs: dict[str, S] = {}

    def register(self, spec: S) -> S:
        """Register ``spec`` under its key; returns ``spec``.

        Re-registering the same object is a no-op (safe under repeated
        import); a different object under a taken key is an error — pick a
        new key rather than shadowing one.
        """
        key = getattr(spec, self.key_attr)
        if not key or key != key.lower():
            # Lookups lower-case their query, so a mixed-case key would be
            # listed but unresolvable.
            raise ConfigurationError(f"{self.noun} key must be non-empty lower-case: {key!r}")
        existing = self.specs.get(key)
        if existing is not None and existing is not spec:
            raise ConfigurationError(f"{self.noun} {key!r} is already registered")
        self.specs[key] = spec
        return spec

    def get(self, key: str) -> S:
        """The spec registered under ``key`` (case-insensitive)."""
        name = key.lower() if isinstance(key, str) else key
        if name not in self.specs:
            if name in self.builtins:
                self._import(name)
            else:
                self._load_all()
        spec = self.specs.get(name)
        if spec is None:
            raise ConfigurationError(
                f"unknown {self.noun} {key!r}; registered: {sorted(self.specs)}"
            )
        return spec

    def all(self) -> dict[str, S]:
        """Every registered spec, built-ins first (see the order rule)."""
        self._load_all()
        ordered = {key: self.specs[key] for key in self.builtins}
        ordered.update(self.specs)
        return ordered

    def keys(self) -> list[str]:
        return list(self.all())

    def _import(self, key: str) -> None:
        module = self.builtins[key]
        importlib.import_module(module)
        if key not in self.specs:
            raise ConfigurationError(
                f"module {module!r} did not register {self.noun} {key!r}; "
                "fix the registry's built-in mapping or the module's key"
            )

    def _load_all(self) -> None:
        for key in self.builtins:
            if key not in self.specs:
                self._import(key)
        from .harness.plugins import load_plugins

        load_plugins()


class TypedParams:
    """Strict typed params for a frozen spec dataclass with ``key`` and
    ``params_cls`` fields; a subclass sets ``noun``, its family's name in
    errors."""

    def __post_init__(self) -> None:
        if not dataclasses.is_dataclass(self.params_cls):
            raise ConfigurationError(
                f"{self.key!r}: params_cls must be a dataclass, got {self.params_cls!r}"
            )

    def param_names(self) -> frozenset[str]:
        """The parameter field names."""
        return frozenset(f.name for f in dataclasses.fields(self.params_cls))

    def make_params(self, params: Any | None = None, /, **overrides: Any) -> Any:
        """Typed params from defaults (or ``params``) plus ``overrides``.

        Unknown override names raise :class:`ConfigurationError`, so a
        sweep over families fails loudly when a knob does not apply.
        """
        if params is not None and overrides:
            raise ConfigurationError("pass either a params instance or keyword overrides")
        if params is not None:
            if not isinstance(params, self.params_cls):
                raise ConfigurationError(
                    f"{self.key!r} expects {self.params_cls.__name__} params, "
                    f"got {type(params).__name__}"
                )
            return params
        unknown = sorted(set(overrides) - self.param_names())
        if unknown:
            raise ConfigurationError(
                f"unknown parameter(s) {unknown} for {self.noun} {self.key!r}; "
                f"valid: {sorted(self.param_names())}"
            )
        return self.params_cls(**overrides)
