"""Harness view of the experiment registry, keyed by lower-case id.

Thin delegation to :data:`repro.experiments.api.EXPERIMENTS`, the one
experiment :class:`~repro.registry.Registry`: every consumer (``repro
run``/``repro list``/``repro experiments``, CI smoke jobs) resolves
experiments from it, in canonical reporting order.

Imports stay lazy (inside the functions) so ``repro.harness`` has no
import cycle with ``repro.experiments`` — experiment modules import the
harness to declare their specs.
"""

from __future__ import annotations

from .spec import ScenarioSpec

__all__ = ["all_specs", "get_spec"]


def all_specs() -> dict[str, ScenarioSpec]:
    """Every registered experiment spec, in canonical reporting order."""
    from ..experiments.api import all_experiments

    return dict(all_experiments())


def get_spec(exp_id: str) -> ScenarioSpec:
    """One experiment's spec; a built-in id imports that experiment only."""
    from ..experiments.api import get_experiment

    return get_experiment(exp_id)
