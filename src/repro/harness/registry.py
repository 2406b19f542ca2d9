"""Harness view of the experiment registry, keyed by lower-case id.

Thin delegation to the :mod:`repro.experiments.api` plugin registry —
experiments register themselves (``register_experiment``) and every
consumer (``repro run``/``repro list``/``repro experiments``, ``run_all``,
CI smoke jobs) resolves them from the one registry, in canonical
reporting order.  Before the registry existed this module hard-coded the
eleven experiment modules, which meant a newly added experiment was
silently skipped by ``run_all`` and the CLI unless this tuple was edited;
discovery now lives in one place (``_BUILTIN_MODULES`` + registration,
with a conformance test that refuses undiscovered in-repo modules).

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
