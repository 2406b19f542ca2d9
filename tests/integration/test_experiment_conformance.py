"""Registry-parametrized conformance suite for every registered experiment.

The contract every :class:`~repro.experiments.api.ExperimentSpec` must
honour, asserted uniformly so a new registration is tested for free:

* the grid is non-empty and has no duplicate cells (under default *and*
  smoke params), and its coordinate names match the declared axes;
* ``run_cell`` is a pure function of ``(params, coords, seed)`` — the
  same cell evaluated twice gives the identical (normalised) value;
* ``tabulate`` accepts its own grid's values and yields populated tables;
* every declared metric actually appears in every cell's value;
* the legacy 11 reproduce their committed golden artifacts **byte for
  byte** (cell ordering, per-cell seeds, table text — the refactor-safety
  net behind the declarative-axes port).
"""

import subprocess
import sys

import pytest

from repro.experiments.api import (
    ExperimentSpec,
    all_experiments,
    check_shapes,
    experiment_keys,
    get_experiment,
)
from repro.experiments.report import Table
from repro.harness import write_artifact
from repro.harness.runner import _normalise
from repro.harness.spec import canonical_json, cell_seed

from tests.goldens import GOLDEN_DIR, GOLDEN_EXPERIMENTS, smoke_params
from tests.helpers import smoke_run

EXPERIMENTS = experiment_keys()


class TestRegistry:
    def test_thirteen_experiments_registered(self):
        assert len(EXPERIMENTS) == 13
        assert "q1" in EXPERIMENTS
        assert "c1" in EXPERIMENTS

    def test_canonical_order(self):
        assert EXPERIMENTS == [
            "t1", "t2", "t3", "t4", "f1", "f2", "f3", "e1", "e2", "a1", "a2",
            "q1", "c1",
        ]

    def test_canonical_order_survives_direct_module_import(self):
        # Importing a built-in module directly registers it (and only it)
        # first; the registry must still report canonical order, not raw
        # registration order.
        code = (
            "import repro.experiments.e2_mobility\n"
            "from repro.experiments.api import all_experiments\n"
            "print(','.join(all_experiments()))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == ",".join(EXPERIMENTS)

    def test_every_spec_is_declarative(self):
        for spec in all_experiments().values():
            assert isinstance(spec, ExperimentSpec)
            assert spec.axes, f"{spec.exp_id} has no declarative axes"

    def test_smoke_params_cover_the_registry(self):
        assert set(smoke_params()) == set(EXPERIMENTS)

    def test_harness_registry_delegates(self):
        from repro.harness import all_specs, get_spec

        assert list(all_specs()) == EXPERIMENTS
        assert get_spec("Q1") is get_experiment("q1")

    def test_every_in_repo_experiment_module_is_auto_imported(self):
        # Each of the four registries auto-imports its built-ins from one
        # key -> module mapping; an in-repo module that registers a key but
        # is missing from that mapping would be silently absent from every
        # consumer (the old hard-coded-tuple bug).  Fail loudly here
        # instead: the modules that call each register function are the
        # mapping's modules, and with no plugins each registry lists
        # exactly the mapping's keys, in its order.
        import ast
        import json

        from tests.helpers import REPO_ROOT, fresh_python

        registries = {
            "repro.detectors.registry:DETECTORS": "register_detector",
            "repro.consensus.registry:PROTOCOLS": "register_protocol",
            "repro.experiments.api:EXPERIMENTS": "register_experiment",
            "repro.experiments.scenarios:FAULT_SCENARIOS": "register_fault_scenario",
        }
        calling = {name: set() for name in registries.values()}
        src = REPO_ROOT / "src"
        for path in src.rglob("*.py"):
            module = ".".join(path.relative_to(src).with_suffix("").parts)
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) in calling:
                    calling[node.func.id].add(module)
        code = (
            "import importlib, json\n"
            "seen = {}\n"
            f"for target in {list(registries)!r}:\n"
            "    module, _, name = target.partition(':')\n"
            "    registry = getattr(importlib.import_module(module), name)\n"
            "    seen[target] = [registry.keys(), list(registry.builtins),\n"
            "                    sorted(set(registry.builtins.values()))]\n"
            "print(json.dumps(seen))\n"
        )
        seen = json.loads(fresh_python(code))
        for target, register in registries.items():
            listed, builtins, modules = seen[target]
            assert listed == builtins, target
            assert set(modules) == calling[register], target

    def test_builtin_mapping_mismatch_fails_loudly(self, monkeypatch):
        # A built-in key whose module registers a different id must raise
        # a ConfigurationError, not a bare KeyError mid-ordering.
        from repro.errors import ConfigurationError
        from repro.experiments import api

        monkeypatch.setitem(api.EXPERIMENTS.builtins, "zz", "repro.experiments.t2_impact_of_f")
        with pytest.raises(ConfigurationError, match="did not register"):
            api.all_experiments()

    def test_duplicate_axis_names_are_rejected(self):
        from repro.errors import ConfigurationError
        from repro.experiments.api import ParamAxis, Section

        with pytest.raises(ConfigurationError, match="duplicate axis names"):
            Section(axes=(ParamAxis("x", field="a"), ParamAxis("x", field="b")))

    def test_mixed_case_ids_are_rejected_at_registration(self):
        # Lookups lowercase the query, so a mixed-case registration would
        # be listed but unresolvable — refuse it up front.
        from repro.errors import ConfigurationError
        from repro.experiments.api import register_experiment

        spec = get_experiment("t2")
        with pytest.raises(ConfigurationError, match="lower-case"):
            register_experiment(
                ExperimentSpec(
                    exp_id="X9",
                    title=spec.title,
                    params_cls=spec.params_cls,
                    axes=spec.axes,
                    run_cell=spec.run_cell,
                    tabulate=spec.tabulate,
                )
            )


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
class TestGridShape:
    def test_cells_nonempty_and_unique(self, exp_id):
        spec = get_experiment(exp_id)
        for params in (spec.make_params(), smoke_params()[exp_id]):
            cells = spec.grid(params)
            assert cells, f"{exp_id}: empty grid"
            rendered = [canonical_json(coords) for coords in cells]
            assert len(set(rendered)) == len(rendered), f"{exp_id}: duplicate cells"

    def test_coords_match_declared_axes(self, exp_id):
        spec = get_experiment(exp_id)
        names = set(spec.axis_names())
        for coords in spec.grid(spec.make_params()):
            assert set(coords) <= names

    def test_cell_seeds_are_distinct(self, exp_id):
        spec = get_experiment(exp_id)
        params = spec.make_params()
        seeds = [cell_seed(exp_id, coords, params.seed) for coords in spec.grid(params)]
        assert len(set(seeds)) == len(seeds)


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
class TestCellContract:
    def test_run_cell_is_deterministic_for_a_fixed_seed(self, exp_id):
        result = smoke_run(exp_id)
        outcome = result.outcomes[0]
        replay = _normalise(
            result.spec.run_cell(result.params, dict(outcome.coords), outcome.seed)
        )
        assert replay == outcome.value

    def test_declared_metrics_present_in_every_cell(self, exp_id):
        result = smoke_run(exp_id)
        metric_names = [metric.name for metric in result.spec.metrics]
        assert metric_names, f"{exp_id}: no declared metrics"
        for outcome in result.outcomes:
            missing = [name for name in metric_names if name not in outcome.value]
            assert not missing, f"{exp_id}: cell {outcome.coords} lacks {missing}"

    def test_tabulate_accepts_its_own_values(self, exp_id):
        result = smoke_run(exp_id)
        tables = result.tables()
        assert tables
        for table in tables:
            assert isinstance(table, Table)
            assert table.rows
            for row in table.rows:
                assert len(row) == len(table.headers)


@pytest.mark.parametrize("exp_id", EXPERIMENTS)
class TestDeclaredShapes:
    def test_declared_shapes_hold_on_smoke_run(self, exp_id):
        # Expected-shape declarations (Monotone/Banded) are asserted
        # generically: whatever an experiment declares must hold on its
        # smoke grid.  Experiments without shapes pass vacuously.
        result = smoke_run(exp_id)
        values = [outcome.value for outcome in result.outcomes]
        violations = check_shapes(result.spec, result.params, values)
        assert not violations, f"{exp_id}: " + "; ".join(violations)


def test_shape_declarations_exist_somewhere():
    # The generic assertion above must not be vacuous across the board.
    declared = {
        exp_id for exp_id, spec in all_experiments().items() if spec.shapes
    }
    assert {"t1", "t3", "a1", "q1"} <= declared


@pytest.mark.parametrize("exp_id", GOLDEN_EXPERIMENTS)
class TestGoldenArtifacts:
    def test_artifact_is_byte_identical_to_golden(self, exp_id, tmp_path):
        path = write_artifact(tmp_path, smoke_run(exp_id))
        golden = GOLDEN_DIR / path.name
        assert golden.exists(), (
            f"missing golden {golden.name}; run `python -m tests.goldens.regenerate`"
        )
        assert path.read_bytes() == golden.read_bytes(), (
            f"{exp_id}: artifact drifted from the committed golden — an axis, "
            "seed or table change is observable; regenerate only if intended"
        )


class TestQ1:
    """The QoS comparison: the registry's first post-port client."""

    def test_default_axis_is_every_registered_detector(self):
        from repro.detectors import detector_keys
        from repro.experiments.q1_qos_comparison import Q1Params

        assert Q1Params().detectors == tuple(detector_keys())

    def test_one_row_per_detector_with_both_qos_axes(self):
        result = smoke_run("q1")
        table = result.tables()[0]
        labels = table.column("detector")
        assert len(labels) == len(result.params.detectors)
        for latency in table.column("detect mean (s)"):
            # every family detected the crash within the horizon
            assert latency == latency and 0.0 < latency < 15.0
        for accuracy in table.column("query accuracy P_A"):
            assert 0.0 <= accuracy <= 1.0


class TestC1:
    """The consensus workload plane's flagship experiment."""

    def test_default_axes_cover_every_detector_and_every_fault_preset(self):
        from repro.detectors import detector_keys
        from repro.experiments.c1_consensus_qos import C1Params
        from repro.experiments.scenarios import fault_scenario_keys

        params = C1Params()
        assert params.detectors == tuple(detector_keys())
        assert set(params.faults) == set(fault_scenario_keys())

    def test_coordcrash_separates_three_detector_families_on_latency(self):
        # The acceptance shape: with the round-1 coordinator dead at start,
        # the in-flight instance pays each family's detection latency —
        # query ≈ Δ + δ, heartbeat ≈ Θ, phi-accrual later still.
        result = smoke_run("c1")
        table = result.tables()[0]
        by_detector = {
            label: latency
            for fault, label, latency in zip(
                table.column("fault"),
                table.column("detector"),
                table.column("latency max (s)"),
            )
            if fault == "coordcrash"
        }
        groups = {round(latency, 1) for latency in by_detector.values()}
        assert len(groups) >= 3, by_detector

    def test_partition_separates_aborted_rounds_by_oracle_style(self):
        # Timer families falsely accuse the far side and churn through
        # nacked rounds; the query families (with retry) just stall.
        result = smoke_run("c1")
        aborted = {
            label: count
            for fault, label, count in zip(
                result.tables()[0].column("fault"),
                result.tables()[0].column("detector"),
                result.tables()[0].column("aborted rounds"),
            )
            if fault == "partition"
        }
        assert min(aborted.values()) == 0
        assert max(aborted.values()) >= 3, aborted

    def test_safety_holds_in_every_cell(self):
        result = smoke_run("c1")
        for outcome in result.outcomes:
            assert outcome.value["agreement"] is True, outcome.coords
            assert outcome.value["validity"] is True, outcome.coords
