"""What each entry point imports, and that the lazy package surfaces hide it.

``repro``, ``repro.sim`` and ``repro.harness`` resolve their public names on
first access (:mod:`repro._lazy`), ``repro run EXP`` imports only the
experiment it was given, and the process pool loads at the first
``workers > 1``.  The first half counts modules in fresh interpreters (sets
and counts, no clocks: they repeat exactly), at import time and after a run,
and reads every ``import`` statement under ``src/``; the second half checks
that nothing about the three surfaces is observable except *when* a submodule
loads.  Run this file after touching any ``__init__.py`` or adding an
``import`` anywhere under ``src/``.
"""

import ast
import functools
import re
import sys
from importlib import import_module

import pytest

import repro
import repro.harness
import repro.sim
from tests.helpers import REPO_ROOT, fresh_python

MARK = "== sys.modules =="

#: what a simulator or harness process must not pay for
NOT_FOR_A_SIMULATION = {
    "asyncio", "ssl", "multiprocessing", "concurrent.futures.process", "sqlite3",
    "repro.runtime",
}
RUN_Q1_DRY = 'from repro.harness import cli; cli.main(["run", "q1", "--dry-run"])'


@functools.cache
def fresh(code: str) -> frozenset[str]:
    """``sys.modules`` of a fresh interpreter after running ``code``."""
    out = fresh_python(f"import sys\n{code}\nprint({MARK!r}, *sorted(sys.modules))")
    return frozenset(out.rpartition(MARK)[2].split())


def ours(modules: frozenset[str]) -> set[str]:
    return {name for name in modules if name == "repro" or name.startswith("repro.")}


@pytest.mark.parametrize(
    "code", ["import repro.sim.cluster", "import repro.harness", RUN_Q1_DRY]
)
def test_simulator_and_harness_load_no_runtime_no_pool_no_ledger(code):
    assert not fresh(code) & NOT_FOR_A_SIMULATION


def test_runtime_loads_latency_and_rng_and_nothing_else_of_the_simulator():
    loaded = ours(fresh("import repro.runtime"))
    assert {name for name in loaded if name.startswith("repro.sim")} == {
        "repro.sim", "repro.sim.latency", "repro.sim.rng",
    }
    assert not loaded & {"repro.harness", "repro.experiments"}
    assert len(loaded) <= 21  # 29 before the surfaces were lazy


def test_running_one_grid_imports_one_experiment():
    loaded = ours(fresh(RUN_Q1_DRY))
    experiments = {
        name for name in loaded if re.fullmatch(r"repro\.experiments\.[a-z]\d_\w+", name)
    }
    assert experiments == {"repro.experiments.q1_qos_comparison"}
    assert "repro.consensus" not in loaded
    assert len(loaded) <= 45  # 76 when the CLI resolved every experiment


def test_pool_is_imported_by_the_first_parallel_grid_and_changes_no_value():
    loaded = fresh(
        "from repro.harness import get_spec, run_grid\n"
        "from tests.goldens import smoke_params\n"
        "spec, params = get_spec('t2'), smoke_params()['t2']\n"
        "serial = run_grid(spec, params, workers=1).values\n"
        "assert 'concurrent.futures.process' not in sys.modules\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert run_grid(spec, params, workers=2).values == serial\n"
    )
    assert "concurrent.futures.process" in loaded


# -- run time: the package is stdlib-only, as pyproject.toml says -----------

def test_a_run_imports_only_the_stdlib_and_stays_small():
    # e1 certifies a MANET as (f+1)-connected, e2 moves a node: the two grids
    # that reach every topology routine.  The snapshot keeps whatever the
    # environment's own .pth files preload out of the comparison.
    out = fresh_python(
        "import sys\n"
        "before = set(sys.modules)\n"
        "from repro.harness import get_spec, run_grid\n"
        "from tests.goldens import smoke_params\n"
        "for name in ('e1', 'e2'):\n"
        "    run_grid(get_spec(name), smoke_params()[name], workers=1)\n"
        "print(len(sys.modules), *sorted(set(sys.modules) - before))\n"
    )
    held, *added = out.split()
    assert "networkx" not in added
    packages = {name.partition(".")[0] for name in added}
    assert packages <= sys.stdlib_module_names | {"repro", "tests"}
    assert int(held) <= 260  # 235; 538 while the f-covering check imported networkx


def _absolute_imports(path):
    """Top-level package of every absolute import in ``path``, at any depth."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0], node.lineno


def test_source_imports_name_only_the_stdlib_and_repro():
    # function-level imports included: those load at run time, where the
    # module counts above only see the grids they happen to run
    sources = sorted((REPO_ROOT / "src" / "repro").rglob("*.py"))
    assert len(sources) > 80
    foreign = [
        f"{path.relative_to(REPO_ROOT)}:{line}: {package}"
        for path in sources
        for package, line in _absolute_imports(path)
        if package not in sys.stdlib_module_names and package != "repro"
    ]
    assert not foreign


# -- transparency of the lazy surfaces ------------------------------------

SURFACES = [repro, repro.sim, repro.harness]

#: the public names at the commit before the surfaces became lazy
ALL_BEFORE = {
    "repro": """DetectorConfig DetectorService FDClass FailureDetector LocalCluster
        ProcessId Query QueryRoundOutcome ReproError Response ServicePacing
        TimeFreeDetector __version__ make_membership""",
    "repro.sim": """BiasedLatency ConstantLatency CrashFault EventHandle
        ExponentialLatency FaultPlan LatencyModel LogNormalLatency
        MessagePatternMonitor MobilityFault PairwiseLatency ParetoLatency QueryPacing
        QueryResponseDriver RegimeShiftLatency RngStreams RoundRecord Scheduler
        SimCluster SimNetwork SimProcess SuspicionChange TimeAwareLatency TimedDriver
        Topology TraceRecorder UniformLatency full_mesh grid heartbeat_driver_factory
        manet_topology random_geometric ring time_free_driver_factory""",
    "repro.harness": """CacheStats CellOutcome FileLedger GridResult GridStatus
        LeaseLedger LedgerCounts PruneReport ResultCache ScenarioSpec SqliteLedger
        StreamStats StreamedGridRun WorkerReport all_specs artifact_name
        artifact_payload assemble_artifact cache_key cell_seed ensure_manifest
        entry_point_modules evaluate_cell get_spec grid_reap grid_status load_plugins
        open_ledger plugin_modules plugin_sources run_cells run_grid
        run_grid_streaming run_grid_worker stream_outcomes with_detectors
        with_overrides write_artifact""",
}


@pytest.mark.parametrize("package", SURFACES, ids=lambda package: package.__name__)
class TestLazySurface:
    def test_all_is_unchanged_and_is_the_export_map(self, package):
        listed = [name for names in package._EXPORTS.values() for name in names]
        assert len(listed) == len(set(listed)), "a name exported from two submodules"
        assert set(package.__all__) == set(ALL_BEFORE[package.__name__].split())
        assert set(package.__all__) - {"__version__"} == set(listed)

    def test_every_name_is_the_object_its_submodule_defines(self, package):
        for submodule, names in package._EXPORTS.items():
            defining = import_module(submodule, package.__name__)
            for name in names:
                assert getattr(package, name) is getattr(defining, name)
                # not cached: the next access goes to the submodule again
                assert name not in vars(package)

    def test_dir_and_star_import_see_every_name(self, package):
        assert set(package.__all__) <= set(dir(package))
        assert "__doc__" in dir(package)
        namespace: dict = {}
        exec(f"from {package.__name__} import *", namespace)
        assert set(package.__all__) <= set(namespace)

    def test_unknown_attribute_names_the_package(self, package):
        with pytest.raises(AttributeError, match=repr(package.__name__)):
            package.no_such_name


def test_a_name_patched_where_it_is_defined_is_seen_through_the_package(monkeypatch):
    import repro.harness.runner

    original = repro.harness.runner.run_grid

    def shim(*args, **kwargs):
        raise AssertionError("never called")

    with monkeypatch.context() as patch:
        patch.setattr(repro.harness.runner, "run_grid", shim)
        assert repro.harness.run_grid is shim
        from repro.harness import run_grid

        assert run_grid is shim
    assert repro.harness.run_grid is original
    from repro.harness import run_grid

    assert run_grid is original


def _documented_imports():
    """``from repro[.sim|.harness] import ...`` lines of README, docs, examples."""
    sources = [REPO_ROOT / "README.md", *sorted((REPO_ROOT / "docs").glob("*.md")),
               *sorted((REPO_ROOT / "examples").glob("*.py"))]
    pattern = re.compile(r"^\s*(from repro(?:\.sim|\.harness)? import [\w, ]+)$", re.M)
    return sorted({line for path in sources for line in pattern.findall(path.read_text())})


def test_documented_imports_run_unchanged():
    lines = _documented_imports()
    assert "from repro import LocalCluster" in lines
    assert any(line.startswith("from repro.sim import") for line in lines)
    for line in lines:
        exec(line, {})
