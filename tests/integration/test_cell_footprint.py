"""What a running MANET cell holds: one graph (the Scenario hand-over rule).

Counts and shapes only, no clock and no byte threshold.  e1 and e2 build a
``Topology``, validate it and run the cluster on ``Topology.copy()``; before
the hand-over rule they also kept the validated original (and the
per-node frozenset cache its validation filled) alive until the cell
returned, to call ``range_density()`` once more after the run.
"""

import gc
import json

import pytest

from repro.harness import get_spec
from repro.sim import SimCluster
from repro.sim.topology import Topology
from tests.goldens import GOLDEN_DIR, smoke_params
from tests.helpers import live_instances


def live_topologies() -> int:
    gc.collect()
    return live_instances(Topology)


@pytest.mark.parametrize("exp_id, reported", [("e1", ("actual_d",)), ("e2", ("d", "mover"))])
def test_a_running_cell_holds_one_topology(monkeypatch, exp_id, reported):
    """Exactly one ``Topology`` is reachable while ``SimCluster.run`` executes.

    What the cell reports about its graph is now read before the run instead
    of after it.  The committed goldens already pin those values (``actual_d``
    6 for e1; ``d`` 9 and ``mover`` 2 for e2, the mover's relocation changes
    the live graph mid-run); they are compared here so this file fails alone
    if the hand-over ever reads them from the wrong graph.
    """
    spec, params = get_spec(exp_id), smoke_params()[exp_id]
    during: list[int] = []
    run = SimCluster.run

    def counting_run(self, until):
        during.append(live_topologies())
        return run(self, until)

    monkeypatch.setattr(SimCluster, "run", counting_run)
    before = live_topologies()
    value = spec.run_cell(params, spec.grid(params)[0], 0)
    assert during == [before + 1]
    golden = json.loads((GOLDEN_DIR / f"BENCH_{exp_id.upper()}.json").read_text())
    pinned = golden["cells"][0]["value"]
    assert {name: value[name] for name in reported} == {name: pinned[name] for name in reported}
