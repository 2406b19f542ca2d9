"""The stdlib connectivity flows against the networkx oracle, and their work.

``repro.sim.connectivity`` answers the one question a run asks of a topology
(is it ``(f + 1)``-connected?) with bounded unit flows.  The first half checks
the exact value, the decision at every ``k`` and the local path count against
``tests/reference_connectivity.py`` (skipped without networkx) and against
textbook shapes (never skipped); the second pins the decision's cost as counts
of flows and augmenting searches, not clocks.
"""

import random
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.partial import independent_path_count
from repro.sim import connectivity
from repro.sim.topology import Topology, full_mesh, grid, manet_topology, ring, star
from tests.helpers import counting


@pytest.fixture(scope="module")
def oracle():
    pytest.importorskip("networkx")
    return import_module("tests.reference_connectivity")


def random_topology(rng: random.Random, n: int, p: float) -> Topology:
    ids = list(range(1, n + 1))
    rng.shuffle(ids)
    edges = [(a, b) for i, a in enumerate(ids) for b in ids[:i] if rng.random() < p]
    return Topology(ids, edges)


def agrees_with_oracle(topology: Topology, oracle, rng: random.Random) -> None:
    exact = oracle.reference_node_connectivity(topology)
    assert topology.node_connectivity() == exact
    for k in range(len(topology) + 1):
        assert connectivity.is_k_connected(topology._adjacency, k) == (exact >= k), k
    edges = list(topology.edges())
    apart = [
        (a, b) for a in topology.ids() for b in topology.ids()
        if a != b and not topology.has_edge(a, b)
    ]
    for pairs in (edges, apart):
        if pairs:
            a, b = rng.choice(sorted(pairs))
            expected = oracle.reference_independent_path_count(topology, a, b)
            assert independent_path_count(topology, a, b) == expected, (a, b)
            assert independent_path_count(topology, b, a) == expected, (b, a)


class TestAgainstNetworkx:
    @pytest.mark.parametrize("seed", range(8))
    def test_seeded_graphs(self, oracle, seed):
        rng = random.Random(seed)
        for _ in range(40):
            topology = random_topology(rng, rng.randint(1, 14), rng.uniform(0.2, 0.9))
            agrees_with_oracle(topology, oracle, rng)

    @given(
        n=st.integers(min_value=1, max_value=14),
        p=st.floats(min_value=0.2, max_value=0.9),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=60, deadline=None)
    def test_drawn_graphs(self, oracle, n, p, seed):
        rng = random.Random(seed)
        agrees_with_oracle(random_topology(rng, n, p), oracle, rng)

    @pytest.mark.parametrize("n, f", [(30, 2), (50, 5), (100, 5)])
    def test_manet_construction_is_f_covering(self, oracle, n, f):
        topology = manet_topology(n, f, random.Random(n))
        exact = oracle.reference_node_connectivity(topology)
        assert exact >= f + 1
        assert topology.node_connectivity() == exact
        assert topology.is_f_covering(f)
        assert topology.is_f_covering(exact - 1) and not topology.is_f_covering(exact)


SHAPES = [
    ("K6", full_mesh(range(6)), 5),
    ("ring", ring(range(7)), 2),
    ("star", star(range(6)), 1),
    ("path", Topology([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4)]), 1),
    ("grid 4x4", grid(4, 4), 2),
    ("two components", Topology([1, 2, 3, 4], [(1, 2), (3, 4)]), 0),
    ("one node", Topology([1]), 0),
]


@pytest.mark.parametrize("topology, exact", [shape[1:] for shape in SHAPES],
                         ids=[shape[0] for shape in SHAPES])
def test_named_shapes_have_their_textbook_connectivity(topology, exact):
    assert topology.node_connectivity() == exact
    # up to k = n + 1: no graph is k-connected on k nodes or fewer, K6 included
    for k in range(len(topology) + 2):
        assert connectivity.is_k_connected(topology._adjacency, k) == (k <= exact)


@pytest.mark.parametrize("seed", range(5))
def test_answers_do_not_depend_on_insertion_order(seed):
    rng = random.Random(seed)
    ids = list(range(1, 13))
    edges = [(a, b) for a in ids for b in ids if a < b and rng.random() < 0.45]
    answers = set()
    for _ in range(6):
        rng.shuffle(ids)
        rng.shuffle(edges)
        topology = Topology(ids, [rng.choice([(a, b), (b, a)]) for a, b in edges])
        answers.add((
            topology.node_connectivity(),
            tuple(topology.is_f_covering(f) for f in range(12)),
            tuple(independent_path_count(topology, 1, other) for other in range(2, 13)),
        ))
    assert len(answers) == 1


# -- work, as counts -------------------------------------------------------


@pytest.fixture
def flows(monkeypatch):
    """Augmenting searches of every flow run, in order, one entry per flow."""
    searches = counting(connectivity._augment)
    run_flow = connectivity.local_node_connectivity
    per_flow: list[int] = []

    def counted_flow(*args):
        before = searches.calls
        paths = run_flow(*args)
        per_flow.append(searches.calls - before)
        return paths

    monkeypatch.setattr(connectivity, "_augment", searches)
    monkeypatch.setattr(connectivity, "local_node_connectivity", counted_flow)
    return per_flow


@pytest.mark.parametrize("n, f", [(30, 2), (50, 5), (100, 5)])
def test_a_yes_costs_exactly_evens_flows_of_at_most_k_searches(flows, n, f):
    k = f + 1
    assert manet_topology(n, f, random.Random(n)).is_f_covering(f)
    assert len(flows) == k * (k - 1) // 2 + (n - k)
    assert max(flows) <= k


@pytest.mark.parametrize("seed", range(6))
def test_no_decision_exceeds_evens_bound(flows, seed):
    rng = random.Random(seed)
    for _ in range(25):
        topology = random_topology(rng, rng.randint(2, 14), rng.uniform(0.2, 0.9))
        n = len(topology)
        for k in range(1, n + 1):
            del flows[:]
            connectivity.is_k_connected(topology._adjacency, k)
            assert len(flows) <= k * (k - 1) // 2 + (n - k)
            assert all(searches <= k for searches in flows)


def test_a_degree_below_k_is_rejected_without_a_flow(flows):
    assert not star(range(40)).is_f_covering(1)
    assert flows == []


def test_the_exact_value_cuts_every_flow_at_the_best_bound_so_far(flows):
    topology = ring(range(30))
    assert topology.node_connectivity() == 2
    # min-degree vertex against its 27 non-neighbours, then its two neighbours
    assert len(flows) == 28
    assert max(flows) <= 2
