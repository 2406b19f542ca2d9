"""Unit tests for topologies and the f-covering MANET construction."""

import random

import pytest

from repro.errors import ConfigurationError, TopologyError
from repro.sim import topology as topology_module
from repro.sim.topology import (
    Topology,
    full_mesh,
    grid,
    manet_topology,
    random_geometric,
    ring,
    star,
)


class TestTopologyBasics:
    def test_neighbors_and_degree(self):
        topo = Topology([1, 2, 3], [(1, 2), (2, 3)])
        assert topo.neighbors(2) == frozenset({1, 3})
        assert topo.degree(1) == 1

    def test_unknown_node_raises(self):
        topo = Topology([1, 2], [(1, 2)])
        with pytest.raises(TopologyError):
            topo.neighbors(9)

    def test_self_loop_rejected(self):
        topo = Topology([1, 2])
        with pytest.raises(TopologyError):
            topo.add_edge(1, 1)

    def test_edge_to_unknown_node_rejected(self):
        topo = Topology([1, 2])
        with pytest.raises(TopologyError):
            topo.add_edge(1, 9)

    def test_empty_topology_rejected(self):
        with pytest.raises(ConfigurationError):
            Topology([])

    def test_isolate_returns_former_neighborhood(self):
        topo = ring([1, 2, 3, 4])
        former = topo.isolate(1)
        assert former == frozenset({2, 4})
        assert topo.degree(1) == 0

    def test_connect_restores_edges(self):
        topo = ring([1, 2, 3, 4])
        former = topo.isolate(1)
        topo.connect(1, former)
        assert topo.neighbors(1) == frozenset({2, 4})

    def test_copy_is_deep_for_edges(self):
        topo = ring([1, 2, 3])
        clone = topo.copy()
        clone.remove_edge(1, 2)
        assert topo.has_edge(1, 2)

    def test_edges_are_undirected_and_unique(self):
        topo = full_mesh([1, 2, 3])
        assert len(list(topo.edges())) == 3


class TestDensityAndConnectivity:
    def test_range_density_is_min_degree_plus_one(self):
        # Definition 2: |range_i| = degree + 1.
        topo = star([1, 2, 3, 4])
        assert topo.range_density() == 2  # leaves have degree 1

    def test_full_mesh_connectivity(self):
        topo = full_mesh(range(1, 6))
        assert topo.node_connectivity() == 4
        assert topo.is_f_covering(3)
        assert not topo.is_f_covering(4)

    def test_ring_is_1_covering_only(self):
        topo = ring(range(1, 7))
        assert topo.node_connectivity() == 2
        assert topo.is_f_covering(1)
        assert not topo.is_f_covering(2)

    def test_is_connected(self):
        topo = Topology([1, 2, 3], [(1, 2)])
        assert not topo.is_connected()
        topo.add_edge(2, 3)
        assert topo.is_connected()

    def test_negative_f_rejected(self):
        with pytest.raises(ConfigurationError):
            full_mesh([1, 2]).is_f_covering(-1)

    def test_zero_covering_is_connected_on_at_least_two_nodes(self):
        assert not Topology([1]).is_f_covering(0)
        assert Topology([1, 2], [(1, 2)]).is_f_covering(0)
        assert not Topology([1, 2, 3], [(1, 2)]).is_f_covering(0)

    def test_connectivity_follows_edge_mutation(self):
        topo = ring(range(1, 7))
        topo.remove_edge(1, 2)
        assert topo.node_connectivity() == 1
        assert not topo.is_f_covering(1)
        topo.isolate(4)
        assert topo.node_connectivity() == 0

    def test_a_full_mesh_is_f_covering_up_to_n_minus_two(self):
        # n <= k is never k-connected: K5 is 4-connected, not 5-connected
        topo = full_mesh(range(1, 6))
        assert [topo.is_f_covering(f) for f in range(6)] == [True] * 4 + [False] * 2


class TestConstructors:
    def test_full_mesh_edge_count(self):
        topo = full_mesh(range(1, 11))
        assert len(list(topo.edges())) == 45

    def test_ring_needs_three_nodes(self):
        with pytest.raises(ConfigurationError):
            ring([1, 2])

    def test_grid_shape(self):
        topo = grid(3, 2)
        assert len(topo) == 6
        # corner degree 2, middle of short side degree 3
        assert topo.degree(1) == 2
        assert topo.degree(2) == 3

    def test_star_hub(self):
        topo = star(["hub", "a", "b"])
        assert topo.degree("hub") == 2
        assert not topo.has_edge("a", "b")

    def test_random_geometric_edges_respect_range(self):
        rng = random.Random(5)
        topo = random_geometric(range(1, 20), rng, area=100.0, transmission_range=30.0)
        for a, b in topo.edges():
            ax, ay = topo.positions[a]
            bx, by = topo.positions[b]
            assert ((ax - bx) ** 2 + (ay - by) ** 2) ** 0.5 <= 30.0


class TestManetConstruction:
    def test_density_exceeds_f_plus_one(self):
        # The paper's construction guarantees d > f + 1.
        rng = random.Random(11)
        topo = manet_topology(40, f=2, rng=rng)
        assert topo.range_density() > 3

    def test_min_neighbors_raises_density(self):
        rng = random.Random(11)
        topo = manet_topology(40, f=2, rng=rng, min_neighbors=8)
        assert topo.range_density() >= 9

    def test_all_nodes_have_positions(self):
        rng = random.Random(11)
        topo = manet_topology(25, f=1, rng=rng)
        assert set(topo.positions) == set(topo.ids())

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ConfigurationError):
            manet_topology(3, f=2, rng=random.Random(1))

    def test_min_neighbors_below_f_plus_one_rejected(self):
        with pytest.raises(ConfigurationError):
            manet_topology(20, f=3, rng=random.Random(1), min_neighbors=2)

    def test_impossible_placement_raises(self):
        # A huge area with tiny range cannot give every node f+1 neighbors.
        with pytest.raises(TopologyError):
            manet_topology(
                30,
                f=1,
                rng=random.Random(1),
                area=100_000.0,
                transmission_range=10.0,
                max_attempts_per_node=50,
            )


class TestRecordedRange:
    def test_geometric_builders_record_the_range_and_copy_carries_it(self):
        geometric = random_geometric(range(5), random.Random(1), area=10.0, transmission_range=4.0)
        manet = manet_topology(12, f=1, rng=random.Random(1), transmission_range=80.0)
        assert geometric.transmission_range == geometric.copy().transmission_range == 4.0
        assert manet.transmission_range == manet.copy().transmission_range == 80.0
        assert ring([1, 2, 3]).transmission_range is None

    @pytest.mark.parametrize("reach", [0.0, -1.0])
    def test_non_positive_range_rejected(self, reach):
        with pytest.raises(ConfigurationError):
            random_geometric(range(5), random.Random(1), area=10.0, transmission_range=reach)
        with pytest.raises(ConfigurationError):
            manet_topology(12, f=1, rng=random.Random(1), transmission_range=reach)


class TestConstructionCost:
    """Distance evaluations, counted: the gate has no clock in it.

    The two geometries are the benchmark's ``sim_large_n`` cell and
    ``E1Params.large_n()``, at equal node density (3.2e-4 per unit area).
    An all-pairs build needs 3.2 M evaluations for the first and 3.2x more
    per node for the second.
    """

    @staticmethod
    def evaluations(monkeypatch, n, area):
        calls = 0
        dist = topology_module._dist

        def counting_dist(p, q):
            nonlocal calls
            calls += 1
            return dist(p, q)

        with monkeypatch.context() as patch:
            patch.setattr(topology_module, "_dist", counting_dist)
            manet_topology(n, f=4, rng=random.Random(7), area=area, min_neighbors=9)
        return calls

    def test_evaluations_per_node_do_not_grow_with_n(self, monkeypatch):
        at_800 = self.evaluations(monkeypatch, 800, 1581.0)
        at_2000 = self.evaluations(monkeypatch, 2000, 2500.0)
        assert at_800 < 400_000
        assert at_2000 / 2000 < 2.0 * (at_800 / 800)


class TestNeighborCaches:
    def test_sorted_neighbors_matches_sorted_frozenset(self):
        topo = full_mesh([1, 2, 3, 4])
        assert topo.sorted_neighbors(1) == tuple(sorted(topo.neighbors(1), key=repr))

    def test_sorted_neighbors_unknown_node_raises(self):
        with pytest.raises(TopologyError):
            full_mesh([1, 2]).sorted_neighbors(9)

    def test_caches_invalidated_on_add_edge(self):
        topo = ring([1, 2, 3, 4])
        assert topo.sorted_neighbors(1) == (2, 4)
        assert topo.neighbors(1) == frozenset({2, 4})
        topo.add_edge(1, 3)
        assert topo.sorted_neighbors(1) == (2, 3, 4)
        assert topo.neighbors(1) == frozenset({2, 3, 4})
        assert topo.sorted_neighbors(3) == (1, 2, 4)

    def test_caches_invalidated_on_remove_edge(self):
        topo = full_mesh([1, 2, 3])
        assert topo.sorted_neighbors(1) == (2, 3)
        topo.remove_edge(1, 2)
        assert topo.sorted_neighbors(1) == (3,)
        assert topo.neighbors(2) == frozenset({3})

    def test_neighbors_is_built_per_call_from_the_live_adjacency(self):
        topo = full_mesh([1, 2, 3, 4])
        # one adjacency set per node and the broadcast order: no frozenset copy
        assert set(vars(topo)) == {"_adjacency", "_sorted_cache", "positions", "transmission_range"}
        assert topo.neighbors(1) == topo.neighbors(1) == frozenset({2, 3, 4})
        assert topo.neighbors(1) is not topo.neighbors(1)
        topo.remove_edge(1, 2)
        assert topo.neighbors(1) == frozenset({3, 4})
        former = topo.isolate(1)
        assert former == frozenset({3, 4}) and topo.neighbors(1) == frozenset()
        topo.add_edge(1, 2)
        assert topo.neighbors(1) == frozenset({2}) and topo.neighbors(2) == frozenset({1, 3, 4})

    def test_caches_invalidated_through_isolate_and_connect(self):
        topo = full_mesh([1, 2, 3, 4])
        former = topo.isolate(2)
        assert topo.neighbors(2) == frozenset()
        assert topo.sorted_neighbors(1) == (3, 4)
        topo.connect(2, former)
        assert topo.sorted_neighbors(2) == (1, 3, 4)
        assert topo.sorted_neighbors(1) == (2, 3, 4)


# seed counts whose antipodal seeds, at a radius of exactly r / 2, round to
# 100.00000000000003 > r apart
@pytest.mark.parametrize("seeds", [6, 12, 14, 16, 18, 20, 22])
def test_seed_clique_is_a_clique(seeds):
    topo = manet_topology(
        n=seeds, f=seeds - 2, min_neighbors=seeds - 1, rng=random.Random(1)
    )
    for pid in topo.ids():
        assert topo.neighbors(pid) == topo.ids() - {pid}
