"""The cell-indexed geometric builders against the all-pairs reference model.

``repro.sim.topology`` looks only at the 3 x 3 block of cells around a point;
``tests/reference_topology.py`` looks at every node.  They must leave the
same object state — positions in the same insertion order, every adjacency
set filled in the same order, the RNG at the same draw — or a golden moves.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.sim.topology import Topology, _cell, _connect_by_range, manet_topology, random_geometric
from tests.helpers import ScriptedUniform
from tests.reference_topology import (
    reference_connect_by_range,
    reference_manet_topology,
    reference_random_geometric,
)


def assert_same_state(built: Topology, expected: Topology) -> None:
    assert list(built.positions.items()) == list(expected.positions.items())
    assert list(built._adjacency) == list(expected._adjacency)
    for pid, nbrs in expected._adjacency.items():
        assert list(built._adjacency[pid]) == list(nbrs), pid


def connect_both_ways(positions: dict, reach: float) -> Topology:
    """Wire ``positions`` with the index and with the reference; return the former."""
    built = Topology(positions, positions=positions, transmission_range=reach)
    _connect_by_range(built)
    expected = Topology(positions, positions=positions)
    reference_connect_by_range(expected, reach)
    assert_same_state(built, expected)
    return built


class TestManetDifferential:
    @given(
        n_extra=st.integers(min_value=0, max_value=40),
        f=st.integers(min_value=0, max_value=3),
        extra_neighbors=st.integers(min_value=0, max_value=4),
        # 0.3: one cell holds everything; 30: mostly empty cells, placement fails
        area_over_range=st.sampled_from([0.3, 0.99, 1.0, 2.0, 3.5, 7.0, 30.0]),
        transmission_range=st.sampled_from([0.1, 1.0, 10.0, 100.0, 123.456]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_state_same_error_same_next_draw(
        self, n_extra, f, extra_neighbors, area_over_range, transmission_range, seed
    ):
        min_neighbors = f + 1 + extra_neighbors
        kwargs = dict(
            area=area_over_range * transmission_range,
            transmission_range=transmission_range,
            min_neighbors=min_neighbors,
            max_attempts_per_node=60,
        )
        n = max(f + 2, min_neighbors + 1) + n_extra
        rng, reference_rng = random.Random(seed), random.Random(seed)
        try:
            expected = reference_manet_topology(n, f, reference_rng, **kwargs)
        except TopologyError as error:
            with pytest.raises(TopologyError) as raised:
                manet_topology(n, f, rng, **kwargs)
            assert str(raised.value) == str(error)
        else:
            assert_same_state(manet_topology(n, f, rng, **kwargs), expected)
        assert rng.random() == reference_rng.random()

    def test_sparse_area_exhausts_the_same_attempts(self):
        # area >> r: almost every cell is empty, and the failed node has drawn
        # exactly max_attempts_per_node pairs in both versions.
        kwargs = dict(area=100_000.0, transmission_range=10.0, max_attempts_per_node=50)
        rng, reference_rng = random.Random(1), random.Random(1)
        with pytest.raises(TopologyError):
            manet_topology(30, 1, rng, **kwargs)
        with pytest.raises(TopologyError):
            reference_manet_topology(30, 1, reference_rng, **kwargs)
        assert rng.random() == reference_rng.random()

    @pytest.mark.parametrize("n,area", [(100, 700.0), (800, 1581.0)])
    def test_benchmark_geometries(self, n, area):
        built = manet_topology(n, 4, random.Random(7), area=area, min_neighbors=9)
        expected = reference_manet_topology(n, 4, random.Random(7), area=area, min_neighbors=9)
        assert_same_state(built, expected)

    def test_candidate_at_exactly_the_range_is_accepted(self):
        # f = 0: two seeds, at (400, 350) and (300, 350 + 6e-15).  The scripted
        # candidates sit exactly r from the first seed, in the next cell column.
        script = [500.0, 350.0, 400.0, 450.0, 600.0, 350.0]
        built = manet_topology(5, 0, ScriptedUniform(script))
        expected = reference_manet_topology(5, 0, ScriptedUniform(script))
        assert_same_state(built, expected)
        assert math.hypot(500.0 - 400.0, 0.0) == built.transmission_range
        assert built.has_edge(1, 3) and built.has_edge(1, 4) and built.has_edge(3, 5)
        assert not built.has_edge(1, 5)


ids_strategy = st.lists(
    st.one_of(
        st.integers(min_value=-50, max_value=500),
        st.text(alphabet="abcXYZ019", min_size=1, max_size=3),
        st.tuples(st.integers(0, 9), st.text(alphabet="pq", max_size=1)),
    ),
    min_size=1,
    max_size=60,
    unique=True,
)


class TestRandomGeometricDifferential:
    @given(
        ids=ids_strategy,
        area=st.sampled_from([1.0, 50.0, 700.0]),
        range_over_area=st.sampled_from([0.01, 0.1, 0.34, 1.0, 2.5]),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=150, deadline=None)
    def test_same_state_for_any_hashable_ids(self, ids, area, range_over_area, seed):
        # non-int ids: the edge order is that of sorted(ids, key=repr)
        reach = area * range_over_area
        rng, reference_rng = random.Random(seed), random.Random(seed)
        built = random_geometric(ids, rng, area=area, transmission_range=reach)
        expected = reference_random_geometric(
            ids, reference_rng, area=area, transmission_range=reach
        )
        assert_same_state(built, expected)
        assert rng.random() == reference_rng.random()


def ulps_off(value: float, ulps: int) -> float:
    for _ in range(abs(ulps)):
        value = math.nextafter(value, math.copysign(math.inf, ulps))
    return value


class TestBoundaries:
    REACH = 100.0
    SIDE = REACH * (1.0 + 2.0**-40)

    def test_cell_side_is_wider_than_the_range(self):
        assert self.SIDE > self.REACH
        assert _cell((self.SIDE, 2 * self.SIDE), self.REACH) == (1, 2)
        assert _cell((math.nextafter(self.SIDE, 0.0), 0.0), self.REACH) == (0, 0)
        assert _cell((-1e-9, -self.SIDE), self.REACH) == (-1, -1)

    def test_two_points_at_exactly_the_range(self):
        topo = connect_both_ways({1: (0.0, 0.0), 2: (60.0, 80.0), 3: (100.0, 0.0)}, self.REACH)
        assert math.hypot(60.0, 80.0) == self.REACH
        assert topo.has_edge(1, 2) and topo.has_edge(1, 3)

    def test_in_range_pair_in_adjacent_cells_out_of_range_pair_two_cells_apart(self):
        # 1 is the last float of cell 0; 2 is the farthest float still in range
        # of it; 3 is the first float of cell 2, as close to 1 as two cells
        # apart can be, and already out of range.
        low = math.nextafter(self.SIDE, 0.0)
        far = low + self.REACH
        while far - low > self.REACH:
            far = math.nextafter(far, 0.0)
        positions = {1: (low, 0.0), 2: (far, 0.0), 3: (2 * self.SIDE, 0.0)}
        topo = connect_both_ways(positions, self.REACH)
        assert [_cell(positions[pid], self.REACH)[0] for pid in (1, 2, 3)] == [0, 1, 2]
        assert topo.has_edge(1, 2) and topo.has_edge(2, 3)
        assert not topo.has_edge(1, 3)

    def test_coordinates_on_multiples_of_the_cell_side_and_of_the_range(self):
        positions = {}
        for k in range(4):
            for base in (k * self.SIDE, k * self.REACH):
                for x in (ulps_off(base, -1), base, ulps_off(base, 1)):
                    positions[len(positions)] = (x, k * self.SIDE)
                    positions[len(positions)] = (k * self.REACH, x)
        connect_both_ways(positions, self.REACH)

    def test_coincident_points(self):
        spot = (self.SIDE, self.SIDE)
        topo = connect_both_ways({"a": spot, "b": spot, "c": spot, "d": (0.0, 0.0)}, self.REACH)
        assert topo.neighbors("a") == frozenset({"b", "c"})

    def test_negative_coordinates(self):
        # r > area puts part of the seed circle below zero
        built = manet_topology(12, 2, random.Random(3), area=50.0, transmission_range=180.0)
        assert min(min(p) for p in built.positions.values()) < 0.0
        connect_both_ways(built.positions, 180.0)

    @given(
        points=st.lists(
            st.tuples(
                st.integers(min_value=-2, max_value=6),  # lattice step, x
                st.integers(min_value=-2, max_value=6),  # lattice step, y
                st.sampled_from([0.5, 1.0, 1.0 + 2.0**-40]),  # lattice pitch over r
                st.integers(min_value=-2, max_value=2),  # ulps off the lattice, x
                st.integers(min_value=-2, max_value=2),  # ulps off the lattice, y
            ),
            min_size=2,
            max_size=40,
        ),
        reach=st.sampled_from([0.1, 1.0, 3.0, 100.0, 1e6 / 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_points_an_ulp_off_cell_and_range_lattices(self, points, reach):
        positions = {
            index: (ulps_off(gx * pitch * reach, ux), ulps_off(gy * pitch * reach, uy))
            for index, (gx, gy, pitch, ux, uy) in enumerate(points)
        }
        connect_both_ways(positions, reach)
