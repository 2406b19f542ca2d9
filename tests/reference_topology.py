"""Reference model of geometric topology construction: the all-pairs version.

This is ``manet_topology`` / ``random_geometric`` / ``_connect_by_range`` as
they stood before positions were bucketed by cell — every candidate tested
against every placed node, every pair tested for an edge — kept as the
oracle the indexed builders must match in object state, not merely as a
graph: positions in insertion order, every adjacency set's insertion
history, the RNG's next draw (``tests/property/test_topology_index.py``).
Argument validation is not part of the model; callers pass valid input.
"""

from __future__ import annotations

import math
import random
from typing import Iterable

from repro.errors import TopologyError
from repro.ids import ProcessId
from repro.sim.topology import Topology


def reference_random_geometric(
    ids: Iterable[ProcessId],
    rng: random.Random,
    *,
    area: float,
    transmission_range: float,
) -> Topology:
    id_list = list(ids)
    positions = {
        pid: (rng.uniform(0, area), rng.uniform(0, area)) for pid in id_list
    }
    topo = Topology(id_list, positions=positions)
    reference_connect_by_range(topo, transmission_range)
    return topo


def reference_manet_topology(
    n: int,
    f: int,
    rng: random.Random,
    *,
    area: float = 700.0,
    transmission_range: float = 100.0,
    min_neighbors: int | None = None,
    max_attempts_per_node: int = 10_000,
) -> Topology:
    if min_neighbors is None:
        min_neighbors = f + 1
    seed_count = max(f + 2, min_neighbors + 1)
    ids = list(range(1, n + 1))
    center = area / 2.0
    positions: dict[int, tuple[float, float]] = {}
    # just inside r / 2: rounding must not put antipodal seeds past r
    radius = (transmission_range / 2.0) * (1.0 - 2.0**-40)
    for index in range(seed_count):
        angle = 2.0 * math.pi * index / seed_count
        positions[ids[index]] = (
            center + radius * math.cos(angle),
            center + radius * math.sin(angle),
        )
    for pid in ids[seed_count:]:
        for _ in range(max_attempts_per_node):
            candidate = (rng.uniform(0, area), rng.uniform(0, area))
            neighbors = sum(
                1
                for pos in positions.values()
                if _dist(candidate, pos) <= transmission_range
            )
            if neighbors >= min_neighbors:
                positions[pid] = candidate
                break
        else:
            raise TopologyError(
                f"could not place node {pid} with {min_neighbors} neighbors after "
                f"{max_attempts_per_node} attempts (area too large for n?)"
            )
    topo = Topology(ids, positions=positions)
    reference_connect_by_range(topo, transmission_range)
    return topo


def reference_connect_by_range(topo: Topology, transmission_range: float) -> None:
    id_list = sorted(topo.ids(), key=repr)
    for i, a in enumerate(id_list):
        for b in id_list[i + 1 :]:
            if _dist(topo.positions[a], topo.positions[b]) <= transmission_range:
                topo.add_edge(a, b)


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])
