"""Network topologies, including the f-covering MANET construction.

The DSN 2003 core model is a fully connected network (:func:`full_mesh`).
The partial-connectivity extension needs *f-covering* networks — graphs that
remain connected after removing any ``f`` nodes, i.e. ``(f + 1)``-connected
(Menger's theorem).  :func:`manet_topology` reproduces the construction used
by the follow-up report's evaluation: seed a clique of ``f + 2`` nodes placed
on a circle of radius ``r / 2``, then repeatedly drop a uniformly random
point in the region and keep it only if it has at least ``f + 1`` neighbors
within transmission range ``r``.  Positions are bucketed by square cells just
over ``r`` wide and a point is compared only with the 3 x 3 block of cells
around it (see ``_cell``), so a build costs O(n * d) distance evaluations.

:class:`Topology` is deliberately a tiny mutable adjacency structure —
mobility support needs edges to come and go during a run.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Iterator, Mapping

from ..errors import ConfigurationError, TopologyError
from ..ids import ProcessId
from . import connectivity

__all__ = [
    "Topology",
    "full_mesh",
    "ring",
    "grid",
    "star",
    "random_geometric",
    "manet_topology",
]


class Topology:
    """An undirected graph over process ids with optional node positions."""

    def __init__(
        self,
        ids: Iterable[ProcessId],
        edges: Iterable[tuple[ProcessId, ProcessId]] = (),
        positions: Mapping[ProcessId, tuple[float, float]] | None = None,
        *,
        transmission_range: float | None = None,
    ) -> None:
        #: each node's neighbours as the keys of a dict, in insertion order (a
        #: set's hash table is 2-4x larger at range size)
        self._adjacency: dict[ProcessId, dict[ProcessId, None]] = {pid: {} for pid in ids}
        #: per-node broadcast order, rebuilt lazily after edge mutations
        self._sorted_cache: dict[ProcessId, tuple[ProcessId, ...]] = {}
        if not self._adjacency:
            raise ConfigurationError("topology must contain at least one node")
        for a, b in edges:
            self.add_edge(a, b)
        self.positions: dict[ProcessId, tuple[float, float]] = dict(positions or {})
        #: the radio reach a geometric topology was wired with (relocation reuses it)
        self.transmission_range = transmission_range

    # -- structure ---------------------------------------------------------
    def ids(self) -> frozenset[ProcessId]:
        return frozenset(self._adjacency)

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, pid: ProcessId) -> bool:
        return pid in self._adjacency

    def neighbors(self, pid: ProcessId) -> frozenset[ProcessId]:
        """A snapshot of the neighborhood, built per call (no per-message path reads it)."""
        try:
            return frozenset(self._adjacency[pid])
        except KeyError:
            raise TopologyError(f"unknown node {pid!r}") from None

    def sorted_neighbors(self, pid: ProcessId) -> tuple[ProcessId, ...]:
        """The neighborhood in canonical (repr) order, cached.

        Broadcast iterates destinations in this order so traces are
        deterministic; caching the sort removes an O(d log d) cost from
        every broadcast.  Invalidation happens on edge mutation.
        """
        cached = self._sorted_cache.get(pid)
        if cached is not None:
            return cached
        try:
            nbrs = self._adjacency[pid]
        except KeyError:
            raise TopologyError(f"unknown node {pid!r}") from None
        cached = self._sorted_cache[pid] = tuple(sorted(nbrs, key=repr))
        return cached

    def _invalidate(self, a: ProcessId, b: ProcessId) -> None:
        self._sorted_cache.pop(a, None)
        self._sorted_cache.pop(b, None)

    def degree(self, pid: ProcessId) -> int:
        return len(self._adjacency[pid])

    def has_edge(self, a: ProcessId, b: ProcessId) -> bool:
        return b in self._adjacency.get(a, ())

    def edges(self) -> Iterator[tuple[ProcessId, ProcessId]]:
        seen = set()
        for a, nbrs in self._adjacency.items():
            for b in nbrs:
                if (b, a) not in seen:
                    seen.add((a, b))
                    yield (a, b)

    def add_edge(self, a: ProcessId, b: ProcessId) -> None:
        if a == b:
            raise TopologyError(f"self-loop on {a!r}")
        if a not in self._adjacency or b not in self._adjacency:
            missing = a if a not in self._adjacency else b
            raise TopologyError(f"unknown node {missing!r}")
        self._adjacency[a][b] = None
        self._adjacency[b][a] = None
        self._invalidate(a, b)

    def remove_edge(self, a: ProcessId, b: ProcessId) -> None:
        self._adjacency.get(a, {}).pop(b, None)
        self._adjacency.get(b, {}).pop(a, None)
        self._invalidate(a, b)

    def isolate(self, pid: ProcessId) -> frozenset[ProcessId]:
        """Drop all edges of ``pid`` (mobility: the node left its range).

        Returns the former neighborhood so it can be restored later.
        """
        former = self.neighbors(pid)
        for other in former:
            self.remove_edge(pid, other)
        return former

    def connect(self, pid: ProcessId, neighbors: Iterable[ProcessId]) -> None:
        """Attach ``pid`` to each of ``neighbors`` (mobility: reconnection)."""
        for other in neighbors:
            self.add_edge(pid, other)

    def copy(self) -> "Topology":
        """An independent graph with the same nodes, edges, positions and reach.

        Each neighbour dict is copied as it stands, node and neighbour
        order included.
        """
        reach = self.transmission_range
        clone = Topology(self._adjacency, positions=self.positions, transmission_range=reach)
        for pid, nbrs in self._adjacency.items():
            clone._adjacency[pid].update(nbrs)
        return clone

    # -- metrics used by the paper ------------------------------------------
    def range_density(self) -> int:
        """``d`` = size of the smallest *range* = min degree + 1 (Def. 2)."""
        return min(len(nbrs) for nbrs in self._adjacency.values()) + 1

    def is_connected(self) -> bool:
        start = next(iter(self._adjacency))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nbr in self._adjacency[node]:
                if nbr not in seen:
                    seen.add(nbr)
                    frontier.append(nbr)
        return len(seen) == len(self._adjacency)

    def node_connectivity(self) -> int:
        """Vertex connectivity (Menger); an f-covering net needs ``>= f + 1``."""
        return connectivity.node_connectivity(self._adjacency)

    def is_f_covering(self, f: int) -> bool:
        """Definition 3: the network is f-covering iff (f+1)-connected."""
        if f < 0:
            raise ConfigurationError(f"f must be >= 0, got {f}")
        return connectivity.is_k_connected(self._adjacency, f + 1)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------


def full_mesh(ids: Iterable[ProcessId]) -> Topology:
    """Every pair connected — the DSN 2003 core model."""
    id_list = list(ids)
    edges = [
        (id_list[i], id_list[j])
        for i in range(len(id_list))
        for j in range(i + 1, len(id_list))
    ]
    return Topology(id_list, edges)


def ring(ids: Iterable[ProcessId]) -> Topology:
    id_list = list(ids)
    if len(id_list) < 3:
        raise ConfigurationError("a ring needs at least 3 nodes")
    edges = [(id_list[i], id_list[(i + 1) % len(id_list)]) for i in range(len(id_list))]
    return Topology(id_list, edges)


def grid(width: int, height: int) -> Topology:
    """A ``width x height`` grid with integer ids ``1..width*height``."""
    if width < 1 or height < 1:
        raise ConfigurationError("grid dimensions must be >= 1")
    ids = list(range(1, width * height + 1))
    edges = []
    for row in range(height):
        for col in range(width):
            node = row * width + col + 1
            if col + 1 < width:
                edges.append((node, node + 1))
            if row + 1 < height:
                edges.append((node, node + width))
    return Topology(ids, edges)


def star(ids: Iterable[ProcessId]) -> Topology:
    """First id is the hub."""
    id_list = list(ids)
    if len(id_list) < 2:
        raise ConfigurationError("a star needs at least 2 nodes")
    hub = id_list[0]
    return Topology(id_list, [(hub, other) for other in id_list[1:]])


def random_geometric(
    ids: Iterable[ProcessId],
    rng: random.Random,
    *,
    area: float,
    transmission_range: float,
) -> Topology:
    """Uniformly random placement in an ``area x area`` square; edges by range.

    No connectivity guarantee — use :func:`manet_topology` when the
    f-covering property is required.
    """
    if transmission_range <= 0:
        raise ConfigurationError(f"transmission_range must be > 0, got {transmission_range}")
    id_list = list(ids)
    positions = {
        pid: (rng.uniform(0, area), rng.uniform(0, area)) for pid in id_list
    }
    topo = Topology(id_list, positions=positions, transmission_range=transmission_range)
    _connect_by_range(topo)
    return topo


def manet_topology(
    n: int,
    f: int,
    rng: random.Random,
    *,
    area: float = 700.0,
    transmission_range: float = 100.0,
    min_neighbors: int | None = None,
    max_attempts_per_node: int = 10_000,
) -> Topology:
    """The follow-up report's gradual f-covering construction (Section 6).

    Seed a clique of ``max(f + 2, min_neighbors + 1)`` nodes on a circle of
    radius ``r / 2`` in the middle of the region, then add nodes at
    uniformly random positions, accepting a placement only if it yields at
    least ``min_neighbors`` neighbors (default ``f + 1``, the paper's
    acceptance rule).  Raising ``min_neighbors`` is how the density
    experiment (E1) sweeps the range density ``d``.  Positions are kept so
    mobility can move nodes geometrically.
    """
    if transmission_range <= 0:
        raise ConfigurationError(f"transmission_range must be > 0, got {transmission_range}")
    if min_neighbors is None:
        min_neighbors = f + 1
    if min_neighbors < f + 1:
        raise ConfigurationError(
            f"min_neighbors must be >= f + 1, got {min_neighbors} with f={f}"
        )
    seed_count = max(f + 2, min_neighbors + 1)
    if n < seed_count:
        raise ConfigurationError(f"need n >= {seed_count}, got n={n}")
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
    cells: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for pos in positions.values():
        cells.setdefault(_cell(pos, transmission_range), []).append(pos)
    for pid in ids[seed_count:]:
        for _ in range(max_attempts_per_node):
            candidate = (rng.uniform(0, area), rng.uniform(0, area))
            cx, cy = home = _cell(candidate, transmission_range)
            neighbors = 0
            for gx in (cx - 1, cx, cx + 1):
                for gy in (cy - 1, cy, cy + 1):
                    for pos in cells.get((gx, gy), ()):
                        if _dist(candidate, pos) <= transmission_range:
                            neighbors += 1
            if neighbors >= min_neighbors:
                positions[pid] = candidate
                cells.setdefault(home, []).append(candidate)
                break
        else:
            raise TopologyError(
                f"could not place node {pid} with {min_neighbors} neighbors after "
                f"{max_attempts_per_node} attempts (area too large for n?)"
            )
    topo = Topology(ids, positions=positions, transmission_range=transmission_range)
    _connect_by_range(topo)
    return topo


def _connect_by_range(topo: Topology) -> None:
    """Add edge (a, b) for every pair in range: ``a`` in repr order, ``b`` ascending
    after it, the order of an all-pairs scan, so adjacency dicts fill identically."""
    reach = topo.transmission_range
    id_list = sorted(topo.ids(), key=repr)
    points = [topo.positions[pid] for pid in id_list]
    cells: dict[tuple[int, int], list[int]] = {}
    for i, point in enumerate(points):
        cells.setdefault(_cell(point, reach), []).append(i)
    for i, (a, here) in enumerate(zip(id_list, points)):
        cx, cy = _cell(here, reach)
        near = []
        for gx in (cx - 1, cx, cx + 1):
            for gy in (cy - 1, cy, cy + 1):
                for j in cells.get((gx, gy), ()):
                    if j > i and _dist(here, points[j]) <= reach:
                        near.append(j)
        for j in sorted(near):
            topo.add_edge(a, id_list[j])


def _cell(p: tuple[float, float], reach: float) -> tuple[int, int]:
    """The square cell holding ``p``; cells are a hair wider than ``reach``.

    ``_dist(p, q) <= reach`` in floats bounds the real ``|p.x - q.x|`` by
    ``reach * (1 + 2**-50)`` (one rounding in the subtraction, under an ulp in
    ``hypot``), which is below the padded side.  Float ``//`` is the exact floor
    of the real quotient, and floors of reals at most one side apart differ by
    at most one: all of ``p``'s closed disc lies in the 3 x 3 block around it.
    """
    side = reach * (1.0 + 2.0**-40)
    return (int(p[0] // side), int(p[1] // side))


def _dist(p: tuple[float, float], q: tuple[float, float]) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])
