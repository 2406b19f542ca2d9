"""f-covering validation utilities (Definition 3 + Menger's theorem).

A network is *f-covering* iff it is ``(f + 1)``-connected; by Menger's
theorem that is equivalent to ``f + 1`` vertex-independent paths between
every pair of nodes, so removing any ``f`` nodes leaves the survivors
connected.  These helpers certify experiment topologies before a run —
the extension's completeness proof silently assumes the property, so a run
on a non-covering network would produce garbage, not insight.
"""

from __future__ import annotations

from ..errors import TopologyError
from ..ids import ProcessId
from ..sim.connectivity import local_node_connectivity
from ..sim.topology import Topology

__all__ = [
    "independent_path_count",
    "validate_f_covering",
    "validate_f_covering_fast",
    "validate_mobility_scenario",
]


def independent_path_count(topology: Topology, a: ProcessId, b: ProcessId) -> int:
    """Number of vertex-independent paths between ``a`` and ``b``."""
    adjacency = {pid: topology.neighbors(pid) for pid in topology.ids()}
    return local_node_connectivity(adjacency, a, b)


def validate_f_covering(topology: Topology, f: int) -> None:
    """Raise :class:`TopologyError` unless the network is f-covering.

    Also checks the derived density requirement ``d > f + 1`` the report
    states for f-covering networks.
    """
    if not topology.is_f_covering(f):
        connectivity = topology.node_connectivity()  # exact, for the message only
        raise TopologyError(
            f"network is not {f}-covering: node connectivity {connectivity} < {f + 1}"
        )
    density = topology.range_density()
    if density <= f + 1:
        raise TopologyError(
            f"f-covering network must have range density d > f + 1; "
            f"got d={density}, f={f}"
        )


def validate_f_covering_fast(topology: Topology, f: int) -> None:
    """Necessary-condition screen for f-covering, without Menger.

    Checks connectivity (one BFS), minimum degree >= f + 1 and the report's
    density requirement d > f + 1 — all O(nodes + edges).  These are
    *necessary* for (f + 1)-connectivity but not sufficient; the large-n
    experiment presets use this screen because the exact certification in
    :func:`validate_f_covering` runs one max-flow per node pair and is
    infeasible past a few hundred nodes.
    """
    ids = topology.ids()
    if not ids:
        raise TopologyError("empty topology cannot be f-covering")
    start = next(iter(ids))
    seen = {start}
    frontier = [start]
    while frontier:
        next_frontier: list[ProcessId] = []
        for pid in frontier:
            for neighbor in topology.neighbors(pid):
                if neighbor not in seen:
                    seen.add(neighbor)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if len(seen) != len(ids):
        raise TopologyError(
            f"network is not {f}-covering: it is disconnected "
            f"({len(seen)}/{len(ids)} nodes reachable)"
        )
    min_degree = min(topology.degree(pid) for pid in ids)
    if min_degree < f + 1:
        raise TopologyError(
            f"network cannot be {f}-covering: minimum degree {min_degree} < {f + 1}"
        )
    density = topology.range_density()
    if density <= f + 1:
        raise TopologyError(
            f"f-covering network must have range density d > f + 1; "
            f"got d={density}, f={f}"
        )


def validate_mobility_scenario(
    topology: Topology,
    mover: ProcessId,
    *,
    d: int,
    f: int,
) -> None:
    """Check the mobility experiment's stated restriction (Section 6.2).

    Every neighbor of the mover must keep at least ``d - f`` *other*
    neighbors once the mover departs, so their queries still terminate
    ("all neighbors of m must have d - f + 1 neighbors").
    """
    for neighbor in sorted(topology.neighbors(mover), key=repr):
        remaining = len(topology.neighbors(neighbor) - {mover})
        if remaining < d - f:
            raise TopologyError(
                f"neighbor {neighbor!r} of mover {mover!r} would keep only "
                f"{remaining} neighbors (< d - f = {d - f}); its queries "
                "could never terminate after the move"
            )
