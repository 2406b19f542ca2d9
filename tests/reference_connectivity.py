"""Reference model of vertex connectivity: the networkx version.

``Topology.node_connectivity`` and ``partial.covering.independent_path_count``
as they stood while production imported networkx at run time, kept as the
oracle the stdlib flows in ``repro.sim.connectivity`` must agree with
(``tests/property/test_connectivity.py``).  networkx is in the ``test`` extra
only; without it every test that needs this module is skipped.
"""

from __future__ import annotations

import pytest

from repro.ids import ProcessId
from repro.sim.topology import Topology

nx = pytest.importorskip("networkx")


def _graph(topology: Topology):
    graph = nx.Graph()
    graph.add_nodes_from(topology.ids())
    graph.add_edges_from(topology.edges())
    return graph


def reference_node_connectivity(topology: Topology) -> int:
    graph = _graph(topology)
    if len(graph) == 1:
        return 0
    return nx.node_connectivity(graph)


def reference_independent_path_count(topology: Topology, a: ProcessId, b: ProcessId) -> int:
    graph = _graph(topology)
    if topology.has_edge(a, b):
        # Local connectivity is defined for non-adjacent pairs; an edge is
        # itself one independent path plus the non-adjacent count without it.
        graph.remove_edge(a, b)
        return 1 + nx.connectivity.local_node_connectivity(graph, a, b)
    return nx.connectivity.local_node_connectivity(graph, a, b)
