"""Vertex connectivity by bounded unit-capacity flows (Menger), stdlib only.

A network is f-covering iff it is ``(f + 1)``-connected, and that yes / no
question is all a run asks (:func:`is_k_connected`); the exact value
(:func:`node_connectivity`) only fills an error message.

A graph is a mapping from each node to the collection of its neighbours.
Flows run on the node-split network without building it: a vertex other than
the two endpoints carries at most one path, so the whole flow is ``pred[v]`` /
``succ[v]``, the neighbours of ``v`` on the path through it.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations, islice
from typing import Collection, Hashable, Mapping

__all__ = ["is_k_connected", "local_node_connectivity", "node_connectivity"]

Adjacency = Mapping[Hashable, Collection[Hashable]]


def local_node_connectivity(
    adjacency: Adjacency, a: Hashable, b: Hashable, cutoff: int | None = None
) -> int:
    """Vertex-independent ``a``-``b`` paths, counted no further than ``cutoff``.

    An edge ``a``-``b`` is one path plus the count without it.
    """
    limit = len(adjacency) if cutoff is None else cutoff
    paths = 1 if b in adjacency[a] else 0
    pred, succ = {}, {}
    while paths < limit and _augment(adjacency, a, b, pred, succ):
        paths += 1
    return paths


def _augment(adjacency: Adjacency, a: Hashable, b: Hashable, pred: dict, succ: dict) -> bool:
    """Route one more path from ``a`` to ``b`` if the residual network has one.

    Breadth-first over the two sides of each vertex.  ``into[w]`` is how the
    search entered ``w``: over the idle arc from ``into[w]``, or (``w`` itself)
    backwards across ``w``.  ``out_of[v]`` is how it got past ``v``: across an
    unused ``v`` (``v`` itself), or backwards along the flow arc ``v -> out_of[v]``.
    """
    into = {}
    out_of = {a: a}
    queue = deque([a])
    while queue:
        u = queue.popleft()
        if u in pred and u not in into:
            # u carries a path and was reached against it: may undo it further
            into[u] = u
            if pred[u] not in out_of:
                out_of[pred[u]] = u
                queue.append(pred[u])
        for w in adjacency[u]:
            if w == b:
                if u != a and succ.get(u) != b:
                    _reroute(a, b, u, into, out_of, pred, succ)
                    return True
            elif w != a and w not in into and pred.get(w) != u:
                into[w] = u
                if w not in pred:
                    out_of[w] = w
                    queue.append(w)
                elif pred[w] not in out_of:
                    out_of[pred[w]] = w
                    queue.append(pred[w])
    return False


def _reroute(a, b, last, into: dict, out_of: dict, pred: dict, succ: dict) -> None:
    """Flip every arc on the search path that ends ``last -> b``."""
    added, dropped = [(last, b)], []
    v = last
    while v != a:
        w = out_of[v]
        if w != v:
            dropped.append((v, w))
            while into[w] == w:
                dropped.append((w, out_of[w]))
                w = out_of[w]
        added.append((into[w], w))
        v = into[w]
    for v, w in dropped:
        del succ[v], pred[w]
    for v, w in added:
        if v != a:
            succ[v] = w
        if w != b:
            pred[w] = v


def is_k_connected(adjacency: Adjacency, k: int) -> bool:
    """Whether removing any ``k - 1`` nodes leaves the graph connected (Even 1975).

    A separator smaller than ``k`` spares one of the first ``k`` vertices; it
    then parts two of them, or parts them all from some later vertex and so
    parts that vertex from a virtual source joined to the ``k``: at most
    ``k(k-1)/2 + (n-k)`` flows, each abandoned after ``k`` augmenting paths.
    """
    if len(adjacency) <= k or min(map(len, adjacency.values())) < k:
        return False
    first = list(islice(adjacency, k))
    for a, b in combinations(first, 2):
        if local_node_connectivity(adjacency, a, b, k) < k:
            return False
    source = object()
    joined = {**adjacency, source: first}
    return all(
        local_node_connectivity(joined, source, v, k) >= k
        for v in islice(adjacency, k, None)
    )


def node_connectivity(adjacency: Adjacency) -> int:
    """Exact vertex connectivity (0 for one node or a disconnected graph).

    A minimum separator either misses a minimum-degree vertex ``v``, and
    parts it from a non-neighbour, or contains it, and parts two of its
    neighbours; every flow stops at the best bound so far.
    """
    v = min(adjacency, key=lambda node: len(adjacency[node]))
    near = adjacency[v]
    best = len(near)
    for w in adjacency:
        if w != v and w not in near:
            best = min(best, local_node_connectivity(adjacency, v, w, best))
    for x, y in combinations(near, 2):
        if y not in adjacency[x]:
            best = min(best, local_node_connectivity(adjacency, x, y, best))
    return best
