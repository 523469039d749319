"""Classic graph algorithms needed by the substrates.

Everything here operates on :class:`repro.graphs.Graph` and is used by
partial-cube recognition (BFS distances, bipartiteness), the partitioner
(connected components, BFS orderings) and the mapping heuristics
(all-pairs distances on the processor graph).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.graphs.graph import Graph

UNREACHED = -1


def bfs_distances(g: Graph, source: int) -> np.ndarray:
    """Unweighted shortest-path distances from ``source``.

    Unreached vertices get :data:`UNREACHED` (-1).  Implemented with a
    frontier-array BFS: each level is expanded with vectorized neighbor
    gathering, which keeps the inner loop in numpy for the mesh/torus
    graphs where levels are wide.
    """
    dist = np.full(g.n, UNREACHED, dtype=np.int64)
    dist[source] = 0
    frontier = np.asarray([source], dtype=np.int64)
    level = 0
    indptr, indices = g.indptr, g.indices
    while frontier.size:
        level += 1
        # Gather all neighbors of the frontier.
        counts = indptr[frontier + 1] - indptr[frontier]
        total = int(counts.sum())
        if total == 0:
            break
        nbrs = np.empty(total, dtype=np.int64)
        pos = 0
        for v, c in zip(frontier, counts):
            nbrs[pos : pos + c] = indices[indptr[v] : indptr[v] + c]
            pos += c
        fresh = nbrs[dist[nbrs] == UNREACHED]
        if fresh.size == 0:
            break
        fresh = np.unique(fresh)
        dist[fresh] = level
        frontier = fresh
    return dist


def bfs_order(g: Graph, source: int) -> np.ndarray:
    """Vertices of the connected component of ``source`` in BFS order."""
    seen = np.zeros(g.n, dtype=bool)
    seen[source] = True
    order = [source]
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for u in g.neighbors(v):
            u = int(u)
            if not seen[u]:
                seen[u] = True
                order.append(u)
                queue.append(u)
    return np.asarray(order, dtype=np.int64)


def all_pairs_distances(g: Graph) -> np.ndarray:
    """Dense ``n x n`` matrix of unweighted shortest-path distances.

    Intended for processor graphs (``n <= ~2048``); the paper needs these
    both for partial-cube labeling and for the Coco objective of arbitrary
    mappings.

    Implemented as a *bit-packed multi-source BFS*: every vertex carries a
    bitset of the sources that have reached it (``ceil(n/64)`` uint64
    words), and one BFS level for **all** sources at once is a single
    gather + ``np.bitwise_or.reduceat`` over the CSR -- ``O(m * n / 64)``
    word operations per level instead of ``n`` separate Python BFS runs.
    Unreached pairs (disconnected graphs) get :data:`UNREACHED`.
    """
    n, indptr, indices = g.n, g.indptr, g.indices
    if n == 0:
        return np.empty((0, 0), dtype=np.int64)
    words = (n + 63) // 64
    idx = np.arange(n)
    reached = np.zeros((n, words), dtype=np.uint64)
    reached[idx, idx // 64] = np.uint64(1) << (idx % 64).astype(np.uint64)
    dist = np.full((n, n), UNREACHED, dtype=np.int64)
    dist[idx, idx] = 0
    counts = np.diff(indptr)
    nonempty = counts > 0
    starts = indptr[:-1][nonempty]
    frontier = reached.copy()
    level = 0
    while frontier.any():
        level += 1
        nxt = np.zeros_like(reached)
        if indices.size:
            # nxt[u] = OR of the frontier bitsets of u's neighbors.
            nxt[nonempty] = np.bitwise_or.reduceat(
                frontier[indices], starts, axis=0
            )
        new = nxt & ~reached
        if not new.any():
            break
        reached |= new
        # Decode the fresh (vertex, source) bits into distances.
        bits = np.unpackbits(new.view(np.uint8), axis=1, bitorder="little")
        vv, ss = np.nonzero(bits[:, :n])
        dist[vv, ss] = level
        frontier = new
    return dist


def connected_components(g: Graph) -> np.ndarray:
    """Component id per vertex (ids are 0..k-1 in first-seen order)."""
    comp = np.full(g.n, -1, dtype=np.int64)
    next_id = 0
    for s in range(g.n):
        if comp[s] >= 0:
            continue
        comp[s] = next_id
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in g.neighbors(v):
                u = int(u)
                if comp[u] < 0:
                    comp[u] = next_id
                    queue.append(u)
        next_id += 1
    return comp


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return bool((bfs_distances(g, 0) >= 0).all())


def largest_component(g: Graph) -> tuple[Graph, np.ndarray]:
    """Induced subgraph on the largest connected component.

    Returns ``(subgraph, original_ids)``.  Complex-network generators can
    produce disconnected graphs; the experiment pipeline maps only the
    giant component, mirroring the paper's use of e.g. PGPgiantcompo.
    """
    comp = connected_components(g)
    ids, counts = np.unique(comp, return_counts=True)
    big = ids[np.argmax(counts)]
    return g.subgraph(np.nonzero(comp == big)[0])


def bipartition_colors(g: Graph) -> np.ndarray | None:
    """2-coloring of ``g`` if bipartite, else ``None``.

    Bipartiteness is the first (cheap) gate of partial-cube recognition
    (paper section 3, step 1).
    """
    color = np.full(g.n, -1, dtype=np.int8)
    for s in range(g.n):
        if color[s] >= 0:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            cv = color[v]
            for u in g.neighbors(v):
                u = int(u)
                if color[u] < 0:
                    color[u] = 1 - cv
                    queue.append(u)
                elif color[u] == cv:
                    return None
    return color.astype(np.int64)


def is_bipartite(g: Graph) -> bool:
    return bipartition_colors(g) is not None


def diameter(g: Graph) -> int:
    """Exact diameter via the bit-packed all-pairs BFS (processor graphs)."""
    if g.n == 0:
        return 0
    dist = all_pairs_distances(g)
    if (dist == UNREACHED).any():
        raise ValueError("diameter undefined: graph is disconnected")
    return int(dist.max())


def eccentricity_center(g: Graph) -> int:
    """A vertex of minimum eccentricity (used to seed greedy mapping).

    Computed from one bit-packed all-pairs BFS instead of ``n`` scalar
    BFS runs; ties resolve to the lowest vertex id, matching the
    per-source loop this replaces.
    """
    if g.n == 0:
        return 0
    ecc = all_pairs_distances(g).max(axis=1)
    return int(np.argmin(ecc))


def weighted_degree(g: Graph) -> np.ndarray:
    """Sum of incident edge weights per vertex."""
    out = np.zeros(g.n, dtype=np.float64)
    np.add.at(out, np.repeat(np.arange(g.n), np.diff(g.indptr)), g.weights)
    return out
