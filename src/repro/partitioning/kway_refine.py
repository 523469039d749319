"""Direct k-way boundary refinement.

Recursive bisection never reconsiders a cut once made; real multilevel
partitioners (KaHIP included) finish with a k-way local search.  This
module implements the standard greedy boundary refinement: repeatedly move
a boundary vertex to the adjacent block with the highest positive cut gain
that keeps the Eq. (1) balance cap, until a pass finds nothing.

Kept separate from the recursion so tests can exercise it on arbitrary
partitions and so :func:`~repro.partitioning.kway.partition_kway` can
toggle it.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.partitioning.partition import Partition
from repro.partitioning.rebalance import balance_limit


def kway_refine(
    part: Partition,
    epsilon: float,
    max_passes: int = 3,
) -> Partition:
    """Greedy k-way boundary refinement under the Eq. (1) balance cap."""
    g = part.graph
    k = part.k
    assign = part.assignment.tolist()
    vw = g.vertex_weights.tolist()
    limit = balance_limit(g, k, epsilon)
    bw = np.zeros(k, dtype=np.float64)
    np.add.at(bw, part.assignment, g.vertex_weights)
    bw = bw.tolist()

    indptr, indices, weights = g.csr_lists()
    for _ in range(max_passes):
        moved = 0
        for v in _boundary_vertices(g, np.asarray(assign, dtype=np.int64)):
            b = assign[v]
            # weight of edges into each adjacent block, summed in neighbor order
            into: dict[int, float] = {}
            for i in range(indptr[v], indptr[v + 1]):
                t = assign[indices[i]]
                into[t] = into.get(t, 0.0) + weights[i]
            own = into.get(b, 0.0)
            best_gain, best_t = 0.0, -1
            for t in sorted(into):
                if t == b or bw[t] + vw[v] > limit + 1e-9:
                    continue
                gain = into[t] - own
                if gain > best_gain + 1e-12:
                    best_gain, best_t = gain, t
            if best_t >= 0:
                bw[b] -= vw[v]
                bw[best_t] += vw[v]
                assign[v] = best_t
                moved += 1
        if moved == 0:
            break
    return Partition(g, np.asarray(assign, dtype=np.int64), k)


def _boundary_vertices(g: Graph, assign: np.ndarray) -> list[int]:
    us = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    cross = assign[us] != assign[g.indices]
    return np.flatnonzero(np.bincount(us[cross], minlength=g.n)).tolist()
