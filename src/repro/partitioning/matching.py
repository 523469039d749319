"""Heavy-edge matching for multilevel coarsening.

The classic Karypis-Kumar heuristic: visit vertices in random order and
match each unmatched vertex with the unmatched neighbor connected by the
heaviest edge.  Heavy edges disappear inside coarse vertices, so the cut
of any coarse partition (and hence of the final partition) avoids them.
"""

from __future__ import annotations

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, make_rng

UNMATCHED = -1


def heavy_edge_matching(
    g: Graph,
    seed: SeedLike = None,
    max_vertex_weight: float | None = None,
) -> np.ndarray:
    """Return ``match`` with ``match[v]`` = partner of ``v`` (or ``v`` itself).

    ``max_vertex_weight`` optionally forbids matches whose combined vertex
    weight exceeds the limit, preventing coarse vertices that could never
    fit a balanced block.
    """
    rng = make_rng(seed)
    order = rng.permutation(g.n).tolist()
    match = [UNMATCHED] * g.n
    vw = g.vertex_weights.tolist()
    indptr, indices, weights = g.csr_lists()
    for v in order:
        if match[v] != UNMATCHED:
            continue
        best_u, best_w = v, -1.0
        for i in range(indptr[v], indptr[v + 1]):
            u = indices[i]
            if match[u] != UNMATCHED or u == v:
                continue
            if max_vertex_weight is not None and vw[v] + vw[u] > max_vertex_weight:
                continue
            if weights[i] > best_w:
                best_u, best_w = u, weights[i]
        match[v] = best_u
        if best_u != v:
            match[best_u] = v
    return np.asarray(match, dtype=np.int64)


def matching_to_coarse_map(match: np.ndarray) -> tuple[np.ndarray, int]:
    """Convert a matching into a fine->coarse vertex map.

    Returns ``(coarse_of, n_coarse)``; matched pairs share an id, singletons
    keep their own.  Ids are assigned in increasing order of the smaller
    endpoint, which keeps the map deterministic given the matching.
    """
    n = match.shape[0]
    coarse_of = [-1] * n
    nxt = 0
    for v, u in enumerate(match.tolist()):
        if coarse_of[v] >= 0:
            continue
        coarse_of[v] = nxt
        if u != v and u != UNMATCHED:
            coarse_of[u] = nxt
        nxt += 1
    return np.asarray(coarse_of, dtype=np.int64), nxt
