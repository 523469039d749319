"""Initial bisection by greedy graph growing.

Runs on the coarsest graph of the multilevel chain: grow a region from a
random seed vertex by repeatedly absorbing the boundary vertex with the
highest (internal - external) attachment until the target weight is
reached; take the best of several attempts.  Cheap, and FM refinement on
the way back up fixes its rough edges.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.graph import Graph
from repro.utils.rng import SeedLike, make_rng


def grow_bisection(
    g: Graph,
    target_weight_0: float,
    seed: SeedLike = None,
    attempts: int = 4,
) -> np.ndarray:
    """Bisect ``g``; side 0 receives ~``target_weight_0`` of vertex weight.

    Returns a 0/1 assignment array.  Side 0 is grown; everything else is
    side 1.  The best of ``attempts`` runs (by cut weight) wins; on equal
    cuts the earlier run does.
    """
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    rng = make_rng(seed)
    csr = g.csr_lists()
    vw = g.vertex_weights.tolist()
    tails = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    deg_w = np.bincount(tails, weights=g.weights, minlength=g.n).tolist()
    best_assign = _grow_once(csr, vw, deg_w, target_weight_0, rng)
    best_cut = _cut_of(g, best_assign)
    for _ in range(max(1, attempts) - 1):
        assign = _grow_once(csr, vw, deg_w, target_weight_0, rng)
        cut = _cut_of(g, assign)
        if cut < best_cut:
            best_cut, best_assign = cut, assign
    return best_assign


def _grow_once(
    csr: tuple[list[int], list[int], list[float]],
    vw: list[float],
    deg_w: list[float],
    target: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Grow one region; ``deg_w[v]`` is the total edge weight at ``v``."""
    indptr, indices, weights = csr
    n = len(vw)
    in_region = [False] * n
    # gain = (weight to region) - (weight to outside) = 2 * conn - deg_w,
    # with conn[v] the weight from v into the region, kept as it grows.
    conn = [0.0] * n
    start = int(rng.integers(0, n))
    region_weight = 0.0
    # Max-heap on gain; the push counter breaks ties first-in first-out.
    heap: list[tuple[float, int, int]] = []
    stamp = 0

    def push(v: int):
        nonlocal stamp
        stamp += 1
        heapq.heappush(heap, (-(2.0 * conn[v] - deg_w[v]), stamp, v))

    push(start)
    while heap and region_weight < target:
        _, _, v = heapq.heappop(heap)
        if in_region[v]:
            continue
        # Stop before overshooting badly on weighted vertices.
        if region_weight + vw[v] > target and region_weight > 0 and (
            region_weight + vw[v] - target > target - region_weight
        ):
            continue
        in_region[v] = True
        region_weight += vw[v]
        for i in range(indptr[v], indptr[v + 1]):
            u = indices[i]
            conn[u] += weights[i]
            if not in_region[u]:
                push(u)
        if not heap and region_weight < target:
            outside = [u for u in range(n) if not in_region[u]]
            if not outside:
                break
            push(outside[rng.integers(0, len(outside))])
    if not any(in_region):  # degenerate: single vertex heavier than target
        in_region[start] = True
    return 1 - np.asarray(in_region, dtype=np.int64)


def _cut_of(g: Graph, assign: np.ndarray) -> float:
    us, vs, ws = g.edge_arrays()
    return float(ws[assign[us] != assign[vs]].sum())


def random_bisection(
    g: Graph, target_weight_0: float, seed: SeedLike = None
) -> np.ndarray:
    """Weight-aware random bisection (baseline / fallback)."""
    rng = make_rng(seed)
    order = rng.permutation(g.n)
    assign = np.ones(g.n, dtype=np.int64)
    acc = 0.0
    for v in order:
        if acc >= target_weight_0:
            break
        assign[v] = 0
        acc += float(g.vertex_weights[v])
    return assign
