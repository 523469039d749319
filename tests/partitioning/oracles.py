"""Reference implementations of the partitioner's hot loops.

These are the numpy-slice-per-vertex versions the shipped
:mod:`repro.partitioning` code replaced with plain-list CSR walks and
incremental gains.  They are kept verbatim as oracles: for integer edge
and vertex weights every shipped function must reproduce them byte for
byte (``tests/partitioning/test_oracle_equivalence.py``).

:func:`patched_to_oracles` swaps all of them into the partitioner at
once, so a whole ``partition_kway`` run can be replayed on the old code.
"""

from __future__ import annotations

import contextlib
import heapq

import numpy as np
import pytest

from repro.graphs.graph import Graph
from repro.partitioning.partition import Partition
from repro.partitioning.rebalance import balance_limit
from repro.utils.rng import make_rng

UNMATCHED = -1


# ----------------------------------------------------------------------
# fm.py
# ----------------------------------------------------------------------
def fm_refine(
    g: Graph,
    assignment: np.ndarray,
    max_weight: tuple[float, float],
    max_passes: int = 8,
) -> np.ndarray:
    assign = np.asarray(assignment, dtype=np.int64).copy()
    if g.n == 0:
        return assign
    vw = g.vertex_weights
    side_weight = np.zeros(2, dtype=np.float64)
    np.add.at(side_weight, assign, vw)

    for _ in range(max_passes):
        improved = _fm_pass(g, assign, side_weight, max_weight)
        if not improved:
            break
    return assign


def _gain(g: Graph, assign: np.ndarray, v: int) -> float:
    """Cut reduction if ``v`` switches sides: w(external) - w(internal)."""
    nbrs = g.neighbors(v)
    wts = g.incident_weights(v)
    same = assign[nbrs] == assign[v]
    return float(wts[~same].sum() - wts[same].sum())


def _fm_pass(
    g: Graph,
    assign: np.ndarray,
    side_weight: np.ndarray,
    max_weight: tuple[float, float],
) -> bool:
    n = g.n
    vw = g.vertex_weights
    locked = np.zeros(n, dtype=bool)
    # Lazy heap entries (-gain, tiebreak, v, recorded_gain).
    heap: list[tuple[float, int, int, float]] = []
    current_gain = np.full(n, np.nan)

    def push(v: int):
        gv = _gain(g, assign, v)
        current_gain[v] = gv
        heapq.heappush(heap, (-gv, v, v, gv))

    # Seed with boundary vertices only: interior moves never help first.
    us = np.repeat(np.arange(n, dtype=np.int64), np.diff(g.indptr))
    boundary = np.zeros(n, dtype=bool)
    cross = assign[us] != assign[g.indices]
    boundary[us[cross]] = True
    for v in np.nonzero(boundary)[0]:
        push(int(v))
    if not heap:
        return False

    moves: list[int] = []
    cum_gain = 0.0
    best_prefix, best_gain = 0, 0.0
    while heap:
        neg_g, _, v, g_rec = heapq.heappop(heap)
        if locked[v] or current_gain[v] != g_rec:
            continue
        target = 1 - int(assign[v])
        if side_weight[target] + vw[v] > max_weight[target]:
            continue
        # Execute the move.
        locked[v] = True
        side_weight[int(assign[v])] -= vw[v]
        side_weight[target] += vw[v]
        assign[v] = target
        cum_gain += -neg_g
        moves.append(v)
        if cum_gain > best_gain + 1e-12:
            best_gain = cum_gain
            best_prefix = len(moves)
        for u in g.neighbors(v):
            u = int(u)
            if not locked[u]:
                push(u)

    # Roll back past the best prefix.
    for v in moves[best_prefix:]:
        side = int(assign[v])
        side_weight[side] -= vw[v]
        side_weight[1 - side] += vw[v]
        assign[v] = 1 - side
    return best_gain > 1e-12


# ----------------------------------------------------------------------
# initial.py
# ----------------------------------------------------------------------
def grow_bisection(g: Graph, target_weight_0: float, seed=None, attempts: int = 4):
    if g.n == 0:
        return np.empty(0, dtype=np.int64)
    rng = make_rng(seed)
    best_assign: np.ndarray | None = None
    best_cut = np.inf
    for _ in range(max(1, attempts)):
        assign = _grow_once(g, target_weight_0, rng)
        cut = _cut_of(g, assign)
        if cut < best_cut:
            best_cut, best_assign = cut, assign
    assert best_assign is not None
    return best_assign


def _grow_once(g: Graph, target: float, rng: np.random.Generator) -> np.ndarray:
    n = g.n
    in_region = np.zeros(n, dtype=bool)
    vw = g.vertex_weights
    start = int(rng.integers(0, n))
    region_weight = 0.0
    # Max-heap on gain = (weight to region) - (weight to outside).
    heap: list[tuple[float, int, int]] = []
    stamp = 0

    def push(v: int):
        nonlocal stamp
        nbrs = g.neighbors(v)
        wts = g.incident_weights(v)
        inside = in_region[nbrs]
        gain = float(wts[inside].sum() - wts[~inside].sum())
        stamp += 1
        heapq.heappush(heap, (-gain, stamp, v))

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
        region_weight += float(vw[v])
        for u in g.neighbors(v):
            u = int(u)
            if not in_region[u]:
                push(u)
        if not heap and region_weight < target:
            outside = np.nonzero(~in_region)[0]
            if outside.size == 0:
                break
            push(int(outside[rng.integers(0, outside.size)]))
    if not in_region.any():  # degenerate: single vertex heavier than target
        in_region[start] = True
    return np.where(in_region, 0, 1).astype(np.int64)


def _cut_of(g: Graph, assign: np.ndarray) -> float:
    us, vs, ws = g.edge_arrays()
    return float(ws[assign[us] != assign[vs]].sum())


# ----------------------------------------------------------------------
# matching.py
# ----------------------------------------------------------------------
def heavy_edge_matching(g: Graph, seed=None, max_vertex_weight: float | None = None):
    rng = make_rng(seed)
    order = rng.permutation(g.n)
    match = np.full(g.n, UNMATCHED, dtype=np.int64)
    vw = g.vertex_weights
    for v in order:
        v = int(v)
        if match[v] != UNMATCHED:
            continue
        nbrs = g.neighbors(v)
        wts = g.incident_weights(v)
        best_u, best_w = v, -1.0
        for u, w in zip(nbrs, wts):
            u = int(u)
            if match[u] != UNMATCHED or u == v:
                continue
            if max_vertex_weight is not None and vw[v] + vw[u] > max_vertex_weight:
                continue
            if w > best_w:
                best_u, best_w = u, float(w)
        match[v] = best_u
        if best_u != v:
            match[best_u] = v
    return match


def matching_to_coarse_map(match: np.ndarray) -> tuple[np.ndarray, int]:
    n = match.shape[0]
    coarse_of = np.full(n, -1, dtype=np.int64)
    nxt = 0
    for v in range(n):
        if coarse_of[v] >= 0:
            continue
        u = int(match[v])
        coarse_of[v] = nxt
        if u != v and u != UNMATCHED:
            coarse_of[u] = nxt
        nxt += 1
    return coarse_of, nxt


# ----------------------------------------------------------------------
# kway_refine.py
# ----------------------------------------------------------------------
def kway_refine(part: Partition, epsilon: float, max_passes: int = 3) -> Partition:
    g = part.graph
    k = part.k
    assign = part.assignment.copy()
    vw = g.vertex_weights
    limit = balance_limit(g, k, epsilon)
    bw = np.zeros(k, dtype=np.float64)
    np.add.at(bw, assign, vw)

    indptr, indices, weights = g.indptr, g.indices, g.weights
    for _ in range(max_passes):
        moved = 0
        boundary = _boundary_vertices(g, assign)
        for v in boundary:
            v = int(v)
            b = int(assign[v])
            nbrs = indices[indptr[v] : indptr[v + 1]]
            wts = weights[indptr[v] : indptr[v + 1]]
            nbr_blocks = assign[nbrs]
            if (nbr_blocks == b).all():
                continue
            # weight of edges into each adjacent block
            blocks, inv = np.unique(nbr_blocks, return_inverse=True)
            into = np.zeros(blocks.shape[0], dtype=np.float64)
            np.add.at(into, inv, wts)
            own_idx = np.nonzero(blocks == b)[0]
            own = float(into[own_idx[0]]) if own_idx.size else 0.0
            best_gain, best_t = 0.0, -1
            for t_idx, t in enumerate(blocks):
                t = int(t)
                if t == b or bw[t] + vw[v] > limit + 1e-9:
                    continue
                gain = float(into[t_idx]) - own
                if gain > best_gain + 1e-12:
                    best_gain, best_t = gain, t
            if best_t >= 0:
                bw[b] -= vw[v]
                bw[best_t] += vw[v]
                assign[v] = best_t
                moved += 1
        if moved == 0:
            break
    return Partition(g, assign, k)


def _boundary_vertices(g: Graph, assign: np.ndarray) -> np.ndarray:
    us = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    cross = assign[us] != assign[g.indices]
    out = np.zeros(g.n, dtype=bool)
    out[us[cross]] = True
    return np.nonzero(out)[0]


# ----------------------------------------------------------------------
# graph.py
# ----------------------------------------------------------------------
def subgraph(self: Graph, vertices: np.ndarray) -> tuple[Graph, np.ndarray]:
    vertices = np.asarray(vertices, dtype=np.int64)
    inv = np.full(self.n, -1, dtype=np.int64)
    inv[vertices] = np.arange(vertices.shape[0], dtype=np.int64)
    sub_indptr = [0]
    sub_indices: list[np.ndarray] = []
    sub_weights: list[np.ndarray] = []
    for v in vertices:
        nbrs = self.neighbors(int(v))
        wts = self.incident_weights(int(v))
        keep = inv[nbrs] >= 0
        sub_indices.append(inv[nbrs[keep]])
        sub_weights.append(wts[keep])
        sub_indptr.append(sub_indptr[-1] + int(keep.sum()))
    indices = np.concatenate(sub_indices) if sub_indices else np.empty(0, np.int64)
    weights = np.concatenate(sub_weights) if sub_weights else np.empty(0, np.float64)
    sub = Graph(
        np.asarray(sub_indptr, dtype=np.int64),
        indices,
        weights,
        self.vertex_weights[vertices],
        name=f"{self.name}|sub" if self.name else "",
        _validate=False,
    )
    return sub, vertices


# ----------------------------------------------------------------------
# Whole-partitioner replay
# ----------------------------------------------------------------------
@contextlib.contextmanager
def patched_to_oracles():
    """Route every rewritten function of the partitioner to its oracle.

    Each name is replaced where its caller looks it up, the same way the
    benchmark's traced run wraps them.
    """
    import repro.partitioning.kway as kway
    import repro.partitioning.matching as matching
    import repro.partitioning.multilevel as multilevel

    with pytest.MonkeyPatch.context() as m:
        m.setattr(multilevel, "fm_refine", fm_refine)
        m.setattr(multilevel, "grow_bisection", grow_bisection)
        m.setattr(matching, "heavy_edge_matching", heavy_edge_matching)
        m.setattr(matching, "matching_to_coarse_map", matching_to_coarse_map)
        m.setattr(kway, "kway_refine", kway_refine)
        m.setattr(Graph, "subgraph", subgraph)
        yield
