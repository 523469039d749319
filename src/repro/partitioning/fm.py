"""Fiduccia-Mattheyses 2-way refinement.

Classic FM with a lazy-deletion heap per side: repeatedly move the
boundary vertex with the highest cut gain to the other side, subject to
the balance constraint; after a full pass, roll back to the best prefix.
Multiple passes until a pass yields no improvement.

This is the refinement engine both of the multilevel bisection
(:mod:`~repro.partitioning.multilevel`) and -- run on the communication
graph -- of the DRB mapper.  Kernighan-Lin-style swap logic is what the
paper's §6 explicitly compares TIMER against, so the implementation is
deliberately textbook.

Implementation: each call converts the CSR arrays to plain Python lists
once (:meth:`~repro.graphs.graph.Graph.csr_lists`), computes the initial
gains of a pass with one vectorized ``np.bincount`` over the edges and
then keeps them incrementally -- moving ``v`` off side ``s`` changes the
gain of each neighbor by ``+2w`` (neighbor on ``s``) or ``-2w``.  The heap
key ``(-gain, v, v, gain)``, the lazy validity test, the balance caps and
the best-prefix rollback are those of the textbook version, so the pop
order is too.

Scope of byte identity: with integer edge and vertex weights (all sums
below 2**53) every gain and side weight is exactly representable, so
the result does not depend on summation order and equals the one of the
per-vertex recomputation this module replaced
(``tests/partitioning/oracles.py``) bit for bit -- the same scope as the
swap kernels.  Fractional weights give deterministic results that may
differ from it in the last bits of a gain and so in a tie.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.graphs.graph import Graph


def fm_refine(
    g: Graph,
    assignment: np.ndarray,
    max_weight: tuple[float, float],
    max_passes: int = 8,
) -> np.ndarray:
    """Refine a 2-way ``assignment`` in place-like fashion (returns a copy).

    Parameters
    ----------
    g:
        the graph.
    assignment:
        0/1 array (will not be mutated).
    max_weight:
        ``(limit_side_0, limit_side_1)``; a move to side ``s`` is allowed
        only while side ``s`` stays within ``max_weight[s]``.
    max_passes:
        upper bound on full FM passes.
    """
    assign = np.asarray(assignment, dtype=np.int64)
    if g.n == 0:
        return assign.copy()
    side_weight = np.zeros(2, dtype=np.float64)
    np.add.at(side_weight, assign, g.vertex_weights)
    sides = assign.tolist()
    sw = side_weight.tolist()
    csr = g.csr_lists()
    vw = g.vertex_weights.tolist()
    tails = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
    for _ in range(max_passes):
        improved = _fm_pass(g, csr, vw, tails, sides, sw, max_weight)
        if not improved:
            break
    return np.asarray(sides, dtype=np.int64)


def _fm_pass(
    g: Graph,
    csr: tuple[list[int], list[int], list[float]],
    vw: list[float],
    tails: np.ndarray,
    assign: list[int],
    side_weight: list[float],
    max_weight: tuple[float, float],
) -> bool:
    """One FM pass; mutates ``assign`` and ``side_weight`` (both lists).

    ``csr`` is ``g.csr_lists()``, ``vw`` the vertex weights as a list and
    ``tails[i]`` the vertex whose CSR row holds entry ``i``.
    """
    indptr, indices, weights = csr
    n = g.n
    # gain[v] = w(external) - w(internal), over all edges at once.
    sides = np.asarray(assign, dtype=np.int64)
    cross = sides[tails] != sides[g.indices]
    gain = np.bincount(
        tails, weights=np.where(cross, g.weights, -g.weights), minlength=n
    ).tolist()
    # Lazy heap entries (-gain, tiebreak, v, recorded_gain), seeded with
    # boundary vertices only: interior moves never help first.
    boundary = np.flatnonzero(np.bincount(tails[cross], minlength=n)).tolist()
    heap = [(-gain[v], v, v, gain[v]) for v in boundary]
    if not heap:
        return False
    heapq.heapify(heap)
    locked = [False] * n

    moves: list[int] = []
    cum_gain = 0.0
    best_prefix, best_gain = 0, 0.0
    while heap:
        neg_g, _, v, g_rec = heapq.heappop(heap)
        if locked[v] or gain[v] != g_rec:
            continue
        source = assign[v]
        target = 1 - source
        if side_weight[target] + vw[v] > max_weight[target]:
            continue
        # Execute the move.
        locked[v] = True
        side_weight[source] -= vw[v]
        side_weight[target] += vw[v]
        assign[v] = target
        cum_gain += -neg_g
        moves.append(v)
        if cum_gain > best_gain + 1e-12:
            best_gain = cum_gain
            best_prefix = len(moves)
        for i in range(indptr[v], indptr[v + 1]):
            u = indices[i]
            if locked[u]:
                continue
            if assign[u] == source:
                gu = gain[u] + 2.0 * weights[i]
            else:
                gu = gain[u] - 2.0 * weights[i]
            gain[u] = gu
            heapq.heappush(heap, (-gu, u, u, gu))

    # Roll back past the best prefix.
    for v in moves[best_prefix:]:
        side = assign[v]
        side_weight[side] -= vw[v]
        side_weight[1 - side] += vw[v]
        assign[v] = 1 - side
    return best_gain > 1e-12
