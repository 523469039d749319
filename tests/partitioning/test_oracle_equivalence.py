"""The list-based partitioner against its numpy-slice oracles, byte for byte.

Byte identity is promised for integer edge and vertex weights, so every
graph here has integer weights (zero-weight edges included) and
non-unit vertex weights; the caps are tight so that balance rejections,
lazy heap entries and rollbacks all occur.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BalanceError
from repro.experiments.instances import generate_instance
from repro.graphs.builder import from_arrays
from repro.graphs.graph import Graph
from repro.partitioning import fm, initial, matching
from repro.partitioning.kway import partition_kway
from repro.partitioning.kway_refine import kway_refine
from repro.partitioning.partition import Partition

from tests.partitioning import oracles


@st.composite
def int_graphs(draw, min_n=2, max_n=40):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    density = draw(st.sampled_from([0.05, 0.15, 0.4]))
    rng = np.random.default_rng(seed)
    us, vs = np.triu_indices(n, k=1)
    keep = rng.random(us.shape[0]) < density
    ws = rng.integers(0, 10, int(keep.sum())).astype(np.float64)
    vw = rng.integers(1, 6, n).astype(np.float64)
    return from_arrays(n, us[keep], vs[keep], ws, vertex_weights=vw)


def _same(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _caps(g: Graph, slack: float) -> tuple[float, float]:
    half = float(g.vertex_weights.sum()) / 2.0
    return (half * (1.0 + slack), half * (1.0 + slack))


SLACK = st.sampled_from([0.0, 0.05, 0.2, 1.0])


class TestFmPass:
    @settings(max_examples=150, deadline=None)
    @given(g=int_graphs(), seed=st.integers(0, 1000), slack=SLACK)
    def test_single_pass_matches_oracle(self, g, seed, slack):
        assign = np.random.default_rng(seed).integers(0, 2, g.n)
        caps = _caps(g, slack)

        old_assign = assign.copy()
        old_sw = np.zeros(2, dtype=np.float64)
        np.add.at(old_sw, old_assign, g.vertex_weights)
        new_sw = old_sw.tolist()
        old_improved = oracles._fm_pass(g, old_assign, old_sw, caps)

        new_assign = assign.tolist()
        tails = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        new_improved = fm._fm_pass(
            g, g.csr_lists(), g.vertex_weights.tolist(), tails,
            new_assign, new_sw, caps,
        )
        assert new_improved == old_improved
        assert _same(np.asarray(new_assign, dtype=np.int64), old_assign)
        assert _same(np.asarray(new_sw, dtype=np.float64), old_sw)

    @settings(max_examples=100, deadline=None)
    @given(g=int_graphs(), seed=st.integers(0, 1000), slack=SLACK)
    def test_refine_matches_oracle(self, g, seed, slack):
        assign = np.random.default_rng(seed).integers(0, 2, g.n)
        caps = _caps(g, slack)
        assert _same(fm.fm_refine(g, assign, caps), oracles.fm_refine(g, assign, caps))


class TestGrow:
    @settings(max_examples=150, deadline=None)
    @given(g=int_graphs(min_n=1), seed=st.integers(0, 1000),
           frac=st.sampled_from([0.1, 0.3, 0.5, 0.75]))
    def test_grow_once_matches_oracle_and_rng_use(self, g, seed, frac):
        target = frac * float(g.vertex_weights.sum())
        old_rng = np.random.default_rng(seed)
        new_rng = np.random.default_rng(seed)
        old = oracles._grow_once(g, target, old_rng)
        tails = np.repeat(np.arange(g.n, dtype=np.int64), np.diff(g.indptr))
        deg_w = np.bincount(tails, weights=g.weights, minlength=g.n).tolist()
        new = initial._grow_once(
            g.csr_lists(), g.vertex_weights.tolist(), deg_w, target, new_rng
        )
        assert _same(new, old)
        # Both consumed the same random draws.
        assert old_rng.integers(0, 2**62) == new_rng.integers(0, 2**62)

    @settings(max_examples=100, deadline=None)
    @given(g=int_graphs(min_n=1), seed=st.integers(0, 1000),
           attempts=st.integers(1, 5))
    def test_grow_bisection_matches_oracle(self, g, seed, attempts):
        target = 0.5 * float(g.vertex_weights.sum())
        assert _same(
            initial.grow_bisection(g, target, seed=seed, attempts=attempts),
            oracles.grow_bisection(g, target, seed=seed, attempts=attempts),
        )


class TestMatching:
    @settings(max_examples=150, deadline=None)
    @given(g=int_graphs(min_n=1), seed=st.integers(0, 1000),
           cap=st.sampled_from([None, 2.0, 4.0, 7.0]))
    def test_heavy_edge_matching_matches_oracle(self, g, seed, cap):
        new = matching.heavy_edge_matching(g, seed=seed, max_vertex_weight=cap)
        old = oracles.heavy_edge_matching(g, seed=seed, max_vertex_weight=cap)
        assert _same(new, old)
        new_map, new_n = matching.matching_to_coarse_map(new)
        old_map, old_n = oracles.matching_to_coarse_map(old)
        assert new_n == old_n
        assert _same(new_map, old_map)


class TestKwayRefine:
    @settings(max_examples=100, deadline=None)
    @given(g=int_graphs(), seed=st.integers(0, 1000), k=st.integers(2, 9),
           eps=st.sampled_from([0.0, 0.03, 0.3]), passes=st.integers(1, 4))
    def test_matches_oracle(self, g, seed, k, eps, passes):
        part = Partition(g, np.random.default_rng(seed).integers(0, k, g.n), k)
        new = kway_refine(part, eps, max_passes=passes)
        old = oracles.kway_refine(part, eps, max_passes=passes)
        assert _same(new.assignment, old.assignment)


class TestSubgraph:
    @settings(max_examples=150, deadline=None)
    @given(g=int_graphs(min_n=1), seed=st.integers(0, 1000),
           frac=st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    def test_matches_oracle(self, g, seed, frac):
        rng = np.random.default_rng(seed)
        vertices = rng.permutation(g.n)[: int(round(frac * g.n))]
        new, new_ids = g.subgraph(vertices)
        old, old_ids = oracles.subgraph(g, vertices)
        for attr in ("indptr", "indices", "weights", "vertex_weights"):
            assert _same(getattr(new, attr), getattr(old, attr)), attr
        assert new.name == old.name
        assert _same(new_ids, old_ids)


def _outcome(g: Graph, k: int, seed: int):
    """The assignment bytes, or the error when no balanced partition exists."""
    try:
        return partition_kway(g, k, seed=seed).assignment.tobytes()
    except BalanceError as exc:
        return str(exc)


def _oracle_outcome(g: Graph, k: int, seed: int):
    with oracles.patched_to_oracles():
        return _outcome(g, k, seed)


class TestPartitionKway:
    @settings(max_examples=25, deadline=None)
    @given(g=int_graphs(min_n=8, max_n=120), seed=st.integers(0, 1000),
           k=st.integers(2, 17))
    def test_matches_oracle_on_random_graphs(self, g, seed, k):
        assert _outcome(g, k, seed) == _oracle_outcome(g, k, seed)

    @pytest.mark.parametrize(
        "instance, n, k",
        [("p2p-Gnutella", 800, 256), ("PGPgiantcompo", 600, 127)],
    )
    def test_matches_oracle_on_benchmark_shapes(self, instance, n, k):
        g = generate_instance(instance, seed=611, n_min=n, n_max=n)
        assert _outcome(g, k, 611) == _oracle_outcome(g, k, 611)
