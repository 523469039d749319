"""Uniform driver around the initial-mapping algorithms.

The experiment harness needs "give me mu_1 for case cX" as one call; this
module registers the paper's cases in the unified strategy registry
(:data:`repro.api.registry.REGISTRY`, kind ``initial_mapping``), provides
the block->vertex mapping expansion, and the common entry point
:func:`compute_initial_mapping` with timing.  Downstream code adds its
own algorithms by registering another :class:`MappingAlgorithm` under the
same kind -- the CLI, the pipeline and the experiment harness all resolve
cases from there.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable

import numpy as np

from repro.api.registry import INITIAL_MAPPING, REGISTRY
from repro.errors import MappingError
from repro.graphs.graph import Graph
from repro.mapping.commgraph import build_communication_graph
from repro.mapping.drb import drb_mapping
from repro.mapping.greedy import greedy_all_c, greedy_min
from repro.partitioning.partition import Partition
from repro.utils.rng import SeedLike
from repro.utils.stopwatch import Stopwatch


@dataclass(frozen=True)
class MappingAlgorithm:
    """Registry entry: paper case id, name and the block-mapping function."""

    case: str
    name: str
    fn: Callable


def vertex_mapping_from_blocks(part: Partition, nu: np.ndarray) -> np.ndarray:
    """Expand a block->PE bijection ``nu`` to a vertex->PE mapping ``mu``."""
    nu = np.asarray(nu, dtype=np.int64)
    if nu.shape != (part.k,):
        raise MappingError(f"nu must have shape ({part.k},), got {nu.shape}")
    return nu[part.assignment]


def _identity(part: Partition, gp: Graph, seed: SeedLike) -> np.ndarray:
    return np.arange(part.k, dtype=np.int64)


def _greedy_all_c(part: Partition, gp: Graph, seed: SeedLike) -> np.ndarray:
    return greedy_all_c(build_communication_graph(part), gp)


def _greedy_min(part: Partition, gp: Graph, seed: SeedLike) -> np.ndarray:
    return greedy_min(build_communication_graph(part), gp)


def _drb(part: Partition, gp: Graph, seed: SeedLike) -> np.ndarray:
    return drb_mapping(build_communication_graph(part), gp, seed=seed)


for _algo in (
    MappingAlgorithm("c1", "scotch-drb", _drb),
    MappingAlgorithm("c2", "identity", _identity),
    MappingAlgorithm("c3", "greedy-all-c", _greedy_all_c),
    MappingAlgorithm("c4", "greedy-min", _greedy_min),
):
    REGISTRY.register(INITIAL_MAPPING, _algo.case, _algo)


def available_algorithms() -> dict[str, MappingAlgorithm]:
    """All registered initial-mapping cases (the paper's ``c1 .. c4``)."""
    return dict(REGISTRY.items(INITIAL_MAPPING))


def compute_initial_mapping(
    case: str,
    part: Partition,
    gp: Graph,
    seed: SeedLike = None,
) -> tuple[np.ndarray, float]:
    """Compute ``mu_1`` (vertex->PE) for an experimental case.

    Returns ``(mu, seconds)`` where seconds covers only the mapping step
    (the partition is an input, mirroring the paper's timing methodology).
    """
    if (INITIAL_MAPPING, case) not in REGISTRY:
        raise MappingError(
            f"unknown case {case!r}; expected one of "
            f"{sorted(REGISTRY.names(INITIAL_MAPPING))}"
        )
    if part.k != gp.n:
        raise MappingError(f"need k == |V_p| for one-to-one mapping, got {part.k} != {gp.n}")
    algo = REGISTRY.get(INITIAL_MAPPING, case)
    sw = Stopwatch()
    with sw:
        nu = algo.fn(part, gp, seed)
    nu = np.asarray(nu, dtype=np.int64)
    if np.unique(nu).shape[0] != part.k:
        raise MappingError(f"{algo.name} produced a non-bijective block mapping")
    return vertex_mapping_from_blocks(part, nu), sw.elapsed


# Convenience export for identity at block level (used in docs/tests).
__all__ = [
    "MappingAlgorithm",
    "available_algorithms",
    "compute_initial_mapping",
    "vertex_mapping_from_blocks",
]
