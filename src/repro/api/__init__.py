"""``repro.api`` -- the composable, registry-driven mapping pipeline.

One public path for CLI, library and experiment traffic:

>>> from repro.api import Pipeline, PipelineConfig  # doctest: +SKIP
>>> pipe = Pipeline("grid4x4", PipelineConfig(initial_mapping="c2"))
>>> result = pipe.run(ga, seed=1)

Members:

- :data:`~repro.api.registry.REGISTRY` / :class:`~repro.api.registry.Registry`
  -- the unified strategy registry (partitioners, initial mappings,
  enhancers, topologies, scenarios, hooks),
- :class:`~repro.api.topology.Topology` -- a processor-graph session
  owning the labeling and distance caches shared across runs,
- :class:`~repro.api.pipeline.Pipeline`,
  :class:`~repro.api.pipeline.PipelineConfig`,
  :class:`~repro.api.pipeline.PipelineResult` -- the staged pipeline,
- the stage protocols in :mod:`repro.api.stages`.

Only the registry loads eagerly; everything else resolves lazily so that
strategy-defining modules (``mapping.mapper``, ``experiments.topologies``)
can import the registry without a cycle.
"""

from __future__ import annotations

import importlib

from repro.api.registry import (  # noqa: F401  (re-exported)
    ENHANCE,
    INITIAL_MAPPING,
    PARTITION,
    REGISTRY,
    REPORT,
    SCENARIO,
    TOPOLOGY,
    VERIFY,
    Registry,
    register_topology,
)

_LAZY = {
    "Pipeline": "repro.api.pipeline",
    "PipelineConfig": "repro.api.pipeline",
    "PipelineResult": "repro.api.pipeline",
    "StageTiming": "repro.api.pipeline",
    "Topology": "repro.api.topology",
    "StageContext": "repro.api.stages",
    "PartitionStrategy": "repro.api.stages",
    "InitialMappingStrategy": "repro.api.stages",
    "EnhanceStrategy": "repro.api.stages",
    "VerifyHook": "repro.api.stages",
    "ReportHook": "repro.api.stages",
    "CaseMapping": "repro.api.stages",
    "KwayPartition": "repro.api.stages",
    "TimerEnhance": "repro.api.stages",
}

__all__ = [
    "Registry",
    "REGISTRY",
    "register_topology",
    "PARTITION",
    "INITIAL_MAPPING",
    "ENHANCE",
    "TOPOLOGY",
    "SCENARIO",
    "VERIFY",
    "REPORT",
    *_LAZY,
]


def __getattr__(name: str) -> object:
    if name in _LAZY:
        return getattr(importlib.import_module(_LAZY[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(__all__)
