"""Declarative scenario matrices for experiment sweeps (TOML/JSON).

A *scenario* is a named, fully-resolved :class:`ExperimentConfig`.  A
*matrix file* declares a set of scenarios plus shared defaults, so sweeps
are data, not code::

    # sweeps.toml
    [defaults]
    reps = 3
    nh = 8
    cases = ["c1", "c2", "c3", "c4"]

    [scenario.paper]
    description = "the paper's Table 2 / Figure 5 grid"
    topologies = ["grid16x16", "grid8x8x8", "torus16x16", "torus8x8x8", "hq8"]

    [scenario.interconnects]
    topologies = ["fattree2x5", "dragonfly8x5", "torus8x8x4"]
    reps = 5

The same shape works as JSON (``{"defaults": {...}, "scenario": {...}}``)
for environments without a TOML writer.  Keys match
:class:`ExperimentConfig` field names, with the CLI's short aliases
(``reps``, ``nh``) accepted; unknown keys, topologies, cases and
instances fail fast at load time rather than hours into a sweep.

The canonical matrices (``paper``, ``widened``, ``smoke``, ``wide``)
register under the ``scenario`` registry kind, so the CLI works without
any file.
"""

from __future__ import annotations

import json
import tomllib
from dataclasses import dataclass, fields, replace
from pathlib import Path

from repro.api.registry import REGISTRY, SCENARIO
from repro.errors import ConfigurationError
from repro.experiments.runner import ExperimentConfig, _validate_config
from repro.experiments.topologies import (
    PAPER_TOPOLOGIES,
    WIDE_TOPOLOGIES,
    WIDENED_TOPOLOGIES,
)

#: matrix-file key -> ExperimentConfig field (CLI flag spellings)
_ALIASES = {"reps": "repetitions", "nh": "n_hierarchies"}

_TUPLE_FIELDS = ("instances", "topologies", "cases")


@dataclass(frozen=True)
class Scenario:
    """One named sweep of a matrix."""

    name: str
    config: ExperimentConfig
    description: str = ""


def config_from_mapping(mapping: dict, defaults: dict | None = None) -> ExperimentConfig:
    """Build a validated :class:`ExperimentConfig` from plain dicts.

    ``mapping`` wins over ``defaults`` key-by-key; both accept the alias
    spellings.  Raises :class:`ConfigurationError` on unknown keys or
    unknown instances/topologies/cases.
    """
    merged: dict = {}
    for source in (defaults or {}), mapping:
        for key, value in source.items():
            merged[_ALIASES.get(key, key)] = value
    known = {f.name for f in fields(ExperimentConfig)}
    unknown = sorted(set(merged) - known)
    if unknown:
        raise ConfigurationError(
            f"unknown scenario keys {unknown}; known: {sorted(known)} "
            f"(aliases: {sorted(_ALIASES)})"
        )
    for key in _TUPLE_FIELDS:
        if key in merged:
            merged[key] = tuple(merged[key])
    config = ExperimentConfig(**merged)
    _validate_config(config)
    return config


def load_matrix(path: str | Path) -> dict[str, Scenario]:
    """Parse a TOML/JSON matrix file into ``{name: Scenario}``.

    The format is picked by suffix (``.toml`` / ``.json``); scenarios
    come back in file order.
    """
    path = Path(path)
    if path.suffix == ".toml":
        with open(path, "rb") as f:
            raw = tomllib.load(f)
    elif path.suffix == ".json":
        with open(path, encoding="utf-8") as f:
            raw = json.load(f)
    else:
        raise ConfigurationError(
            f"matrix file {path} must end in .toml or .json"
        )
    if not isinstance(raw, dict) or not isinstance(raw.get("scenario", None), dict):
        raise ConfigurationError(
            f"matrix file {path} needs a [scenario.<name>] table per sweep"
        )
    defaults = raw.get("defaults", {})
    if not isinstance(defaults, dict):
        raise ConfigurationError(f"[defaults] in {path} must be a table")
    scenarios: dict[str, Scenario] = {}
    for name, body in raw["scenario"].items():
        if not isinstance(body, dict):
            raise ConfigurationError(f"scenario {name!r} in {path} must be a table")
        body = dict(body)
        description = str(body.pop("description", ""))
        try:
            config = config_from_mapping(body, defaults)
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            raise ConfigurationError(f"scenario {name!r} in {path}: {exc}") from exc
        scenarios[name] = Scenario(name=name, config=config, description=description)
    return scenarios


# Built-in scenarios register at module import scope (REG001): the
# registry's contents must never depend on who called what, when.
_paper = ExperimentConfig()
for _scenario in (
    Scenario("paper", _paper, "the paper's five topologies at laptop scale"),
    Scenario(
        "widened",
        replace(_paper, topologies=PAPER_TOPOLOGIES + WIDENED_TOPOLOGIES),
        "paper grid plus fat-tree, dragonfly and anisotropic 3-D torus",
    ),
    Scenario(
        "smoke",
        ExperimentConfig(
            # fattree4x3 (85 PEs, 84 Djokovic classes) keeps one
            # wide-label topology in every smoke sweep.
            instances=("p2p-Gnutella", "PGPgiantcompo"),
            topologies=("grid4x4", "hq4", "dragonfly4x2", "fattree4x3"),
            cases=("c2", "c4"),
            repetitions=1,
            n_hierarchies=2,
            divisor=1024,
            n_min=128,
            n_max=192,
        ),
        "minutes-scale end-to-end check (CI, demos)",
    ),
    Scenario(
        "wide",
        ExperimentConfig(
            instances=("p2p-Gnutella", "PGPgiantcompo"),
            topologies=WIDE_TOPOLOGIES,
            cases=("c2",),
            repetitions=1,
            n_hierarchies=2,
            divisor=256,
            n_min=1100,
            n_max=1536,
            seed=2018,
        ),
        "wide-label topologies past the lifted 63-class cap "
        "(fattree2x7 = 255 PEs / 4-word labels, dragonfly16x6 = 1024 PEs)",
    ),
):
    REGISTRY.register(SCENARIO, _scenario.name, _scenario)
del _paper, _scenario


def builtin_scenarios() -> dict[str, Scenario]:
    """All scenarios registered in the unified registry (kind ``scenario``)."""
    return dict(REGISTRY.items(SCENARIO))


def get_scenario(name: str, matrix_path: str | Path | None = None) -> Scenario:
    """Scenario ``name`` from ``matrix_path`` or the registered builtins."""
    if matrix_path:
        table = load_matrix(matrix_path)
        if name not in table:
            raise ConfigurationError(
                f"unknown scenario {name!r} in {matrix_path}; "
                f"known: {', '.join(table)}"
            )
        return table[name]
    return REGISTRY.get(SCENARIO, name)
