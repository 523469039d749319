"""Round-trips and absorption checks for the unified registry."""

import pytest

from repro.api.registry import (
    INITIAL_MAPPING,
    REGISTRY,
    SCENARIO,
    TOPOLOGY,
    Registry,
)
from repro.errors import ConfigurationError


class TestRegistryRoundTrip:
    def test_register_get_names(self):
        reg = Registry()
        reg.register("widget", "a", 1)
        reg.register("widget", "b", 2)
        assert reg.get("widget", "a") == 1
        assert reg.names("widget") == ("a", "b")
        assert ("widget", "a") in reg
        assert ("widget", "zzz") not in reg

    def test_decorator_form(self):
        reg = Registry()

        @reg.register("hook")
        def my_hook(ctx):
            return 42

        assert reg.get("hook", "my_hook") is my_hook

        @reg.register("hook", "renamed")
        def other(ctx):
            return 43

        assert reg.get("hook", "renamed") is other

    def test_duplicate_registration_fails_fast(self):
        reg = Registry()
        reg.register("k", "x", 1)
        with pytest.raises(ConfigurationError):
            reg.register("k", "x", 2)
        reg.register("k", "x", 2, overwrite=True)
        assert reg.get("k", "x") == 2
        # same value re-registration is idempotent
        reg.register("k", "x", 2)

    def test_unknown_name_lists_known(self):
        reg = Registry()
        reg.register("k", "alpha", 1)
        with pytest.raises(ConfigurationError) as exc:
            reg.get("k", "beta")
        assert "alpha" in str(exc.value)

    def test_resolve_passes_instances_through(self):
        reg = Registry()
        reg.register("k", "x", "by-name")
        sentinel = object()
        assert reg.resolve("k", sentinel) is sentinel
        assert reg.resolve("k", "x") == "by-name"

    def test_unregister(self):
        reg = Registry()
        reg.register("k", "x", 1)
        reg.unregister("k", "x")
        assert ("k", "x") not in reg
        reg.unregister("k", "x")  # idempotent


class TestAbsorbedRegistries:
    """The three pre-existing ad-hoc registries live in REGISTRY now."""

    def test_initial_mapping_cases_absorbed(self):
        assert set(REGISTRY.names(INITIAL_MAPPING)) >= {"c1", "c2", "c3", "c4"}
        from repro.mapping import mapper

        assert sorted(mapper.available_algorithms()) == sorted(
            REGISTRY.names(INITIAL_MAPPING)
        )
        assert mapper.available_algorithms()["c2"].name == "identity"

    def test_topologies_absorbed(self):
        from repro.experiments.topologies import topology_names

        assert set(topology_names()) == set(REGISTRY.names(TOPOLOGY))
        assert ("grid4x4" in REGISTRY.names(TOPOLOGY))

    def test_scenarios_absorbed(self):
        from repro.experiments.matrix import get_scenario

        assert set(REGISTRY.names(SCENARIO)) >= {"paper", "widened", "smoke"}
        for name in REGISTRY.names(SCENARIO):
            assert get_scenario(name).name == name

    def test_custom_registrations_visible_everywhere(self):
        from repro.experiments.matrix import Scenario, get_scenario
        from repro.experiments.runner import ExperimentConfig
        from repro.experiments.topologies import topology_names
        from repro.graphs import generators as gen
        from repro.mapping.mapper import MappingAlgorithm, available_algorithms

        scenario = Scenario("_test_scenario", ExperimentConfig(), "probe")
        REGISTRY.register(TOPOLOGY, "_test_grid2x2", lambda: gen.grid(2, 2))
        REGISTRY.register(
            INITIAL_MAPPING,
            "_test_case",
            MappingAlgorithm("_test_case", "test", lambda part, gp, seed: None),
        )
        REGISTRY.register(SCENARIO, scenario.name, scenario)
        try:
            assert "_test_grid2x2" in topology_names()
            assert "_test_case" in available_algorithms()
            assert get_scenario("_test_scenario") is scenario
        finally:
            REGISTRY.unregister(TOPOLOGY, "_test_grid2x2")
            REGISTRY.unregister(INITIAL_MAPPING, "_test_case")
            REGISTRY.unregister(SCENARIO, scenario.name)
        assert "_test_grid2x2" not in topology_names()
        with pytest.raises(ConfigurationError):
            get_scenario("_test_scenario")
