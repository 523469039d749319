"""Tests for declarative scenario matrices (TOML/JSON)."""

import pytest

from repro.errors import ConfigurationError
from repro.api.registry import REGISTRY, SCENARIO
from repro.experiments.matrix import (
    Scenario,
    config_from_mapping,
    get_scenario,
    load_matrix,
)
from repro.experiments.runner import ExperimentConfig
from repro.experiments.topologies import PAPER_TOPOLOGIES, WIDENED_TOPOLOGIES

TOML = """
[defaults]
reps = 2
nh = 4
cases = ["c2", "c3"]

[scenario.quick]
description = "tiny sweep"
instances = ["p2p-Gnutella"]
topologies = ["grid4x4", "dragonfly4x2"]

[scenario.deeper]
topologies = ["hq4"]
nh = 6
"""

JSON = """
{
  "defaults": {"reps": 2},
  "scenario": {
    "quick": {"topologies": ["grid4x4"], "description": "json flavor"}
  }
}
"""


class TestLoadMatrix:
    def test_toml_round_trip(self, tmp_path):
        path = tmp_path / "sweeps.toml"
        path.write_text(TOML)
        scenarios = load_matrix(path)
        assert list(scenarios) == ["quick", "deeper"]
        quick = scenarios["quick"]
        assert isinstance(quick, Scenario)
        assert quick.description == "tiny sweep"
        assert quick.config.repetitions == 2  # from defaults
        assert quick.config.cases == ("c2", "c3")
        assert quick.config.topologies == ("grid4x4", "dragonfly4x2")
        assert scenarios["deeper"].config.n_hierarchies == 6  # override wins

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "sweeps.json"
        path.write_text(JSON)
        scenarios = load_matrix(path)
        assert scenarios["quick"].config.repetitions == 2
        assert scenarios["quick"].description == "json flavor"

    def test_unknown_suffix(self, tmp_path):
        path = tmp_path / "sweeps.yaml"
        path.write_text("scenario: {}")
        with pytest.raises(ConfigurationError):
            load_matrix(path)

    def test_missing_scenarios_table(self, tmp_path):
        path = tmp_path / "sweeps.toml"
        path.write_text("[defaults]\nreps = 1\n")
        with pytest.raises(ConfigurationError):
            load_matrix(path)

    def test_unknown_key_fails_fast(self, tmp_path):
        path = tmp_path / "sweeps.toml"
        path.write_text("[scenario.bad]\nrepetitionz = 3\n")
        with pytest.raises(ConfigurationError, match="bad"):
            load_matrix(path)

    def test_unknown_topology_fails_fast(self, tmp_path):
        path = tmp_path / "sweeps.toml"
        path.write_text('[scenario.bad]\ntopologies = ["klein-bottle"]\n')
        with pytest.raises(ConfigurationError, match="klein-bottle"):
            load_matrix(path)


class TestConfigFromMapping:
    def test_aliases(self):
        config = config_from_mapping({"reps": 9, "nh": 3})
        assert config.repetitions == 9 and config.n_hierarchies == 3

    def test_mapping_beats_defaults(self):
        config = config_from_mapping({"reps": 9}, {"reps": 1, "nh": 3})
        assert config.repetitions == 9 and config.n_hierarchies == 3

    def test_lists_become_tuples(self):
        config = config_from_mapping({"cases": ["c1"]})
        assert config.cases == ("c1",)

    def test_bad_case_rejected(self):
        with pytest.raises(ConfigurationError):
            config_from_mapping({"cases": ["c9"]})


class TestBuiltins:
    def test_names(self):
        assert set(REGISTRY.names(SCENARIO)) == {"paper", "widened", "smoke", "wide"}

    def test_wide_scenario_covers_wide_topologies(self):
        from repro.experiments.topologies import WIDE_TOPOLOGIES

        wide = get_scenario("wide").config
        assert wide.topologies == WIDE_TOPOLOGIES
        assert "fattree2x7" in wide.topologies
        # instances must be at least as large as the biggest PE count
        assert wide.n_min >= 1024

    def test_smoke_includes_a_wide_label_topology(self):
        assert "fattree4x3" in get_scenario("smoke").config.topologies

    def test_paper_matches_defaults(self):
        assert get_scenario("paper").config == ExperimentConfig()

    def test_widened_extends_paper(self):
        topos = get_scenario("widened").config.topologies
        assert topos == PAPER_TOPOLOGIES + WIDENED_TOPOLOGIES

    def test_smoke_is_small(self):
        cfg = get_scenario("smoke").config
        assert cfg.n_max <= 256 and cfg.repetitions == 1

    def test_get_scenario_builtin(self):
        assert get_scenario("paper").name == "paper"

    def test_get_scenario_unknown(self):
        with pytest.raises(ConfigurationError):
            get_scenario("nope")

    def test_get_scenario_from_file(self, tmp_path):
        path = tmp_path / "sweeps.toml"
        path.write_text(TOML)
        assert get_scenario("deeper", path).config.n_hierarchies == 6
        with pytest.raises(ConfigurationError):
            get_scenario("paper", path)  # builtins not merged into files
