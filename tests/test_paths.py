"""Unit tests for dotted config paths (repro.core.paths) and the
nested-override surface of ExperimentConfig."""

from __future__ import annotations

import pytest

from repro import ExperimentConfig, describe_path, get_path, set_path, sweepable_paths
from repro.core.paths import leaf_layout, normalize_path, path_aliases
from repro.crossbar.ports import CrossbarConfig
from repro.errors import ConfigurationError, CrossbarError


class TestGetSetPath:
    def test_get_top_level_and_nested(self):
        config = ExperimentConfig()
        assert get_path(config, "temperature_celsius") == 110.0
        assert get_path(config, "crossbar.flit_width") == 128
        assert get_path(config, "crossbar") is config.crossbar

    def test_get_unset_optional_branch_reads_defaults(self):
        config = ExperimentConfig()
        assert config.noc is None
        assert get_path(config, "noc.buffer_depth") == 4
        assert get_path(config, "noc.gating_policy.idle_detect_cycles") == 4

    def test_set_returns_new_config_and_leaves_original(self):
        config = ExperimentConfig()
        updated = set_path(config, "crossbar.port_count", 9)
        assert updated.crossbar.port_count == 9
        assert config.crossbar.port_count == 5
        assert updated.crossbar.flit_width == config.crossbar.flit_width

    def test_set_materialises_optional_branch(self):
        config = ExperimentConfig()
        updated = set_path(config, "noc.gating_policy.wakeup_cycles", 2)
        assert config.noc is None
        assert updated.noc.gating_policy.wakeup_cycles == 2
        assert updated.noc.buffer_depth == 4  # rest of the branch defaulted

    def test_unknown_segment_names_the_path(self):
        with pytest.raises(ConfigurationError, match="crossbar.bogus"):
            set_path(ExperimentConfig(), "crossbar.bogus", 1)
        with pytest.raises(ConfigurationError, match="bogus"):
            get_path(ExperimentConfig(), "bogus")

    def test_descending_into_scalar_rejected(self):
        with pytest.raises(ConfigurationError, match="flit_width"):
            get_path(ExperimentConfig(), "crossbar.flit_width.bits")

    def test_set_revalidates_and_names_the_path(self):
        with pytest.raises(CrossbarError, match="crossbar.port_count"):
            set_path(ExperimentConfig(), "crossbar.port_count", 0)
        with pytest.raises(CrossbarError, match="crossbar.input_buffer_depth"):
            CrossbarConfig(input_buffer_depth=0)


class TestRegistry:
    def test_registry_covers_tree_and_flat_names(self):
        paths = sweepable_paths()
        for expected in (
            "technology_node",
            "static_probability",
            "crossbar.port_count",
            "crossbar.flit_width",
            "crossbar.input_buffer_depth",
            "noc.link_length",
            "noc.gating_policy.wakeup_cycles",
        ):
            assert expected in paths
        # Interior nodes are not sweepable as a whole.
        assert "crossbar" not in paths
        assert "noc" not in paths

    def test_leaf_layout_follows_the_registry_with_defaults(self):
        root = ExperimentConfig()
        layout = leaf_layout()
        assert [path for path, _, _ in layout] == list(sweepable_paths())
        for path, default, branch in layout:
            assert default == get_path(root, path)
            assert branch == ("noc" if path.startswith("noc.") else None)

    def test_aliases_are_unambiguous(self):
        aliases = path_aliases()
        assert aliases["port_count"] == "crossbar.port_count"
        assert aliases["flit_width"] == "crossbar.flit_width"
        # static_probability exists both flat and under noc: the flat
        # spelling is canonical, so no alias may shadow it.
        assert "static_probability" not in aliases
        assert normalize_path("static_probability") == "static_probability"

    def test_network_level_paths_have_no_aliases(self):
        """A shorthand like 'buffer_depth' silently landing on a knob the
        Table-1 comparison never reads would masquerade as a no-op sweep;
        network-level paths must be spelled out in full."""
        aliases = path_aliases()
        assert "buffer_depth" not in aliases
        assert "link_length" not in aliases
        assert "input_buffer_depth" not in aliases
        with pytest.raises(ConfigurationError, match="sweepable"):
            normalize_path("buffer_depth")
        assert normalize_path("noc.buffer_depth") == "noc.buffer_depth"

    def test_normalize_rejects_unknown_with_sweepable_list(self):
        with pytest.raises(ConfigurationError, match="sweepable"):
            normalize_path("oxide_thickness")

    def test_describe_path_accepts_aliases(self):
        assert describe_path("crossbar.port_count") == describe_path("port_count")

    def test_network_level_paths_are_annotated(self):
        """Paths consumed by NocPowerModel (not the Table-1 comparison)
        must say so, or a flat sweep over them reads as 'no effect'."""
        paths = sweepable_paths()
        assert "network-level" in paths["noc.link_length"]
        assert "network-level" in paths["noc.gating_policy.wakeup_cycles"]
        assert "network-level" in paths["crossbar.input_buffer_depth"]
        assert "network-level" not in paths["crossbar.port_count"]
        assert "network-level" not in paths["static_probability"]


class TestWithOverrides:
    def test_flat_overrides_unchanged(self):
        config = ExperimentConfig().with_overrides(temperature_celsius=25.0,
                                                   corner="FF")
        assert config.temperature_celsius == 25.0
        assert config.corner == "FF"

    def test_whole_subconfig_then_dotted_path_compose(self):
        config = ExperimentConfig().with_overrides(**{
            "crossbar": CrossbarConfig(flit_width=64),
            "crossbar.port_count": 6,
        })
        assert config.crossbar.flit_width == 64
        assert config.crossbar.port_count == 6

    def test_alias_and_path_conflict_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            ExperimentConfig().with_overrides(**{
                "port_count": 6, "crossbar.port_count": 7})

    def test_unknown_override_rejected(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig().with_overrides(oxide_thickness=1.0)
