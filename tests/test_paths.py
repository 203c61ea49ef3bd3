"""Unit tests for dotted config paths (repro.core.paths) and the
nested-override surface of ExperimentConfig."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro import (
    ExperimentConfig,
    describe_path,
    get_path,
    paper_experiment,
    set_path,
    sweepable_paths,
)
from repro.core.comparison import point_records
from repro.core.paths import leaf_layout, normalize_path, path_aliases
from repro.crossbar.ports import CrossbarConfig
from repro.errors import ConfigurationError, CrossbarError

from test_device_parts import PERTURBATIONS

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: One valid non-default value for every top-level path; the crossbar
#: paths take theirs from the device-part tests.
TOP_LEVEL_PERTURBATIONS = {
    "technology_node": "32nm",
    "temperature_celsius": 25.0,
    "corner": "FF",
    "clock_frequency": 2.0e9,
    "static_probability": 0.3,
    "toggle_activity": 0.3,
}

#: Validated, always in the cache key, but read by no record yet: the
#: timing budget is for a slack-driven Vt assignment (ROADMAP).
UNREAD_PATHS = {"crossbar.timing_budget_fraction"}


class TestGetSetPath:
    def test_get_top_level_and_nested(self):
        config = ExperimentConfig()
        assert get_path(config, "temperature_celsius") == 110.0
        assert get_path(config, "crossbar.flit_width") == 128
        assert get_path(config, "crossbar") is config.crossbar

    def test_set_returns_new_config_and_leaves_original(self):
        config = ExperimentConfig()
        updated = set_path(config, "crossbar.port_count", 9)
        assert updated.crossbar.port_count == 9
        assert config.crossbar.port_count == 5
        assert updated.crossbar.flit_width == config.crossbar.flit_width

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


class TestRegistry:
    def test_registry_covers_tree_and_flat_names(self):
        paths = sweepable_paths()
        for expected in (
            "technology_node",
            "static_probability",
            "crossbar.port_count",
            "crossbar.flit_width",
        ):
            assert expected in paths
        # Interior nodes are not sweepable as a whole.
        assert "crossbar" not in paths
        # Six top-level scalars and the crossbar's 21 leaves; the network
        # model's parameters are not part of the Table-1 config.
        assert len(paths) == 27
        assert not any(path.startswith("noc.") for path in paths)

    def test_leaf_layout_follows_the_registry_with_defaults(self):
        root = ExperimentConfig()
        layout = leaf_layout()
        assert [path for path, _ in layout] == list(sweepable_paths())
        for path, default in layout:
            assert default == get_path(root, path)

    def test_aliases_are_unambiguous(self):
        aliases = path_aliases()
        assert aliases["port_count"] == "crossbar.port_count"
        assert aliases["flit_width"] == "crossbar.flit_width"
        # The flat spelling is canonical, so no alias may shadow it.
        assert "static_probability" not in aliases
        assert normalize_path("static_probability") == "static_probability"
        # Every crossbar leaf answers to its bare name.
        assert aliases == {path.rsplit(".", 1)[-1]: path
                           for path in sweepable_paths() if "." in path}

    def test_paths_that_change_no_record_are_unknown(self):
        """The network model's knobs and the router buffer depth are no
        part of the Table-1 config: naming one is an error, not a sweep
        that splits the cache while every answer stays the same."""
        for name in ("noc.link_length", "noc.gating_policy.wakeup_cycles",
                     "crossbar.input_buffer_depth", "input_buffer_depth",
                     "buffer_depth"):
            with pytest.raises(ConfigurationError, match="sweepable"):
                normalize_path(name)
            with pytest.raises(ConfigurationError):
                ExperimentConfig().with_overrides(**{name: 4})
        with pytest.raises(ConfigurationError, match="input_buffer_depth"):
            set_path(ExperimentConfig(), "crossbar.input_buffer_depth", 4)

    def test_normalize_rejects_unknown_with_sweepable_list(self):
        with pytest.raises(ConfigurationError, match="sweepable"):
            normalize_path("oxide_thickness")

    def test_describe_path_accepts_aliases(self):
        assert describe_path("crossbar.port_count") == describe_path("port_count")


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


PATH_PERTURBATIONS = {**TOP_LEVEL_PERTURBATIONS, **PERTURBATIONS}


class TestEveryPathChangesARecord:
    def test_every_path_has_a_perturbation(self):
        assert set(PATH_PERTURBATIONS) == {path for path, _ in leaf_layout()}

    @pytest.mark.parametrize("path", sorted(PATH_PERTURBATIONS))
    def test_every_path_perturbed_at_the_paper_point_changes_the_records(self, path):
        """A path that changes no record would only split the cache: each
        value a new key, every answer the same records."""
        perturbed = paper_experiment().with_overrides(**{path: PATH_PERTURBATIONS[path]})
        changed = point_records(perturbed) != point_records(paper_experiment())
        assert changed == (path not in UNREAD_PATHS)

    def test_evaluating_a_point_leaves_the_network_model_unimported(self):
        """Neither the evaluator nor the service loads ``repro.noc``."""
        probe = (
            "import asyncio, sys\n"
            "from repro.engine import Evaluator\n"
            "from repro.engine.service import EvaluationService\n"
            "Evaluator(scheme_names=['SC', 'SDPC']).evaluate_grid("
            "{'crossbar.port_count': [4], 'static_probability': [0.3]})\n"
            "async def serve():\n"
            "    service = EvaluationService(scheme_names=['SC', 'SDPC'], executor='serial')\n"
            "    await service.evaluate({'toggle_activity': 0.2})\n"
            "    await service.stop()\n"
            "asyncio.run(serve())\n"
            "print(sorted(m for m in sys.modules if m.split('.')[:2] == ['repro', 'noc']))\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        output = subprocess.run([sys.executable, "-c", probe], env=env,
                                capture_output=True, text=True, timeout=60, check=True)
        assert output.stdout.strip() == "[]"
