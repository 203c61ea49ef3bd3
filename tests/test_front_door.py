"""Parity of the evaluator's front door with its reference definitions.

Every way into the engine builds a config from overrides
(``ExperimentConfig.with_overrides``, the fleet's ``config_from_wire``,
the service's ``_config_for``) and keys it (``point_key``).  Both take
shortcuts: override names are resolved once per name tuple, and the key
text around the config is cached.  These tests hold them to the
definitions they replace: the path-by-path ``set_path`` fold, and the
SHA-256 of the sorted-key JSON of ``config_payload``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import random
import sys
from pathlib import Path

import pytest

import repro
from repro.core.comparison import point_records
from repro.core.config import ExperimentConfig
from repro.core.paths import leaf_layout, normalize_path, set_path
from repro.crossbar.ports import CrossbarConfig
from repro.engine.cache import CACHE_SCHEMA_VERSION, config_payload, point_key
from repro.engine.distributed import config_from_wire, config_to_wire
from repro.errors import ConfigurationError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import inputs  # noqa: E402

SCHEMES = ["SC", "DFC", "DPC", "SDFC", "SDPC"]
_FIELD_NAMES = {f.name for f in dataclasses.fields(ExperimentConfig)}


def reference_key(config, schemes, baseline="SC") -> str:
    payload = {"baseline": baseline, "config": config_payload(config),
               "model_version": repro.__version__, "schema": CACHE_SCHEMA_VERSION,
               "schemes": list(schemes)}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def fold(base, overrides: dict):
    """The reference ``with_overrides``: direct fields in one ``replace``,
    then every dotted path through ``set_path``, in the order given."""
    direct = {name: value for name, value in overrides.items() if name in _FIELD_NAMES}
    config = dataclasses.replace(base, **direct) if direct else base
    for name, value in overrides.items():
        if name not in _FIELD_NAMES:
            config = set_path(config, normalize_path(name), value)
    return config


def outcome(build, *args):
    """``("ok", result)`` or ``("error", exception type, message)``."""
    try:
        return ("ok", build(*args))
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return ("error", type(exc), str(exc))


def benchmark_points() -> list[dict]:
    """The perfbench scalar, structural and serve-mix points of seeds 1-3."""
    points: list[dict] = []
    for seed in (1, 2, 3):
        points += inputs.scalar_block(seed, 0) + inputs.scalar_block(seed, 1)
        points += inputs.structural_block(seed, 0)
        traffic = inputs.ServeTraffic(seed)
        points += traffic.warm_points
        points += [traffic.next_request()[1] for _ in range(100)]
    return points


def edge_configs() -> list[ExperimentConfig]:
    base = ExperimentConfig()
    return [
        base,
        base.with_overrides(temperature_celsius=110),
        base.with_overrides(temperature_celsius=110.0),
        base.with_overrides(static_probability=1),
        base.with_overrides(**{"crossbar.port_count": 6.0}),
        base.with_overrides(**{"crossbar.allow_self_connection": True}),
        # The extreme finite values (NaN and the infinities are refused).
        base.with_overrides(temperature_celsius=1e308),
        base.with_overrides(clock_frequency=1.7976931348623157e308),
        base.with_overrides(temperature_celsius=-273.1499999999999),
        base.with_overrides(**{"crossbar.port_count": 6}),
        base.with_overrides(crossbar=CrossbarConfig(port_count=4, flit_width=64)),
        base.with_overrides(crossbar=CrossbarConfig(port_count=4),
                            **{"crossbar.flit_width": 32}),
    ]


# ---------------------------------------------------------------------------
# point_key
# ---------------------------------------------------------------------------

def test_point_key_matches_the_canonical_json_of_config_payload():
    base = ExperimentConfig()
    configs = [base.with_overrides(**point) for point in benchmark_points()]
    configs += edge_configs()
    for config in configs + configs[-20:]:
        assert point_key(config, SCHEMES) == reference_key(config, SCHEMES)


def test_cached_key_text_follows_schemes_baseline_and_version(monkeypatch):
    config = ExperimentConfig().with_overrides(**{"crossbar.port_count": 4})
    calls = [(SCHEMES, "SC"), (["SC", "SDPC"], "SC"), (["SC", "SDPC"], "SDPC"),
             (("SDPC", "SC"), "SDPC"), (SCHEMES, "SC")]
    keys = set()
    for version in (repro.__version__, "0.0.1", repro.__version__ + "-next"):
        monkeypatch.setattr(repro, "__version__", version)
        for schemes, baseline in calls + calls:
            key = point_key(config, schemes, baseline)
            assert key == reference_key(config, schemes, baseline)
            keys.add(key)
    assert len(keys) == 3 * 4


def test_differently_typed_frame_parts_never_share_cached_text(monkeypatch):
    """``1 == True`` as dict keys; their key texts differ."""
    config = ExperimentConfig()
    for baseline in (1, True, 1.0, "1"):
        assert point_key(config, [baseline], baseline) == \
            reference_key(config, [baseline], baseline)
    monkeypatch.setattr("repro.engine.cache.CACHE_SCHEMA_VERSION", 2)
    payload = {"baseline": "SC", "config": config_payload(config),
               "model_version": repro.__version__, "schema": 2, "schemes": SCHEMES}
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    assert point_key(config, SCHEMES) == hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# with_overrides
# ---------------------------------------------------------------------------

def _alternative(default):
    """A different, usually valid, value of a leaf's type."""
    if isinstance(default, bool):
        return not default
    if isinstance(default, int):
        return default + 1
    if isinstance(default, float):
        return default * 1.25
    if isinstance(default, str):
        return {"45nm": "65nm", "TT": "FF", "intermediate": "global",
                "uniform": "transpose"}.get(default, default + "-other")
    return 1.0e-4  # an unset optional length or capacitance


def _invalid(default):
    """A value of a leaf's type most validators reject."""
    if isinstance(default, bool):
        return default
    if isinstance(default, int):
        return 0
    if isinstance(default, str):
        return "bogus"
    return -1.0


def test_every_leaf_alone_matches_the_fold():
    base = ExperimentConfig()
    for path, default in leaf_layout():
        for value in (_alternative(default), _invalid(default)):
            overrides = {path: value}
            expected = outcome(fold, base, overrides)
            assert outcome(lambda: base.with_overrides(**overrides)) == expected, path


def test_random_pairs_and_triples_of_leaves_match_the_fold():
    rng = random.Random(15)
    layout = leaf_layout()
    bases = [ExperimentConfig(),
             ExperimentConfig().with_overrides(**{"crossbar.port_count": 6})]
    for size in (2, 3):
        for _ in range(400):
            picks = rng.sample(layout, size)
            overrides = {path: rng.choice((_alternative, _invalid))(default)
                         for path, default in picks}
            for base in bases:
                expected = outcome(fold, base, overrides)
                actual = outcome(lambda: base.with_overrides(**overrides))
                assert actual == expected, overrides


def test_first_invalid_override_in_order_is_reported():
    """One ``replace`` of the crossbar would report its port count first;
    ``with_overrides`` reports the first path given."""
    overrides = {"crossbar.flit_width": 0, "crossbar.port_count": 1}
    with pytest.raises(repro.errors.CrossbarError, match="flit_width"):
        ExperimentConfig().with_overrides(**overrides)
    with pytest.raises(repro.errors.CrossbarError, match="port_count"):
        ExperimentConfig().with_overrides(**dict(reversed(overrides.items())))


def test_direct_sub_config_composes_with_its_dotted_leaves():
    crossbar = CrossbarConfig(port_count=4, flit_width=64)
    for overrides in ({"crossbar": crossbar, "crossbar.port_count": 6},
                      {"crossbar.port_count": 6, "crossbar": crossbar},
                      {"crossbar": crossbar, "port_count": 6, "flit_width": 32}):
        config = ExperimentConfig().with_overrides(**overrides)
        assert config == fold(ExperimentConfig(), overrides)
        assert config.crossbar.port_count == 6
    overrides = {"crossbar": None, "crossbar.port_count": 6}
    assert outcome(lambda: ExperimentConfig().with_overrides(**overrides)) == \
        outcome(fold, ExperimentConfig(), overrides)


# ---------------------------------------------------------------------------
# fleet decode
# ---------------------------------------------------------------------------

def test_wire_round_trip_rebuilds_the_config():
    base = ExperimentConfig()
    configs = [base.with_overrides(**point) for point in benchmark_points()]
    configs += edge_configs()
    for config in configs:
        assert config_from_wire(config_to_wire(config)) == config


def test_scalar_only_items_share_the_default_crossbar():
    decoded = [config_from_wire(config_to_wire(ExperimentConfig().with_overrides(**point)))
               for point in itertools.islice(inputs.point_stream(inputs.scalar_block, 1), 64)]
    default_crossbar = config_from_wire({}).crossbar
    assert all(config.crossbar is default_crossbar for config in decoded)
    structural = config_from_wire({"crossbar.port_count": 4})
    assert structural.crossbar is not default_crossbar


# ---------------------------------------------------------------------------
# non-finite values and temperatures below absolute zero
# ---------------------------------------------------------------------------

#: Every registry path that holds a number (the ``None`` defaults are the
#: derived wire lengths and the receiver capacitance).
NUMERIC_PATHS = [path for path, default in leaf_layout()
                 if default is None or type(default) in (int, float)]
NON_FINITE = [float("nan"), float("inf"), float("-inf")]


def test_numeric_paths_cover_every_number_of_the_registry():
    assert len(NUMERIC_PATHS) == 23
    assert {"temperature_celsius", "clock_frequency", "crossbar.port_count",
            "crossbar.input_wire_length", "crossbar.row_wire_length",
            "crossbar.output_wire_length", "crossbar.receiver_capacitance",
            "crossbar.timing_budget_fraction"} <= set(NUMERIC_PATHS)


@pytest.mark.parametrize("value", NON_FINITE, ids=repr)
@pytest.mark.parametrize("path", NUMERIC_PATHS)
def test_non_finite_values_are_refused_at_every_numeric_path(path, value):
    with pytest.raises(repro.ReproError) as excinfo:
        ExperimentConfig().with_overrides(**{path: value})
    assert path in str(excinfo.value)


#: Values that are no number: strings of digits, bools, containers, bytes.
NOT_NUMBERS = ["0.5", "1", True, False, [1.0], {"value": 1}, b"1"]
#: The registry paths that hold an int, and values that are no integer.
INT_PATHS = [path for path, default in leaf_layout() if type(default) is int]
FRACTIONS = [5.5, 64.5, 0.1, -2.5, 1e-300]


@pytest.mark.parametrize("value", NOT_NUMBERS, ids=repr)
@pytest.mark.parametrize("path", NUMERIC_PATHS)
def test_a_numeric_path_refuses_any_non_number(path, value):
    with pytest.raises(ConfigurationError) as excinfo:
        ExperimentConfig().with_overrides(**{path: value})
    assert path in str(excinfo.value)


def test_none_is_refused_where_the_default_is_a_number():
    for path, default in leaf_layout():
        if type(default) in (int, float):
            with pytest.raises(ConfigurationError, match=path):
                ExperimentConfig().with_overrides(**{path: None})


@pytest.mark.parametrize("value", FRACTIONS, ids=repr)
@pytest.mark.parametrize("path", INT_PATHS)
def test_an_int_path_refuses_a_fraction(path, value):
    with pytest.raises(ConfigurationError, match=f"{path} must be an integer"):
        ExperimentConfig().with_overrides(**{path: value})


@pytest.mark.parametrize("path", sorted(set(NUMERIC_PATHS) - set(INT_PATHS)))
def test_a_float_path_refuses_an_int_no_float_can_hold(path):
    """Evaluation would raise a bare OverflowError converting it."""
    with pytest.raises(ConfigurationError, match=f"{path} must be a number a float can hold"):
        ExperimentConfig().with_overrides(**{path: 10**400})


@pytest.mark.parametrize("path", INT_PATHS)
def test_an_integral_float_on_an_int_path_is_that_int_at_every_door(path):
    """``with_overrides``, ``set_path``, the wire and the constructor all
    take ``6.0`` as ``6``: one config, one key."""
    from fractions import Fraction

    as_int = ExperimentConfig().with_overrides(**{path: 6})
    field = path.split(".")[-1]
    for value in (6.0, Fraction(6)):
        for config in (ExperimentConfig().with_overrides(**{path: value}),
                       set_path(ExperimentConfig(), path, value),
                       config_from_wire({path: value}),
                       ExperimentConfig(crossbar=CrossbarConfig(**{field: value}))):
            assert type(getattr(config.crossbar, field)) is int
            assert config == as_int
            assert point_key(config, SCHEMES) == point_key(as_int, SCHEMES)
            assert config_to_wire(config) == {path: 6}


#: The string and flag paths of the registry, and values of other types.
NAME_PATHS = ["technology_node", "corner", "crossbar.wire_layer"]
WRONG_NAMES = [1.0, 45, None, True, ["45nm"], b"TT"]
WRONG_FLAGS = [0.5, 1.0, 0.0, 2, -1, None, "true", [True]]


def test_name_and_flag_paths_cover_every_non_number_of_the_registry():
    assert sorted(NAME_PATHS) == sorted(
        path for path, default in leaf_layout() if type(default) is str)
    assert [path for path, default in leaf_layout() if type(default) is bool] \
        == ["crossbar.allow_self_connection"]


@pytest.mark.parametrize("value", WRONG_NAMES, ids=repr)
@pytest.mark.parametrize("path", NAME_PATHS)
def test_a_name_path_refuses_any_non_string(path, value):
    with pytest.raises(ConfigurationError) as excinfo:
        ExperimentConfig().with_overrides(**{path: value})
    assert path in str(excinfo.value)


@pytest.mark.parametrize("value", WRONG_FLAGS, ids=repr)
def test_the_flag_path_refuses_anything_but_a_bool_or_0_or_1(value):
    with pytest.raises(ConfigurationError, match="crossbar.allow_self_connection"):
        ExperimentConfig().with_overrides(**{"crossbar.allow_self_connection": value})


def test_flags_spelled_as_0_or_1_still_answer_like_their_bools():
    for flag, spelled in ((True, 1), (False, 0)):
        as_bool = ExperimentConfig().with_overrides(**{"crossbar.allow_self_connection": flag})
        as_int = ExperimentConfig().with_overrides(**{"crossbar.allow_self_connection": spelled})
        assert point_records(as_int) == point_records(as_bool)


def test_temperatures_at_or_below_absolute_zero_are_refused():
    for value in (-273.15, -273.2, -1e300):
        with pytest.raises(repro.ReproError, match="above absolute zero"):
            ExperimentConfig().with_overrides(temperature_celsius=value)
    assert ExperimentConfig().with_overrides(
        temperature_celsius=-273.1499999999999).temperature_celsius > -273.15
