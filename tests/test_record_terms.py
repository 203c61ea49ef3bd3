"""The flat record-terms pass against the object derivation it replaced.

:meth:`CrossbarScheme.derive_record_terms` reads a scheme's leakage
straight from its device part and its delays and energies from one
float pass (``_geometry``).  The oracle below is the earlier
derivation, kept here verbatim in spirit: a profile of
:meth:`AffineLeakage.from_floats` and :class:`LeakageBreakdown` objects,
energies from the capacitances, and delays summed over timing paths of
validated stage objects with their own pi-model arithmetic.  Terms,
the scheme's leakage objects and delays, and errors must be equal
(``==``: bit-identical floats) over a seeded structural sample, every
``crossbar.*`` perturbation and every radix from 3 to 8.  With the
records pinned by ``tests/golden/comparison_records.json``, this oracle
is what checks the one formula set's terms.

Also here: a keeper too strong for its driver fails every entry point
with the same :class:`TimingError`.
"""

from __future__ import annotations

import asyncio
import functools
import random
from dataclasses import dataclass, field, fields, replace

import pytest

from repro import compare_schemes, paper_experiment
from repro.circuit.dynamic import contention_energy, switching_energy
from repro.circuit.gates import (
    Inverter,
    Keeper,
    PassTransistorSwitch,
    PrechargeTransistor,
    SleepTransistor,
)
from repro.circuit.leakage import AffineLeakage, LeakageBreakdown
from repro.core.comparison import point_records
from repro.core.scheme_evaluator import clear_structural_cache, schemes_for
from repro.crossbar import factory
from repro.crossbar.base import DEVICE_PART_LENGTH, CrossbarScheme, SchemeFeatures, VtPlan
from repro.crossbar.factory import available_schemes, create_scheme, register_scheme
from repro.crossbar.frame import CrossbarFrame
from repro.engine import Evaluator
from repro.engine.grid import DesignSpace
from repro.engine.service import EvaluationServer, EvaluationService, ServiceClient
from repro.errors import TechnologyError, TimingError
from repro.interconnect.pi_model import PiModel
from repro.technology.transistor import Polarity, VtFlavor
from repro.timing.delay_analysis import DelayReport, contention_factor, pass_rise_penalty

from test_device_parts import PERTURBATIONS
from test_point_records import _perfbench_inputs

LN2 = 0.6931471805599453

# ---------------------------------------------------------------------------
# the oracle: the earlier object derivation of the terms
# ---------------------------------------------------------------------------


def _pi_delay(pi: PiModel, driver_resistance: float, load_capacitance: float) -> float:
    return LN2 * (
        driver_resistance * (pi.near_capacitance + pi.far_capacitance + load_capacitance)
        + pi.resistance * (pi.far_capacitance + load_capacitance)
    )


def _cascade(first: PiModel, second: PiModel) -> PiModel:
    return PiModel(first.near_capacitance, first.resistance + second.resistance,
                   first.far_capacitance + (second.near_capacitance + second.far_capacitance))


@dataclass(frozen=True)
class _Stage:
    name: str
    driver_resistance: float
    load_capacitance: float
    wire: PiModel | None = None
    series_resistance: float = 0.0
    contention_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.driver_resistance < 0:
            raise TimingError(f"stage {self.name!r}: driver resistance cannot be negative")
        if self.load_capacitance < 0:
            raise TimingError(f"stage {self.name!r}: load capacitance cannot be negative")
        if self.series_resistance < 0:
            raise TimingError(f"stage {self.name!r}: series resistance cannot be negative")
        if self.contention_factor < 1.0:
            raise TimingError(
                f"stage {self.name!r}: contention factor is a delay inflation and must be >= 1"
            )

    def delay(self) -> float:
        total_driver = self.driver_resistance + self.series_resistance
        if self.wire is None:
            base = LN2 * total_driver * self.load_capacitance
        else:
            base = _pi_delay(self.wire, total_driver, self.load_capacitance)
        return base * self.contention_factor


@dataclass(frozen=True)
class _Profile:
    """The earlier object form of a scheme's activity-independent terms;
    energies in joules per output-bit path unless noted."""

    delay: DelayReport
    standby: LeakageBreakdown
    path_leakage: dict[tuple[bool, bool], AffineLeakage]
    precharged_energy: float
    toggled_energy: float
    contention_energy: float
    clocked_energy: float
    input_wire_energy: float
    grant_energy: float
    sleep_control_energy: float
    parked_merge_energy: float
    internal_node_energy: float


@dataclass
class _Path:
    name: str
    stages: list[_Stage] = field(default_factory=list)

    def delay(self) -> float:
        return sum(stage.delay() for stage in self.stages)


class _Oracle:
    """The earlier derivation of one scheme's profile and record terms."""

    def __init__(self, scheme: CrossbarScheme) -> None:
        self.scheme = scheme
        self.merge_stages: dict[tuple[bool, bool], _Stage] = {}

    def row_pi(self, far_path: bool) -> PiModel:
        s = self.scheme
        if not s.features.segmented:
            return s.row_wire.pi_model()
        near_pi = s.segmented_row.near.pi_model()
        if not far_path:
            return near_pi
        far_pi = s.segmented_row.far.pi_model()
        switch_pi = PiModel(0.0, s.segment_switch.on_resistance(), 0.0)
        return _cascade(_cascade(far_pi, switch_pi), near_pi)

    def merge_stage(self, falling: bool, far_path: bool) -> _Stage:
        stage = self.merge_stages.get((falling, far_path))
        if stage is None:
            stage = self.merge_stages[falling, far_path] = self.build_merge_stage(
                falling, far_path)
        return stage

    def build_merge_stage(self, falling: bool, far_path: bool) -> _Stage:
        s = self.scheme
        driver_resistance = (s.input_driver.pull_down_resistance() if falling
                             else s.input_driver.pull_up_resistance())
        granted = (s.near_pass_switch if s.features.segmented and not far_path
                   else s.pass_switch)
        series = granted.on_resistance()
        if not falling:
            series *= pass_rise_penalty(s.supply_voltage,
                                        granted.nmos.parameters.threshold_voltage)
        wire = _cascade(s.input_wire.pi_model(), self.row_pi(far_path))
        contention = 1.0
        if falling and s.keeper is not None:
            drive_current = 0.75 * s.supply_voltage / (driver_resistance + series)
            contention = contention_factor(drive_current, s.keeper.opposing_current())
        return _Stage("merge", driver_resistance, s.near_merge_capacitance(), wire,
                      series, contention)

    def driver_stages(self, output_falling: bool) -> list[_Stage]:
        s = self.scheme
        if output_falling:
            driver1_resistance = s.driver1.pull_up_resistance()
            driver2_resistance = s.driver2.pull_down_resistance()
        else:
            driver1_resistance = s.driver1.pull_down_resistance()
            driver2_resistance = s.driver2.pull_up_resistance()
        return [_Stage("driver1", driver1_resistance, s.internal_node_capacitance()),
                _Stage("driver2", driver2_resistance, s.output_node_capacitance(),
                       s.output_wire.pi_model())]

    def high_to_low(self) -> float:
        path = _Path("high_to_low", [self.merge_stage(True, True)])
        path.stages += self.driver_stages(output_falling=True)
        return path.delay()

    def low_to_high(self) -> float:
        s = self.scheme
        path = _Path("low_to_high")
        if s.features.has_precharge:
            path.stages.append(_Stage("precharge", s.precharge.on_resistance(),
                                      s.near_merge_capacitance(), self.row_pi(True)))
        else:
            path.stages.append(self.merge_stage(False, True))
        path.stages += self.driver_stages(output_falling=False)
        return path.delay()

    def merge_fall_delay(self) -> float:
        s = self.scheme
        far_delay = self.merge_stage(True, True).delay()
        if not s.features.segmented:
            return far_delay
        near_delay = self.merge_stage(True, False).delay()
        near_fraction = s.segmentation_plan.near_traffic_fraction
        return near_fraction * near_delay + (1.0 - near_fraction) * far_delay

    def profile(self) -> _Profile:
        s = self.scheme
        vdd = s.supply_voltage
        part = s.device_part
        path_leakage = {state: AffineLeakage.from_floats(part, 9 * index)
                        for index, state in enumerate(
                            ((True, True), (True, False), (False, True), (False, False)))}
        if s.features.has_sleep:
            standby = LeakageBreakdown(*part[36:39]).scaled(s.output_path_count)
        else:
            standby = path_leakage[True, False].mixed_at(
                path_leakage[False, False], 0.5, 0.5, scale=s.output_path_count)
        internal_node_energy = switching_energy(s.internal_node_capacitance(), vdd)
        precharged_energy = contention = clocked_energy = 0.0
        if s.features.has_precharge:
            precharged_energy = switching_energy(
                s._switched_merge_device_capacitance() + s._row_switched_capacitance()
                + s.output_wire.capacitance + s.output_node_capacitance(), vdd)
            toggled_energy = internal_node_energy
            clocked_energy = switching_energy(s.precharge.control_capacitance(), vdd)
        else:
            toggled_energy = switching_energy(s.data_path_capacitance(), vdd)
            if s.keeper is not None:
                contention = contention_energy(
                    s.keeper.opposing_current(), self.merge_fall_delay(), vdd)
        grant_load = s.config.flit_width * s.pass_switch.grant_capacitance()
        sleep_control_energy = parked_merge_energy = 0.0
        if s.features.has_sleep:
            segments = 2 if s.features.segmented else 1
            sleep_control_energy = segments * switching_energy(
                s.sleep.control_capacitance(), vdd)
            row_capacitance = (s.segmented_row.total_capacitance if s.features.segmented
                               else s.row_wire.capacitance)
            parked_merge_energy = switching_energy(s.merge_capacitance() + row_capacitance, vdd)
        return _Profile(
            delay=DelayReport(scheme=s.name, high_to_low=self.high_to_low(),
                              low_to_high=self.low_to_high()),
            standby=standby,
            path_leakage=path_leakage,
            precharged_energy=precharged_energy,
            toggled_energy=toggled_energy,
            contention_energy=contention,
            clocked_energy=clocked_energy,
            input_wire_energy=switching_energy(s.input_wire.capacitance, vdd),
            grant_energy=0.2 * switching_energy(grant_load, vdd),
            sleep_control_energy=sleep_control_energy,
            parked_merge_energy=parked_merge_energy,
            internal_node_energy=internal_node_energy,
        )

    def record_terms(self) -> tuple:
        s = self.scheme
        profile = self.profile()
        vdd = s.supply_voltage
        leakage = profile.path_leakage
        return (
            vdd, s.output_path_count, s.input_wire_count, s.config.output_count,
            *(value for state in ((True, True), (True, False), (False, True), (False, False))
              for value in leakage[state].floats()),
            profile.standby.power(vdd),
            profile.precharged_energy, profile.toggled_energy, profile.contention_energy,
            profile.clocked_energy, profile.input_wire_energy, profile.grant_energy,
            profile.sleep_control_energy, profile.parked_merge_energy,
            profile.internal_node_energy,
            profile.delay,
        )


# ---------------------------------------------------------------------------
# parity
# ---------------------------------------------------------------------------


def _outcome(evaluate):
    try:
        return evaluate()
    except Exception as exc:
        return (type(exc), str(exc))


def _structural_sample(seed: int = 7, size: int = 40) -> list[dict]:
    """A seeded sample of one ``sweep_structural`` block holding every
    (node, corner) pair and every port count it sweeps."""
    block = _perfbench_inputs().structural_block(seed, 0)
    chosen: dict = {}
    for point in block:
        chosen.setdefault((point["technology_node"], point["corner"]), point)
        chosen.setdefault(point["crossbar.port_count"], point)
    sample = list({id(point): point for point in chosen.values()}.values())
    sample += random.Random(seed).sample(block, size)
    return sample


def _assert_terms_match_the_oracle(config) -> int:
    """Every scheme's terms, leakage objects and delays equal the
    oracle's; returns how many schemes were compared."""
    schemes = list(schemes_for(config, None, "SC"))
    for _name, scheme in schemes:
        expected = _outcome(_Oracle(scheme).record_terms)
        assert _outcome(scheme.derive_record_terms) == expected, scheme.name
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            continue
        profile = _Oracle(scheme).profile()
        assert scheme.path_leakage == profile.path_leakage, scheme.name
        assert scheme.standby_leakage() == profile.standby, scheme.name
        assert scheme.delay_report() == profile.delay, scheme.name
    return len(schemes)


def test_record_terms_match_the_object_derivation_on_a_structural_sample():
    clear_structural_cache()
    sample = _structural_sample()
    assert {(point["technology_node"], point["corner"]) for point in sample} >= {
        (node, corner) for node in ("90nm", "65nm", "45nm", "32nm")
        for corner in ("TT", "FF", "SS", "FS", "SF")}
    base = paper_experiment()
    compared = sum(_assert_terms_match_the_oracle(base.with_overrides(**point))
                   for point in sample)
    assert compared == 5 * len(sample)
    clear_structural_cache()


@pytest.mark.parametrize("path", sorted(PERTURBATIONS))
def test_record_terms_match_the_object_derivation_under_each_perturbation(path):
    config = paper_experiment().with_overrides(**{path: PERTURBATIONS[path]})
    assert _assert_terms_match_the_oracle(config) == 5


@pytest.mark.parametrize("ports", range(3, 9))
def test_record_terms_match_the_object_derivation_on_every_radix(ports):
    config = paper_experiment().with_overrides(**{"crossbar.port_count": ports})
    assert _assert_terms_match_the_oracle(config) == 5


def test_a_failing_keeper_raises_what_the_object_derivation_raises():
    config = paper_experiment().with_overrides(**{"crossbar.keeper_width": 2e-6})
    for _name, scheme in schemes_for(config, None, "SC"):
        expected = _outcome(_Oracle(scheme).record_terms)
        assert _outcome(scheme.derive_record_terms) == expected
        if scheme.keeper is not None:
            assert expected[0] is TimingError


def test_a_device_without_drive_raises_what_the_object_derivation_raises():
    """A hand-edited library whose nominal NMOS has no drive current: the
    leakage walk does not need a resistance, the first delay does, and
    it raises what the gate objects raised."""
    library = paper_experiment().build_library()
    key = (Polarity.NMOS, VtFlavor.NOMINAL)
    library.devices[key] = replace(library.devices[key], drive_k_per_meter=0.0)
    for name in available_schemes():
        scheme = create_scheme(name, library)
        assert len(scheme.derive_device_part()) == DEVICE_PART_LENGTH
        expected = _outcome(_Oracle(create_scheme(name, library)).record_terms)
        assert expected == (TechnologyError,
                            "saturation current must be positive to define a resistance")
        assert _outcome(scheme.derive_record_terms) == expected


def _counting(monkeypatch, name: str) -> list[str]:
    """Replace the cached property ``name`` of every scheme with one that
    records the scheme name each time it is derived."""
    built: list[str] = []
    original = getattr(CrossbarScheme, name).func

    def counting(scheme):
        built.append(scheme.name)
        return original(scheme)

    patched = functools.cached_property(counting)
    patched.__set_name__(CrossbarScheme, name)
    monkeypatch.setattr(CrossbarScheme, name, patched)
    return built


def _counting_inits(monkeypatch, classes) -> list[str]:
    """Record the class name of every instance of ``classes`` built."""
    built: list[str] = []
    for cls in classes:
        def counting(self, *args, _original=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return built


def test_cold_records_build_one_frame_and_no_gates(monkeypatch):
    """A structure's records come from one shared frame: no gate object
    and no leakage profile (``path_leakage``), each scheme's geometry
    derived once.  The object API on the same schemes reuses that
    geometry, builds each profile once and still builds no gate."""
    frames = _counting_inits(monkeypatch, [CrossbarFrame])
    gates = _counting_inits(monkeypatch, [Inverter, Keeper, PassTransistorSwitch,
                                          PrechargeTransistor, SleepTransistor])
    profiles = _counting(monkeypatch, "path_leakage")
    geometries = _counting(monkeypatch, "_geometry")
    clear_structural_cache()
    for probability in (0.5, 0.2, 0.9):
        point_records(paper_experiment().with_overrides(static_probability=probability))
    assert len(frames) == 1
    schemes = [scheme for _name, scheme in schemes_for(paper_experiment(), None, "SC")]
    assert all(scheme.frame is schemes[0].frame for scheme in schemes)
    assert gates == [] and profiles == []
    assert sorted(geometries) == sorted(available_schemes())
    compare_schemes(paper_experiment())
    assert sorted(profiles) == sorted(available_schemes())
    assert sorted(geometries) == sorted(available_schemes())
    assert len(frames) == 1 and gates == []
    clear_structural_cache()


# ---------------------------------------------------------------------------
# the shared frame against schemes built alone
# ---------------------------------------------------------------------------


def _alone(scheme: CrossbarScheme) -> CrossbarScheme:
    """``scheme``'s class on the same library and crossbar, reading a
    frame of its own."""
    return type(scheme)(scheme.library, scheme.config)


def _assert_frame_matches_alone(config) -> int:
    """Every scheme of ``config``'s structure, from its shared frame,
    has the terms and device part of the same scheme built alone (or
    raises what it raises); returns how many schemes were compared."""
    schemes = list(schemes_for(config, None, "SC"))
    assert len({id(scheme.frame) for _name, scheme in schemes}) == 1
    for _name, scheme in schemes:
        alone = _alone(scheme)
        assert alone.frame is not scheme.frame
        assert _outcome(lambda: list(scheme.device_part)) == _outcome(
            lambda: list(alone.derive_device_part())), scheme.name
        assert _outcome(lambda: scheme.record_terms) == _outcome(
            alone.derive_record_terms), scheme.name
    return len(schemes)


def test_the_shared_frame_gives_every_structure_of_a_block_its_alone_terms():
    """Every (library, crossbar) structure of one ``structural_block`` at
    one of its temperatures."""
    block = _perfbench_inputs().structural_block(11, 0)
    temperature = min(point["temperature_celsius"] for point in block)
    structures = [point for point in block if point["temperature_celsius"] == temperature]
    assert len(structures) == len(block) // 3
    clear_structural_cache()
    base = paper_experiment()
    compared = sum(_assert_frame_matches_alone(base.with_overrides(**point))
                   for point in structures)
    assert compared == 5 * len(structures)
    clear_structural_cache()


#: A feedback plan with every device high-Vt, which no bundled scheme
#: uses.
_ALL_HIGH = VtPlan(**{plan_field.name: VtFlavor.HIGH for plan_field in fields(VtPlan)})


class _AllHighFeedback(CrossbarScheme):
    """Every device high-Vt, Fig. 1's circuit otherwise."""

    name = "HVT"

    def __init__(self, library, config=None):
        super().__init__(library, config, features=SchemeFeatures(), vt_plan=_ALL_HIGH)


def test_a_registered_scheme_reads_the_frame_like_the_bundled_ones():
    """An extension scheme registered by name: its records from
    ``point_records`` equal the object API's, and its terms from the
    shared frame equal its alone-built terms and the oracle's."""
    clear_structural_cache()
    register_scheme("HVT", _AllHighFeedback)
    try:
        assert available_schemes()[-1] == "HVT"
        base = paper_experiment()
        recorded = 0
        for point in [{}] + _structural_sample(size=12):
            config = base.with_overrides(**point)
            records = _outcome(lambda: point_records(config))
            assert records == _outcome(lambda: compare_schemes(config).as_records())
            if isinstance(records, list):
                assert records[-1]["scheme"] == "HVT"
                recorded += 1
            scheme = dict(schemes_for(config, None, "SC"))["HVT"]
            alone = _alone(scheme)
            expected = _outcome(_Oracle(alone).record_terms)
            assert _outcome(alone.derive_record_terms) == expected
            assert _outcome(lambda: scheme.record_terms) == expected
        assert recorded > 0
    finally:
        del factory._REGISTRY["HVT"]
        factory._ORDERED_NAMES = factory._ordered_names()
        clear_structural_cache()
    assert "HVT" not in available_schemes()


# ---------------------------------------------------------------------------
# a keeper that defeats its driver, at every entry point
# ---------------------------------------------------------------------------

STRONG_KEEPER = {"crossbar.keeper_width": 2e-6}
KEEPER_MESSAGE = "keeper current is within 80% of the drive current"


def test_a_too_strong_keeper_fails_every_entry_point_alike():
    clear_structural_cache()
    config = paper_experiment().with_overrides(**STRONG_KEEPER)
    with pytest.raises(TimingError) as reference:
        compare_schemes(config)
    assert str(reference.value).startswith(KEEPER_MESSAGE)
    clear_structural_cache()
    with pytest.raises(TimingError) as records:
        point_records(config)
    clear_structural_cache()
    with pytest.raises(TimingError) as evaluated:
        Evaluator(executor="serial").evaluate(DesignSpace.from_points([STRONG_KEEPER]))
    assert str(records.value) == str(evaluated.value) == str(reference.value)
    clear_structural_cache()


def test_a_too_strong_keeper_is_a_400_over_http():
    async def scenario():
        service = EvaluationService(executor="serial", max_batch_size=1)
        server = await EvaluationServer(service, port=0).start()
        client = ServiceClient("127.0.0.1", server.port)
        answer = await client._request("POST", "/evaluate", {"overrides": STRONG_KEEPER})
        await server.stop()
        await service.stop()
        return answer

    status, payload = asyncio.run(scenario())
    with pytest.raises(TimingError) as reference:
        compare_schemes(paper_experiment().with_overrides(**STRONG_KEEPER))
    assert status == 400
    assert payload == {"error": "evaluation-failed", "message": str(reference.value)}
