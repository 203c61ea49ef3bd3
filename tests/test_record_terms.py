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
from dataclasses import dataclass, field

import pytest

from repro import compare_schemes, paper_experiment
from repro.circuit.dynamic import contention_energy, switching_energy
from repro.circuit.leakage import AffineLeakage, LeakageBreakdown
from repro.core.comparison import point_records
from repro.core.scheme_evaluator import clear_structural_cache, schemes_for
from repro.crossbar.base import CrossbarScheme
from repro.crossbar.factory import available_schemes
from repro.engine import Evaluator
from repro.engine.grid import DesignSpace
from repro.engine.service import EvaluationServer, EvaluationService, ServiceClient
from repro.errors import TimingError
from repro.interconnect.pi_model import PiModel
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


def test_cold_records_build_no_profile_and_derive_the_geometry_once(monkeypatch):
    """The record path builds no leakage objects (``path_leakage``); the
    object API builds them once per scheme for its breakdowns."""
    profiles = _counting(monkeypatch, "path_leakage")
    geometries = _counting(monkeypatch, "_geometry")
    clear_structural_cache()
    for probability in (0.5, 0.2, 0.9):
        point_records(paper_experiment().with_overrides(static_probability=probability))
    assert profiles == []
    assert sorted(geometries) == sorted(available_schemes())
    # The object API on the same schemes reuses their geometry.
    compare_schemes(paper_experiment())
    assert sorted(profiles) == sorted(available_schemes())
    assert sorted(geometries) == sorted(available_schemes())
    clear_structural_cache()


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
