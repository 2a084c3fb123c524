"""Bench assembly, tuning solve and detection probabilities."""

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from cfcomm import circuit
from cfcomm.circuit import (Circuit, build_circuit, calibration_tuning,
                            detection_probs, preset_tuning, propagate,
                            propagate_cuts, solve_tuning, validate_circuit)
from cfcomm.config import reference_device
from cfcomm.errors import ConfigError, TopologyError
from cfcomm.optics import (Attenuator, Beamsplitter, Block, Detector, Mirror,
                           PhaseShift)

import oracles


@pytest.fixture(scope="module")
def bench():
    return reference_device()


def with_r2(cfg, **r2):
    table = {"outer": 0.5, "inner_near": 0.5, "inner_far": 0.5}
    table.update(r2)
    return dataclasses.replace(cfg, beamsplitter_r2=tuple(sorted(table.items())))


# -- tuning solve ----------------------------------------------------------

def test_reference_tuning_is_exact(bench):
    tun = solve_tuning(bench)
    assert tun.attenuator_t == pytest.approx(0.25, abs=1e-12)
    assert tun.phase_inner_first == pytest.approx(0.0, abs=1e-12)
    assert tun.phase_inner_second == pytest.approx(0.0, abs=1e-12)
    assert tun.phase_reference == pytest.approx(0.0, abs=1e-12)


def test_calibration_tuning_flips_to_bright(bench):
    op = solve_tuning(bench)
    cal = calibration_tuning(bench)
    assert cal.attenuator_t == op.attenuator_t
    assert cal.phase_inner_first == pytest.approx(op.phase_inner_first + math.pi)
    assert cal.phase_inner_second == pytest.approx(op.phase_inner_second + math.pi)


def test_result_caches_stay_bounded_over_fresh_configs(bench):
    """A stream of distinct configs keeps at most RESULT_CACHE_SIZE each."""
    from cfcomm.protocol import sector_probs
    for seed in range(circuit.RESULT_CACHE_SIZE + 5):
        cfg = dataclasses.replace(bench, seed=seed)
        solve_tuning(cfg), calibration_tuning(cfg), sector_probs(cfg, "bit1")
    for fn in (solve_tuning, calibration_tuning, sector_probs):
        assert fn.cache_info().currsize <= circuit.RESULT_CACHE_SIZE


def test_tuning_matches_closed_form_at_uneven_split(bench):
    cfg = with_r2(bench, outer=0.6, inner_near=0.6, inner_far=0.6)
    tun = solve_tuning(cfg)
    want = oracles.balance_attenuator_t(0.6, 0.6, 0.6, 0.6, 0.6, 0.6)
    assert want == pytest.approx(0.24)
    assert tun.attenuator_t == pytest.approx(want, abs=1e-12)


@given(r2o=st.floats(0.2, 0.8), r2n=st.floats(0.2, 0.8), r2f=st.floats(0.2, 0.8))
@settings(max_examples=20, deadline=None)
def test_tuning_solve_tracks_closed_form(bench, r2o, r2n, r2f):
    cfg = with_r2(bench, outer=r2o, inner_near=r2n, inner_far=r2f)
    want = oracles.balance_attenuator_t(r2o, r2n, r2f, r2f, r2n, r2o)
    assume(0.0 < want <= 1.0)  # otherwise legitimately unbalanceable
    tun = solve_tuning(cfg)
    assert tun.attenuator_t == pytest.approx(want, abs=1e-10)
    probs = detection_probs(build_circuit(cfg, "bit1", include_eoms=False))
    assert probs["det0"] <= 1e-20


def test_unbalanceable_bench_is_rejected(bench):
    # nearly-transparent outer taps against highly reflective inner loops:
    # the reference arm is far too weak to cancel the leak
    cfg = with_r2(bench, outer=0.02, inner_near=0.9, inner_far=0.9)
    with pytest.raises(ConfigError, match="balanc"):
        solve_tuning(cfg)


def test_numeric_attenuator_is_kept_and_phase_still_darkens(bench):
    cfg = dataclasses.replace(bench, attenuator_t=0.4)
    tun = solve_tuning(cfg)
    assert tun.attenuator_t == 0.4
    # det0 cannot be nulled with the wrong attenuation, but the solved
    # reference phase must sit at the local minimum
    probs = detection_probs(build_circuit(cfg, "bit1", include_eoms=False))
    assert probs["det0"] > 1e-6
    for eps in (-0.1, 0.1):
        worse = circuit._assemble(
            circuit._r2_table(cfg), None, tun.attenuator_t,
            tun.phase_inner_first, tun.phase_inner_second,
            tun.phase_reference + eps, shutter=True)
        assert detection_probs(worse)["det0"] > probs["det0"]


def test_preset_tuning_rejects_unknown(bench):
    with pytest.raises(ConfigError, match="preset"):
        preset_tuning(bench, "bit2")


# -- detection probabilities ------------------------------------------------

def test_bit0_probabilities(bench):
    probs = detection_probs(build_circuit(bench, "bit0", include_eoms=False))
    assert probs["det0"] == pytest.approx(oracles.p_d0_bit0(0.25), abs=1e-15)
    assert probs["det0"] == pytest.approx(1 / 64, abs=1e-15)
    assert probs["det1"] == 0.0


def test_bit1_probabilities(bench):
    probs = detection_probs(build_circuit(bench, "bit1", include_eoms=False))
    assert probs["det1"] == pytest.approx(oracles.p_d1_bit1(), abs=1e-15)
    assert probs["det1"] == pytest.approx(1 / 32, abs=1e-15)
    assert probs["det0"] == 0.0


def test_calibration_probability(bench):
    probs = detection_probs(build_circuit(bench, "calibration", include_eoms=False))
    assert probs["det0"] == pytest.approx(oracles.calibration_d0_amp(0.25) ** 2,
                                          abs=1e-12)
    assert probs["det0"] == pytest.approx(25 / 64, abs=1e-12)


def test_mistuned_inner_phase_leaks(bench):
    tun = solve_tuning(bench)
    bad = circuit._assemble(
        circuit._r2_table(bench), None, tun.attenuator_t,
        tun.phase_inner_first + 0.3, tun.phase_inner_second,
        tun.phase_reference, shutter=False)
    assert detection_probs(bad)["det1"] > 1e-4


def test_probabilities_with_modulators_grow_by_sideband_power(bench):
    """Terminal norm grows by 2 alpha^2 per lit modulator pass, never more
    than the sum over the five-site bench (the all-bright calibration)."""
    alpha = bench.eoms[0].alpha
    for preset, cap in (("bit0", 3.0), ("bit1", 3.0), ("calibration", 6.0)):
        state = propagate(build_circuit(bench, preset))
        growth = state.norm() - 1.0
        assert 0.0 < growth <= cap * alpha ** 2
    cal = propagate(build_circuit(bench, "calibration")).norm() - 1.0
    assert cal > 3.0 * alpha ** 2  # all-bright bench exceeds the dark-bench cap


def test_detection_probs_order_is_stable(bench):
    probs = detection_probs(build_circuit(bench, "bit0"))
    assert list(probs) == ["det0", "det1"]


# -- wiring validation -------------------------------------------------------

def test_validate_accepts_vacuum_splitter_input():
    c = Circuit((Beamsplitter.from_r2(0.5, "a", "vac", "c", "d"),
                 Detector("c", "dc"), Detector("d", "dd")),
                (("a", 1.0 + 0j),), frozenset())
    validate_circuit(c)  # does not raise


def test_validate_rejects_dangling_arm():
    c = Circuit((Beamsplitter.from_r2(0.5, "a", "vac", "c", "d"),
                 Detector("c", "dc")),
                (("a", 1.0 + 0j),), frozenset())
    with pytest.raises(TopologyError, match="dangling"):
        validate_circuit(c)


def test_validate_rejects_use_after_consumption():
    c = Circuit((Mirror("a", "b"), PhaseShift("a", 0.1),
                 Detector("b", "db")),
                (("a", 1.0 + 0j),), frozenset())
    with pytest.raises(TopologyError, match="consumed"):
        validate_circuit(c)


def test_validate_rejects_element_on_virgin_arm():
    c = Circuit((PhaseShift("b", 0.1), Detector("a", "da")),
                (("a", 1.0 + 0j),), frozenset())
    with pytest.raises(TopologyError, match="virgin"):
        validate_circuit(c)


def test_validate_rejects_duplicate_detector_names():
    c = Circuit((Beamsplitter.from_r2(0.5, "a", "vac", "c", "d"),
                 Detector("c", "dup"), Detector("d", "dup")),
                (("a", 1.0 + 0j),), frozenset())
    with pytest.raises(TopologyError, match="duplicate detector"):
        validate_circuit(c)


def test_validate_rejects_write_into_used_arm():
    c = Circuit((Beamsplitter.from_r2(0.5, "a", "vac", "c", "a2"),
                 Mirror("c", "a2"), Detector("a2", "da")),
                (("a", 1.0 + 0j),), frozenset())
    with pytest.raises(TopologyError, match="already-used"):
        validate_circuit(c)


@pytest.mark.parametrize("elements,match", [
    ((Beamsplitter.from_r2(0.5, "a", "a", "c", "d"),
      Detector("c", "dc"), Detector("d", "dd")), "ports must differ"),
    ((Beamsplitter.from_r2(0.5, "a", "vac", "c", "c"),
      Detector("c", "dc")), "ports must differ"),
    ((Mirror("a", "b"), Beamsplitter.from_r2(0.5, "a", "vac", "c", "d"),
      Detector("b", "db"), Detector("c", "dc"), Detector("d", "dd")),
     "consumed"),
    ((Block("x", "loss"), Detector("a", "da")), "virgin"),
    ((Beamsplitter.from_r2(0.5, "a", "vac", "c", "d"),
      Attenuator("c", 0.5, "d"), Detector("c", "dc"), Detector("d", "dd")),
     "already-used"),
    ((Mirror("x", "b"), Detector("a", "da"), Detector("b", "db")), "virgin"),
], ids=["splitter-equal-ins", "splitter-equal-outs", "splitter-reuses-consumed",
        "shutter-on-virgin", "loss-port-into-used", "mirror-from-virgin"])
def test_validate_rejects_miswired_elements(elements, match):
    c = Circuit(elements, (("a", 1.0 + 0j),), frozenset({"loss"}))
    with pytest.raises(TopologyError, match=match):
        validate_circuit(c)


def test_built_bench_passes_validation_and_reports_cuts(bench):
    for preset in circuit.PRESETS:
        c = build_circuit(bench, preset)
        validate_circuit(c)
        assert list(c.detectors) == ["det0", "det1"]
        assert c.detectors["det0"] == circuit.DET0
        cuts = propagate_cuts(c)
        assert len(cuts) >= 10  # enough stages for the invariance criterion


def test_dephasing_knob_restricted_to_slow_arms(bench):
    with pytest.raises(TopologyError, match="dephas"):
        build_circuit(bench, "bit0", extra_phases={"link_1": 0.1})
