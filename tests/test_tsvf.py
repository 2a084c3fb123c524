"""Two-state-vector bookkeeping: overlaps, weak traces, strengths."""

import math
from pathlib import Path

import pytest

from cfcomm import circuit
from cfcomm.circuit import (backward_cuts, build_circuit, detection_probs,
                            overlap, propagate_cuts, sideband_strengths,
                            two_state_vector, weak_trace)
from cfcomm.config import load_config, reference_device
from cfcomm.errors import UndefinedPostselectionError
from cfcomm.optics import CARRIER

import oracles
from conftest import weak_values_match_the_walk

# the oracle's closed-form tables key arms by their bench shorthand
ARM_KEY = {
    "C": circuit.REFERENCE, "IN": circuit.ENTRY,
    "A1": circuit.SHUTTER_1, "A2": circuit.SHUTTER_2,
    "B1": circuit.OPEN_1, "B2": circuit.OPEN_2,
    "M1": circuit.LINK_1, "M2": circuit.LINK_2,
    "OUT": circuit.EXIT,
}

CASES = [("bit0", "det0", oracles.trace_table_bit0_d0()),
         ("bit1", "det1", oracles.trace_table_bit1_d1()),
         ("calibration", "det0", oracles.trace_table_calibration_d0())]


@pytest.fixture(scope="module")
def bench():
    return reference_device()


@pytest.mark.parametrize("preset,detector", [(p, d) for p, d, _ in CASES])
@pytest.mark.parametrize("include_eoms", [False, True])
def test_overlap_is_cut_invariant(bench, preset, detector, include_eoms):
    c = build_circuit(bench, preset, include_eoms=include_eoms)
    tsv = two_state_vector(c, detector)
    vals = [overlap(f, b) for f, b in zip(tsv.forward, tsv.backward)]
    assert len(vals) >= 10
    for v in vals:
        assert v == pytest.approx(vals[0], abs=1e-12)
    assert vals[-1] == pytest.approx(tsv.postselection, abs=1e-14)


@pytest.mark.parametrize("preset,detector,table", CASES)
def test_trace_tables_match_closed_form(bench, preset, detector, table):
    c = build_circuit(bench, preset, include_eoms=False)
    report = weak_trace(c, detector)
    for key, want in table.items():
        assert report.values[ARM_KEY[key]] == pytest.approx(want, abs=1e-12), key


@pytest.mark.parametrize("preset,detector,table", CASES)
def test_sideband_strengths_match_closed_form(bench, preset, detector, table):
    c = build_circuit(bench, preset, include_eoms=False)
    strengths = sideband_strengths(weak_trace(c, detector), bench)
    want = oracles.sideband_strengths(table)
    assert set(strengths) == set(want)
    for label in want:
        assert strengths[label] == pytest.approx(want[label], abs=1e-12), label


def test_postselection_equals_detector_amplitude(bench):
    for preset, detector, _ in CASES:
        c = build_circuit(bench, preset, include_eoms=False)
        tsv = two_state_vector(c, detector)
        assert abs(tsv.postselection) ** 2 == pytest.approx(
            detection_probs(c)[detector], abs=1e-14)


def test_dark_detector_has_no_postselected_state(bench):
    c = build_circuit(bench, "bit0", include_eoms=False)
    with pytest.raises(UndefinedPostselectionError):
        two_state_vector(c, "det1")
    c = build_circuit(bench, "bit1", include_eoms=False)
    with pytest.raises(UndefinedPostselectionError):
        two_state_vector(c, "det0")


def test_zero_trace_is_a_zero_product_not_zero_fields(bench):
    """The vanishing traces come from one-sided zeros: light reaches the
    blockable arms forward (bit0) or backward (bit1), never both."""
    c = build_circuit(bench, "bit0", include_eoms=False)
    tsv = two_state_vector(c, "det0")
    k1, k2 = circuit._consuming_indices(c, [circuit.SHUTTER_1, circuit.SHUTTER_2]).values()
    # first pass: forward light present, backward empty
    assert abs(tsv.forward[k1].amp(circuit.SHUTTER_1, CARRIER)) == pytest.approx(0.5)
    assert tsv.backward[k1].amp(circuit.SHUTTER_1, CARRIER) == 0j
    # second pass: backward light present, forward empty
    assert tsv.forward[k2].amp(circuit.SHUTTER_2, CARRIER) == 0j
    assert abs(tsv.backward[k2].amp(circuit.SHUTTER_2, CARRIER)) == pytest.approx(0.5)

    c = build_circuit(bench, "bit1", include_eoms=False)
    tsv = two_state_vector(c, "det1")
    (k1,) = circuit._consuming_indices(c, [circuit.SHUTTER_1]).values()
    assert tsv.forward[k1].amp(circuit.SHUTTER_1, CARRIER) == 0j  # shuttered
    assert abs(tsv.backward[k1].amp(circuit.SHUTTER_1, CARRIER)) == pytest.approx(
        1.0 / (2.0 * math.sqrt(2.0)))


def test_backward_state_starts_as_unit_click(bench):
    c = build_circuit(bench, "bit1", include_eoms=False)
    cuts = backward_cuts(c, "det1")
    assert cuts[-1].amp("det1", CARRIER) == 1.0 + 0j
    assert len(cuts) == len(propagate_cuts(c))


@pytest.mark.parametrize("preset", circuit.PRESETS)
def test_weak_value_identity_per_sideband_component(preset):
    """Each walked sideband component at each detector is its passes' sum
    of ``alpha F conj(B)`` over the oracle's two walks, on the packaged
    benches and on one whose splitters all differ."""
    for cfg in (reference_device(), reference_device(fitted=True),
                load_config(Path(__file__).with_name("data") / "asymmetric-bench.json")):
        weak_values_match_the_walk(build_circuit(cfg, preset))
