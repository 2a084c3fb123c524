"""Folded (mirror-retraced) bench against its unrolled expansion."""

import cmath
import dataclasses

import pytest

from cfcomm import circuit
from cfcomm.circuit import (FoldedDevice, PRESETS, build_circuit,
                            detection_probs, expand_folded, propagate)
from cfcomm.config import reference_device
from cfcomm.errors import TopologyError
from cfcomm.optics import Eom, PhotonState, apply_element

import oracles


@pytest.fixture(scope="module")
def bench():
    return reference_device()


@pytest.mark.parametrize("preset", PRESETS)
def test_expansion_matches_direct_build_exactly(bench, preset):
    """Same elements in the same order — not merely the same statistics."""
    direct = build_circuit(bench, preset)
    unrolled = expand_folded(FoldedDevice.from_config(bench, preset))
    assert unrolled.elements == direct.elements
    assert unrolled.sources == direct.sources
    assert unrolled.open_ports == direct.open_ports


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("include_eoms", [False, True])
def test_expansion_probabilities_agree(bench, preset, include_eoms):
    direct = detection_probs(build_circuit(bench, preset,
                                           include_eoms=include_eoms))
    folded = detection_probs(expand_folded(
        FoldedDevice.from_config(bench, preset), include_eoms=include_eoms))
    for det in direct:
        assert folded[det] == pytest.approx(direct[det], abs=1e-12)


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("order", [1, 2])
def test_twin_gives_identical_terminal_states(bench, preset, order):
    """The rebuilt twin is an equal circuit: whichever of the two propagates
    first, both read the same items, in order, as a fresh walk, and the
    same detection probabilities.  At order 2 the fresh walk is the
    reference one, of which the probabilities are a closed form."""
    direct = build_circuit(bench, preset)
    twin = expand_folded(FoldedDevice.from_config(bench, preset))
    assert twin == direct and twin is not direct
    if order == 1:
        state = PhotonState.from_sources(twin.sources)
        for e in twin.elements:
            state = apply_element(state, e)
        fresh = state.amps
    else:
        fresh = oracles.order2_terminal(twin)
        assert repr(list(oracles.order2_terminal(direct).items())) == repr(
            list(fresh.items()))
    probs = {d: oracles.detector_prob(fresh, d) for d in sorted(direct.detectors)}
    for c in (twin, direct):
        circuit._cuts.cache_clear()
        for d in (c, direct if c is twin else twin):
            got = detection_probs(d, max_order=order)
            assert got.keys() == probs.keys()
            for det, p in probs.items():
                assert got[det] == pytest.approx(p, rel=1e-13)
            if order == 1:
                assert got == probs
                assert repr(list(propagate(d).amps.items())) == repr(
                    list(fresh.items()))
        hits = 3 if order == 1 else 1  # every later read hits the first walk
        assert circuit._cuts.cache_info()[:2] == (hits, 1)


def test_from_config_sets_shutter_by_preset(bench):
    assert FoldedDevice.from_config(bench, "bit1").shutter_closed
    assert not FoldedDevice.from_config(bench, "bit0").shutter_closed
    assert not FoldedDevice.from_config(bench, "calibration").shutter_closed


def test_folded_phase_is_shared_between_passes(bench):
    dev = FoldedDevice.from_config(bench, "calibration")
    c = expand_folded(dev, include_eoms=False)
    phases = [e for e in c.elements if getattr(e, "name", "").startswith("inner_phase")]
    assert len(phases) == 2
    assert phases[0].m == phases[1].m == ((cmath.exp(1j * dev.inner_phase),),)


def test_unrolled_passes_carry_distinct_instances(bench):
    c = expand_folded(FoldedDevice.from_config(bench, "bit0"))
    link_eoms = [e for e in c.elements
                 if isinstance(e, Eom) and e.label == "F"]
    assert sorted(e.instance for e in link_eoms) == [1, 2]


def test_folded_device_rejects_duplicate_labels(bench):
    dev = FoldedDevice.from_config(bench, "bit0")
    twice = tuple(dataclasses.replace(e, label="X") for e in dev.eoms[:2]
                  ) + dev.eoms[2:]
    with pytest.raises(TopologyError, match="distinct"):
        dataclasses.replace(dev, eoms=twice)


def test_folded_device_requires_every_site(bench):
    dev = FoldedDevice.from_config(bench, "bit0")
    with pytest.raises(TopologyError, match="site"):
        dataclasses.replace(dev, eoms=dev.eoms[:4])
    doubled = dev.eoms[:4] + (
        dataclasses.replace(dev.eoms[4], site=dev.eoms[3].site, label="Z"),)
    with pytest.raises(TopologyError, match="site"):
        dataclasses.replace(dev, eoms=doubled)
