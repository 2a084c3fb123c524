"""Folded (mirror-retraced) bench against the hand-unrolled listing."""

import cmath
import dataclasses
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from cfcomm import circuit
from cfcomm.circuit import (FoldedDevice, PRESETS, build_circuit,
                            detection_probs, expand_folded, propagate,
                            validate_circuit)
from cfcomm.config import load_config, reference_device
from cfcomm.errors import TopologyError
from cfcomm.optics import Eom, PhotonState, apply_adjoint, apply_element

import oracles
from conftest import as_listing, listing_walk_gap, oracle_listing, stripped

#: the packaged 50/50 bench, and one whose splitters all differ: only there
#: does a pass that meets its splitters in swapped order show
BENCHES = (reference_device(),
           load_config(Path(__file__).with_name("data") / "asymmetric-bench.json"))
OPEN_PORTS = frozenset({"dump_inner", "dump_exit", "loss_attenuator",
                        "loss_shutter_1", "loss_shutter_2"})


@pytest.fixture(scope="module")
def bench():
    return reference_device()


@pytest.mark.parametrize("preset", PRESETS)
def test_expansion_matches_direct_build_exactly(preset):
    """Same elements in the same order as the listing of ``oracles`` — not
    merely the same statistics — whether built from the config or unrolled
    from the folded device."""
    for cfg in BENCHES:
        want = oracle_listing(cfg, preset)
        for c in (build_circuit(cfg, preset),
                  expand_folded(FoldedDevice.from_config(cfg, preset))):
            assert as_listing(c) == want
            assert c.sources == (("source", 1.0 + 0j),)
            assert c.open_ports == OPEN_PORTS
            assert c.detectors == ("det0", "det1")


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("include_eoms", [False, True])
def test_expansion_probabilities_agree(preset, include_eoms):
    """The unrolled bench's detection probabilities against the oracle walk
    of the listing."""
    for cfg in BENCHES:
        c = expand_folded(FoldedDevice.from_config(cfg, preset))
        c = c if include_eoms else stripped(c)
        assert listing_walk_gap(c, oracle_listing(cfg, preset, include_eoms)) <= 1e-12


R2 = st.floats(0.05, 0.95)


@given(r2=st.tuples(R2, R2, R2), alphas=st.lists(st.floats(0.0, 0.5), min_size=5,
                                                 max_size=5),
       t=st.one_of(st.just("auto"), st.floats(0.05, 1.0)))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_drawn_benches_match_the_listing(bench, r2, alphas, t):
    """Every preset of a drawn bench, with and without modulators, equals
    the listing element for element."""
    r2o, r2n, r2f = r2
    if t == "auto":  # skip benches that cannot be balanced
        assume(0.0 < oracles.balance_attenuator_t(r2o, r2n, r2f, r2f, r2n, r2o) <= 1.0)
    cfg = dataclasses.replace(
        bench, beamsplitter_r2=(("inner_far", r2f), ("inner_near", r2n), ("outer", r2o)),
        attenuator_t=t,
        eoms=tuple(dataclasses.replace(e, alpha=a) for e, a in zip(bench.eoms, alphas)))
    for preset in PRESETS:
        for include_eoms in (False, True):
            c = build_circuit(cfg, preset, include_eoms=include_eoms)
            assert as_listing(c) == oracle_listing(cfg, preset, include_eoms)


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
        circuit.propagate_cuts.cache_clear()
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
        assert circuit.propagate_cuts.cache_info()[:2] == (hits, 1)


def test_from_config_sets_shutter_by_preset(bench):
    assert FoldedDevice.from_config(bench, "bit1").shutter_closed
    assert not FoldedDevice.from_config(bench, "bit0").shutter_closed
    assert not FoldedDevice.from_config(bench, "calibration").shutter_closed


def test_folded_phase_is_shared_between_passes(bench):
    dev = FoldedDevice.from_config(bench, "calibration")
    c = stripped(expand_folded(dev))
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


# -- one unrolling per preset; its strip is the modulator-free circuit -------

@pytest.mark.parametrize("preset", PRESETS)
def test_modulator_free_circuit_is_the_strip_of_the_unrolling(preset):
    """The strip is valid, holds no modulator, keeps the unrolling's other
    elements in order, and is made once."""
    for cfg in BENCHES:
        c = build_circuit(cfg, preset)
        strip = build_circuit(cfg, preset, include_eoms=False)
        validate_circuit(strip)
        assert not any(isinstance(e, Eom) for e in strip.elements)
        assert strip == stripped(c) and strip != c
        assert list(strip.elements) == [e for e in c.elements
                                        if not isinstance(e, Eom)]
        assert build_circuit(cfg, preset, include_eoms=False) is strip


@pytest.mark.parametrize("preset", PRESETS)
def test_both_circuits_of_a_preset_share_one_backward_walk(preset):
    """Each cut of the modulator circuit's backward walk is the matching cut
    of its strip's: the same state, repeated across each modulator."""
    for cfg in BENCHES:
        c = build_circuit(cfg, preset)
        strip = build_circuit(cfg, preset, include_eoms=False)
        for d in c.detectors:
            bwd, plain = circuit.backward_cuts(c, d), circuit.backward_cuts(strip, d)
            assert len(bwd) == len(c.elements) + 1
            j = len(plain) - 1
            assert bwd[-1] is plain[j]
            for k in reversed(range(len(c.elements))):
                j -= not isinstance(c.elements[k], Eom)
                assert bwd[k] is plain[j]
            assert j == 0


def test_a_preset_walks_backward_once_per_detector(bench, monkeypatch):
    """Only the strip's elements are stepped backward, once per detector,
    whichever of the two circuits is asked first."""
    steps = []
    monkeypatch.setattr(circuit, "apply_adjoint",
                        lambda s, e: steps.append(e) or apply_adjoint(s, e))
    circuit.backward_cuts.cache_clear()
    c = build_circuit(bench, "bit1")
    strip = build_circuit(bench, "bit1", include_eoms=False)
    circuit.backward_cuts(c, "det0")
    circuit.backward_cuts(strip, "det0")
    circuit.backward_cuts(strip, "det1")
    circuit.backward_cuts(c, "det1")
    assert steps == 2 * list(reversed(strip.elements))
