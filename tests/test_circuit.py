"""Bench assembly, tuning solve and detection probabilities."""

import dataclasses
import math
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from cfcomm import circuit
from cfcomm.circuit import (Circuit, FoldedDevice, Tuning, build_circuit,
                            calibration_tuning, detection_probs, expand_folded,
                            preset_tuning, propagate, propagate_cuts,
                            solve_tuning, validate_circuit)
from cfcomm.config import load_config, reference_device
from cfcomm.errors import ConfigError, TopologyError
from cfcomm.optics import (Attenuator, Beamsplitter, Block, Eom, Mirror, PhaseShift,
                           PhotonState, apply_element)

import oracles
from conftest import order_two_matches_the_walk, stripped


@pytest.fixture(scope="module")
def bench():
    return reference_device()


def with_r2(cfg, **r2):
    table = {"outer": 0.5, "inner_near": 0.5, "inner_far": 0.5}
    table.update(r2)
    return dataclasses.replace(cfg, beamsplitter_r2=tuple(sorted(table.items())))


# -- tuning solve ----------------------------------------------------------

def test_reference_tuning_is_exact(bench):
    assert solve_tuning(bench) == Tuning(0.25, 0.0, 0.0)


def test_calibration_tuning_flips_to_bright(bench):
    op = solve_tuning(bench)
    assert calibration_tuning(bench) == Tuning(op.attenuator_t, math.pi, math.pi)


def test_result_caches_stay_bounded_over_fresh_configs(bench):
    """A stream of distinct configs, and circuits, keeps at most
    RESULT_CACHE_SIZE each."""
    from cfcomm.protocol import sector_probs
    for seed in range(circuit.RESULT_CACHE_SIZE + 5):
        cfg = dataclasses.replace(bench, seed=seed, attenuator_t=0.2 + seed / 1e3)
        solve_tuning(cfg), calibration_tuning(cfg), sector_probs(cfg, "bit1")
        detection_probs(build_circuit(cfg, "bit1"), max_order=2)
    assert circuit.propagate_cuts.cache_info().misses >= circuit.RESULT_CACHE_SIZE + 5
    assert circuit.backward_cuts.cache_info().misses >= circuit.RESULT_CACHE_SIZE + 5
    for fn in (solve_tuning, calibration_tuning, sector_probs,
               circuit._built, circuit._stripped, circuit.propagate_cuts,
               circuit.backward_cuts):
        assert fn.cache_info().currsize <= circuit.RESULT_CACHE_SIZE


# -- shared circuits and forward walks ---------------------------------------

def uncached_terminal(c: Circuit) -> PhotonState:
    state = PhotonState.from_sources(c.sources)
    for e in c.elements:
        state = apply_element(state, e)
    return state


def items(state: PhotonState) -> str:
    return repr(list(state.amps.items()))


def try_to_change(state: PhotonState) -> None:
    """Every way of changing a handed-out state fails and leaves it as it was."""
    before = items(state)
    key = next(iter(state.amps))
    with pytest.raises(TypeError):
        state.amps[key] = 5.0 + 0j
    with pytest.raises(TypeError):
        state.amps[("stray", ())] = 1j
    with pytest.raises(TypeError):
        del state.amps[key]
    assert not hasattr(state.amps, "clear") and not hasattr(state.amps, "pop")
    with pytest.raises(dataclasses.FrozenInstanceError):
        state.amps = {("stray", ()): 1j}
    assert items(state) == before


def test_build_circuit_returns_one_shared_circuit(bench):
    c = build_circuit(bench, "bit1")
    assert build_circuit(bench, "bit1", include_eoms=True) is c
    bare = build_circuit(bench, "bit1", include_eoms=False)
    assert bare != c
    assert build_circuit(bench, "bit1", include_eoms=False) is bare


def test_propagate_hands_out_the_shared_read_only_state(bench):
    """The terminal state is the last shared cut: it cannot be changed, and
    the next result is the same state, equal to a fresh walk's."""
    c = build_circuit(bench, "bit0")
    first = propagate(c)
    want = items(first)
    try_to_change(first)
    assert propagate(c) is first and propagate_cuts(c)[-1] is first
    assert items(propagate(c)) == want
    assert items(uncached_terminal(c)) == want


def test_propagate_cuts_hands_out_one_read_only_walk(bench):
    """Every call returns the one cached tuple; no cut of it can be changed,
    and the walk, the terminal state and the order-2 closed form stay as
    they were."""
    c = build_circuit(bench, "bit1")
    first = propagate_cuts(c)
    want = [items(s) for s in first]
    p2 = detection_probs(c, max_order=2)
    assert isinstance(first, tuple)
    for s in first:
        try_to_change(s)
    assert propagate_cuts(c) is first
    assert [items(s) for s in propagate_cuts(c)] == want
    assert items(propagate(c)) == want[-1]
    assert detection_probs(c, max_order=2) == p2


@pytest.mark.parametrize("preset", circuit.PRESETS)
@pytest.mark.parametrize("include_eoms", [False, True])
def test_terminal_state_is_the_last_forward_cut(bench, preset, include_eoms):
    c = build_circuit(bench, preset, include_eoms=include_eoms)
    cuts = propagate_cuts(c)
    assert len(cuts) == len(c.elements) + 1
    assert items(propagate(c)) == items(cuts[-1]) == items(uncached_terminal(c))


def test_spellings_of_one_propagation_share_a_cache_entry(bench):
    """The terminal state, the cuts, both orders of the detection
    probabilities, the two-state vector and the weak trace read one forward
    walk, and they and the backward cuts one backward walk per detector: the
    circuit's entry repeats the states of its strip's, which holds the walk."""
    c = build_circuit(bench, "calibration")
    circuit.propagate_cuts.cache_clear()
    circuit.backward_cuts.cache_clear()
    propagate(c)
    propagate_cuts(c)
    detection_probs(c)
    detection_probs(c, 2)
    detection_probs(c, max_order=2)
    circuit.two_state_vector(c, "det0")
    circuit.weak_trace(c, "det0")
    circuit.backward_cuts(c, "det0")
    circuit.backward_cuts(c, "det1")
    info = circuit.propagate_cuts.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, 6, 1)
    info = circuit.backward_cuts.cache_info()
    assert (info.misses, info.hits, info.currsize) == (4, 6, 4)


@pytest.mark.parametrize("reader", ["backward_cuts", "two_state_vector",
                                    "weak_trace"])
def test_unknown_detector_is_refused_before_any_walk(bench, reader):
    c = build_circuit(bench, "bit0")
    circuit.propagate_cuts.cache_clear()
    circuit.backward_cuts.cache_clear()
    with pytest.raises(TopologyError, match="unknown detector 'det2'"):
        getattr(circuit, reader)(c, "det2")
    assert circuit.propagate_cuts.cache_info().misses == 0
    assert circuit.backward_cuts.cache_info().currsize == 0


def test_backward_cuts_hands_out_one_read_only_walk(bench):
    """Every call, and the two-state vector, returns the one cached tuple;
    no cut of it can be changed, and the backward cuts, two-state vector,
    weak trace and order-2 probabilities stay as they were.  So it is for
    the circuit with modulators and for its strip, which holds the walk."""
    for eoms in (True, False):
        c = build_circuit(bench, "bit1", include_eoms=eoms)
        first = circuit.backward_cuts(c, "det1")
        want = [items(s) for s in first]
        tsv = circuit.two_state_vector(c, "det1")
        trace = circuit.weak_trace(c, "det1")
        p2 = detection_probs(c, max_order=2)
        assert isinstance(first, tuple)
        for s in first:
            try_to_change(s)
        assert circuit.backward_cuts(c, "det1") is first and tsv.backward is first
        assert [items(s) for s in circuit.backward_cuts(c, "det1")] == want
        assert [items(s) for s in circuit.two_state_vector(c, "det1").backward] == want
        assert circuit.weak_trace(c, "det1") == trace
        assert detection_probs(c, max_order=2) == p2


def test_two_state_vector_hands_out_the_shared_walks(bench):
    """A two-state vector holds the shared walks: neither they nor their
    states can be changed, and the next vector, the walks and the weak trace
    stay as they were."""
    c = build_circuit(bench, "bit0")
    first = circuit.two_state_vector(c, "det0")
    want = [[items(s) for s in walk] for walk in (first.forward, first.backward)]
    trace = circuit.weak_trace(c, "det0")
    for s in first.forward + first.backward:
        try_to_change(s)
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.forward = ()
    again = circuit.two_state_vector(c, "det0")
    assert again.forward is first.forward and again.backward is first.backward
    assert [[items(s) for s in walk] for walk in (again.forward, again.backward)] == want
    assert propagate_cuts(c) is first.forward
    assert circuit.backward_cuts(c, "det0") is first.backward
    assert circuit.weak_trace(c, "det0") == trace


def test_consuming_indices_refuse_an_arm_never_consumed(bench):
    c = build_circuit(bench, "bit0")
    at = circuit._consuming_indices(c, [circuit.OPEN_1, circuit.SOURCE])
    assert list(at) == [circuit.OPEN_1, circuit.SOURCE] and at[circuit.SOURCE] == 0
    with pytest.raises(TopologyError, match="arm 'det0' is never consumed"):
        circuit._consuming_indices(c, [circuit.SOURCE, circuit.DET0])


def test_cache_keys_hash_once_and_as_their_fields(bench):
    """A bench and its circuits keep their hash, which equal copies share;
    a replaced field gives the hash of the new fields."""
    c = build_circuit(bench, "bit1")
    for key in (bench, c):
        copy = dataclasses.replace(key)
        assert copy is not key and copy == key and hash(copy) == hash(key)
        fields = tuple(getattr(key, f.name) for f in dataclasses.fields(key))
        assert hash(key) == hash(fields) and key.__dict__["_hash"] == hash(fields)
    other = dataclasses.replace(bench, seed=bench.seed + 1)
    assert hash(other) == hash(tuple(getattr(other, f.name)
                                     for f in dataclasses.fields(other)))


@pytest.mark.parametrize("first", [1, 2])
def test_both_orders_read_one_forward_walk(bench, first):
    """Whichever order is asked first, both read the one first-order walk
    and equal the order-2 reference walk: order 1 bit for bit on the tags
    with fewer than two kicks, order 2 within rounding."""
    c = build_circuit(bench, "bit1")
    circuit.propagate_cuts.cache_clear()
    got = {order: detection_probs(c, max_order=order)
           for order in (first, 3 - first)}
    assert circuit.propagate_cuts.cache_info().misses == 1
    walk = oracles.order2_terminal(c)
    assert len(walk) > len(propagate(c).amps)
    for d in c.detectors:
        assert got[1][d] == oracles.detector_prob(walk, d, (0, 1))
        assert got[2][d] == pytest.approx(oracles.detector_prob(walk, d),
                                          rel=1e-13)
        assert got[2][d] > got[1][d]


ASYMMETRIC_BENCH = Path(__file__).with_name("data") / "asymmetric-bench.json"


@pytest.mark.parametrize("preset", circuit.PRESETS)
@pytest.mark.parametrize("which", ["reference", "fitted", "asymmetric"])
def test_order_two_closed_form_matches_the_walk(preset, which):
    cfg = (load_config(ASYMMETRIC_BENCH) if which == "asymmetric"
           else reference_device(fitted=which == "fitted"))
    order_two_matches_the_walk(build_circuit(cfg, preset))


@pytest.mark.parametrize("order", [0, 3, -1, 1.5, "2"])
def test_detection_probs_refuses_other_orders(bench, order):
    with pytest.raises(ConfigError, match="order must be 1 or 2"):
        detection_probs(build_circuit(bench, "bit0"), max_order=order)


def test_tuning_matches_closed_form_at_uneven_split(bench):
    cfg = with_r2(bench, outer=0.6, inner_near=0.6, inner_far=0.6)
    tun = solve_tuning(cfg)
    want = oracles.balance_attenuator_t(0.6, 0.6, 0.6, 0.6, 0.6, 0.6)
    assert want == pytest.approx(0.24)
    assert tun.attenuator_t == pytest.approx(want, abs=1e-12)


def unrolled(cfg, preset, **knobs):
    """The modulator-free bench of a preset, with some knobs of its folded
    device reset."""
    dev = dataclasses.replace(FoldedDevice.from_config(cfg, preset), **knobs)
    return stripped(expand_folded(dev))


def carrier_before_consumed(c, arm):
    """Carrier probability on an arm at the cut where it is consumed."""
    k = circuit._consuming_indices(c, [arm])[arm]
    return propagate_cuts(c)[k].carrier_prob(arm)


ASYMMETRIC_R2 = st.floats(0.05, 0.95)


def balanceable(bench, r2o, r2n, r2f):
    """The bench at these reflectances; skips those that cannot be balanced."""
    want = oracles.balance_attenuator_t(r2o, r2n, r2f, r2f, r2n, r2o)
    assume(0.0 < want <= 1.0)  # otherwise legitimately unbalanceable
    return with_r2(bench, outer=r2o, inner_near=r2n, inner_far=r2f), want


@given(r2o=ASYMMETRIC_R2, r2n=ASYMMETRIC_R2, r2f=ASYMMETRIC_R2)
@settings(max_examples=30, deadline=None)
def test_tuning_solve_tracks_closed_form(bench, r2o, r2n, r2f):
    cfg, want = balanceable(bench, r2o, r2n, r2f)
    tun = solve_tuning(cfg)
    assert tun.attenuator_t == pytest.approx(want, abs=1e-10)
    probs = detection_probs(build_circuit(cfg, "bit1", include_eoms=False))
    assert probs["det0"] <= 1e-20


@given(r2o=ASYMMETRIC_R2, r2n=ASYMMETRIC_R2, r2f=ASYMMETRIC_R2)
@settings(max_examples=30, deadline=None)
def test_inner_phase_sits_on_the_dark_fringe(bench, r2o, r2n, r2f):
    """Off phase 0, more light leaves each inner pass by its merged port:
    the link after the first pass, the exit after the second."""
    cfg, _ = balanceable(bench, r2o, r2n, r2f)
    tun = solve_tuning(cfg)
    dark = unrolled(cfg, "bit0")
    for eps in (-0.1, 0.1):
        off = unrolled(cfg, "bit0", inner_phase=tun.inner_phase + eps)
        for arm in (circuit.LINK_1, circuit.EXIT):
            assert carrier_before_consumed(off, arm) > carrier_before_consumed(dark, arm)


@given(r2o=ASYMMETRIC_R2, r2n=ASYMMETRIC_R2, r2f=ASYMMETRIC_R2,
       t=st.floats(0.05, 1.0))
@settings(max_examples=30, deadline=None)
def test_reference_phase_darkens_det0_at_any_fixed_attenuation(bench, r2o, r2n,
                                                               r2f, t):
    cfg = dataclasses.replace(
        with_r2(bench, outer=r2o, inner_near=r2n, inner_far=r2f), attenuator_t=t)
    tun = solve_tuning(cfg)
    assert tun == Tuning(t, 0.0, 0.0)
    dark = detection_probs(unrolled(cfg, "bit1"))["det0"]
    for eps in (-0.1, 0.1):
        off = unrolled(cfg, "bit1", reference_phase=tun.reference_phase + eps)
        assert detection_probs(off)["det0"] > dark


@given(r2o=ASYMMETRIC_R2, r2n=ASYMMETRIC_R2, r2f=ASYMMETRIC_R2)
@settings(max_examples=30, deadline=None)
def test_calibration_phases_maximize_det0(bench, r2o, r2n, r2f):
    cfg, _ = balanceable(bench, r2o, r2n, r2f)
    bright = detection_probs(unrolled(cfg, "calibration"))["det0"]
    for knob in ("inner_phase", "reference_phase"):
        for eps in (-0.1, 0.1):
            off = unrolled(cfg, "calibration", **{knob: math.pi + eps})
            assert detection_probs(off)["det0"] < bright


def test_unbalanceable_bench_is_rejected(bench):
    # nearly-transparent outer taps against highly reflective inner loops:
    # the reference arm is far too weak to cancel the leak
    cfg = with_r2(bench, outer=0.02, inner_near=0.9, inner_far=0.9)
    with pytest.raises(ConfigError, match="no balancing attenuation"):
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
        worse = unrolled(cfg, "bit1", reference_phase=tun.reference_phase + eps)
        assert detection_probs(worse)["det0"] > probs["det0"]


def test_fixed_attenuator_at_the_balance_point_is_the_auto_tuning(bench):
    fixed = dataclasses.replace(bench, attenuator_t=0.25)
    assert solve_tuning(fixed) == solve_tuning(bench)


@pytest.mark.parametrize("t", [0.1, 0.5, 1.0])
def test_fixed_attenuator_leaks_its_imbalance_into_det0(bench, t):
    """The reference arm reaches det0 with amplitude t/2 against the 1/8 it
    must cancel, so the shuttered bench leaks (t - 1/4)^2 / 4."""
    cfg = dataclasses.replace(bench, attenuator_t=t)
    assert solve_tuning(cfg).attenuator_t == t
    probs = detection_probs(build_circuit(cfg, "bit1", include_eoms=False))
    assert probs["det0"] == pytest.approx((t - 0.25) ** 2 / 4, rel=0, abs=1e-15)


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
    bad = unrolled(bench, "bit0", inner_phase=tun.inner_phase + 0.3)
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
    # det0 of the shuttered bench holds no component at all: a float zero
    dark = detection_probs(build_circuit(bench, "bit1", include_eoms=False))
    assert type(dark["det0"]) is float and dark["det0"] == 0.0


# -- wiring validation -------------------------------------------------------

def test_validate_accepts_vacuum_splitter_input():
    c = Circuit((Beamsplitter(0.5, "a", "vac", "c", "d"),),
                (("a", 1.0 + 0j),), frozenset(), ("c", "d"))
    validate_circuit(c)  # does not raise


def test_validate_rejects_dangling_arm():
    c = Circuit((Beamsplitter(0.5, "a", "vac", "c", "d"),),
                (("a", 1.0 + 0j),), frozenset(), ("c",))
    with pytest.raises(TopologyError, match="dangling"):
        validate_circuit(c)


def test_validate_rejects_use_after_consumption():
    c = Circuit((Mirror("a", "b"), PhaseShift("a", 0.1)),
                (("a", 1.0 + 0j),), frozenset(), ("b",))
    with pytest.raises(TopologyError, match="consumed"):
        validate_circuit(c)


def test_validate_rejects_element_on_virgin_arm():
    c = Circuit((PhaseShift("b", 0.1),), (("a", 1.0 + 0j),), frozenset(), ("a",))
    with pytest.raises(TopologyError, match="virgin"):
        validate_circuit(c)


@pytest.mark.parametrize("detectors,match", [
    (("c", "d", "x"), "detector on virgin arm 'x'"),
    (("a", "c", "d"), "detector on consumed arm 'a'"),
], ids=["virgin", "consumed"])
def test_validate_rejects_detector_on_dead_arm(detectors, match):
    c = Circuit((Beamsplitter(0.5, "a", "vac", "c", "d"),),
                (("a", 1.0 + 0j),), frozenset(), detectors)
    with pytest.raises(TopologyError, match=match):
        validate_circuit(c)


def test_validate_rejects_write_into_used_arm():
    c = Circuit((Beamsplitter(0.5, "a", "vac", "c", "a2"), Mirror("c", "a2")),
                (("a", 1.0 + 0j),), frozenset(), ("a2",))
    with pytest.raises(TopologyError, match="already-used"):
        validate_circuit(c)


@pytest.mark.parametrize("elements,detectors,match", [
    ((Beamsplitter(0.5, "a", "a", "c", "d"),), ("c", "d"), "^splitter ports must differ"),
    ((Beamsplitter(0.5, "a", "vac", "c", "c"),), ("c",), "^splitter ports must differ"),
    ((Mirror("a", "b"), Beamsplitter(0.5, "a", "vac", "c", "d")),
     ("b", "c", "d"), "^splitter acts on consumed"),
    ((Block("x", "loss"),), ("a",), "^shutter acts on virgin"),
    ((Beamsplitter(0.5, "a", "vac", "c", "d"), Attenuator("c", 0.5, "d")),
     ("c", "d"), "^attenuator writes into already-used"),
    ((Mirror("x", "b"),), ("a", "b"), "^mirror acts on virgin"),
    ((Eom("x", "A", 0.1),), ("a",), "^modulator A acts on virgin"),
], ids=["splitter-equal-ins", "splitter-equal-outs", "splitter-reuses-consumed",
        "shutter-on-virgin", "loss-port-into-used", "mirror-from-virgin",
        "modulator-on-virgin"])
def test_validate_rejects_miswired_elements(elements, detectors, match):
    c = Circuit(elements, (("a", 1.0 + 0j),), frozenset({"loss"}), detectors)
    with pytest.raises(TopologyError, match=match):
        validate_circuit(c)


def test_built_bench_passes_validation_and_reports_cuts(bench):
    for preset in circuit.PRESETS:
        c = build_circuit(bench, preset)
        validate_circuit(c)
        assert c.detectors == (circuit.DET0, circuit.DET1) == ("det0", "det1")
        cuts = propagate_cuts(c)
        assert len(cuts) >= 10  # enough stages for the invariance criterion
