"""Element-level checks: splitter algebra, modulator sidebands, adjoints."""

import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from cfcomm.errors import ConfigError
from cfcomm.optics import (CARRIER, ALPHA_MAX, Attenuator, Beamsplitter, Block,
                           Eom, Linear, Mirror, PhaseShift, PhotonState,
                           apply_adjoint, apply_element, detuning_ghz)

import oracles

def two_mode(a1, a2):
    return PhotonState.from_sources([("a", a1), ("b", a2)])


def inner(x: PhotonState, y: PhotonState) -> complex:
    keys = set(x.amps) | set(y.amps)
    return sum(x.amps.get(k, 0j).conjugate() * y.amps.get(k, 0j) for k in keys)


amps_st = st.complex_numbers(min_magnitude=0.0, max_magnitude=1.0,
                             allow_nan=False, allow_infinity=False)


# -- sideband tags ---------------------------------------------------------

B1 = (("B", +1, 1),)  # one upper B sideband from modulator pass 1


def test_tag_detuning_sums_signed_shifts():
    tag = (("B", +1, 1), ("F", -1, 2))
    assert len(tag) == 2
    assert detuning_ghz(tag, {"B": 1.0, "F": 3.4}) == pytest.approx(1.0 - 3.4)
    assert detuning_ghz(CARRIER, {}) == 0.0


def test_tag_instances_are_distinct_components():
    one = (("B", +1, 1),)
    two = (("B", +1, 2),)
    assert one != two
    labels = [tuple(lab for lab, _, _ in tag) for tag in (one, two)]
    assert labels[0] == labels[1] == ("B",)


def test_tag_prob_sums_instances_incoherently():
    """The reference intensity per label, which the modulator tests read."""
    state = PhotonState({("a", (("B", +1, 1),)): 0.3 + 0j,
                         ("a", (("B", +1, 2),)): -0.3 + 0j})
    assert oracles.tag_prob(state.amps, "a", "B") == pytest.approx(0.18)
    assert state.carrier_prob("a") == 0.0
    # an arm without components reads a float zero, not the int 0
    for p in (PhotonState().norm(), state.mode_prob("b"),
              oracles.tag_prob(state.amps, "b", "B")):
        assert type(p) is float and p == 0.0


# -- beamsplitter ----------------------------------------------------------

def test_splitter_convention_i_on_reflection():
    bs = Beamsplitter(0.5, "a", "b", "c", "d")
    out = apply_element(two_mode(1.0, 0.0), bs)
    s2 = 1 / math.sqrt(2)
    assert out.amp("c") == pytest.approx(s2)
    assert out.amp("d") == pytest.approx(1j * s2)


@given(r2=st.floats(0.01, 0.99), a1=amps_st, a2=amps_st)
def test_splitter_preserves_norm(r2, a1, a2):
    bs = Beamsplitter(r2, "a", "b", "c", "d")
    state = two_mode(a1, a2)
    out = apply_element(state, bs)
    assert out.norm() == pytest.approx(state.norm(), abs=1e-12)


@given(r2=st.floats(0.01, 0.99), a1=amps_st, a2=amps_st)
def test_splitter_adjoint_inverts(r2, a1, a2):
    bs = Beamsplitter(r2, "a", "b", "c", "d")
    state = two_mode(a1, a2)
    back = apply_adjoint(apply_element(state, bs), bs)
    assert back.amp("a") == pytest.approx(a1, abs=1e-12)
    assert back.amp("b") == pytest.approx(a2, abs=1e-12)


def test_splitter_must_be_unitary():
    with pytest.raises(ConfigError):
        Beamsplitter(0.0, "a", "b", "c", "d")
    with pytest.raises(ConfigError):
        Beamsplitter(1.0, "a", "b", "c", "d")


def test_splitter_emits_tags_in_label_sign_instance_order():
    """Two feeding arms: tags are visited in sorted order, not insertion order."""
    want = [CARRIER, (("A", -1, 1),), (("A", +1, 1),),
            (("A", +1, 1), ("B", -1, 1)), (("A", +1, 2),), (("B", -1, 1),),
            (("B", +1, 1),), (("B", +1, 2),), (("B", +1, 3),)]
    scrambled = [want[i] for i in (8, 1, 4, 6, 0, 7, 5, 3, 2)]
    bs = Beamsplitter(0.4, "a", "b", "c", "d")
    state = PhotonState({("ab"[i % 2], tag): 0.1 * (i + 1) + 0j
                         for i, tag in enumerate(scrambled)})
    out = apply_element(state, bs)
    assert [tag for tag, _ in out.components("c")] == want
    assert [tag for tag, _ in out.components("d")] == want
    state = PhotonState({("cd"[i % 2], tag): 0.1 * (i + 1) + 0j
                         for i, tag in enumerate(scrambled)})
    back = apply_adjoint(state, bs)
    assert [tag for tag, _ in back.components("a")] == want


# -- adjoint pairing -------------------------------------------------------

@pytest.mark.parametrize("element", [
    Beamsplitter(0.37, "a", "b", "c", "d"),
    # non-symmetric 2x2: the adjoint must transpose as well as conjugate
    Linear(("a", "b"), ("c", "d"), ((0.8, 0.6j * cmath.exp(1.1j)),
                                    (0.6j * cmath.exp(-1.1j), 0.8))),
    PhaseShift("a", 0.9),
    Mirror("a", "c"),
    Attenuator("a", 0.55, "loss"),
    Block("a", "loss"),
])
@given(a1=amps_st, a2=amps_st, b1=amps_st, b2=amps_st)
@settings(max_examples=25)
def test_adjoint_pairing(element, a1, a2, b1, b2):
    """<U x, y> == <x, U' y> for the reversible elements."""
    x = two_mode(a1, a2)
    # y on the element's out-ports, padded with an arm it leaves alone
    y = PhotonState.from_sources(zip((*element.outs, "d")[:2], (b1, b2)))
    lhs = inner(apply_element(x, element), y)
    rhs = inner(x, apply_adjoint(y, element))
    assert lhs == pytest.approx(rhs, abs=1e-12)


# -- the unrolled step against the generic loop ----------------------------

STEP_ELEMENTS = [
    Beamsplitter(0.37, "a", "b", "c", "d"),
    Linear(("a", "b"), ("c", "d"), ((0.8, 0.6j * cmath.exp(1.1j)),
                                    (0.6j * cmath.exp(-1.1j), 0.8))),
    # signed zeros in the matrix
    Linear(("a", "b"), ("c", "d"), ((1.0, -0.0), (0.0, -1.0))),
    # two in-ports, one of them updated in place
    Linear(("a", "b"), ("a", "c"), ((0.6, -0.8), (0.8, 0.6))),
    # equal in-port amplitudes cancel exactly
    Linear(("a", "b"), ("c",), ((1.0, -1.0),)),
    # a row of zeros: that output is never stored
    Linear(("a",), ("c", "d"), ((0.0,), (1.0,))),
    PhaseShift("a", 0.9),
    PhaseShift("a", math.pi),
    Mirror("a", "c"),
    Attenuator("a", 0.55, "loss"),
    Block("a", "loss"),
]

STEP_ARMS = ["a", "b", "c", "d", "loss", "x"]
STEP_TAGS = [CARRIER, B1, (("B", -1, 1),), (("A", +1, 2),),
             (("A", +1, 1), ("B", -1, 2))]
#: exact values, signed zeros and cancelling pairs
STEP_SPECIALS = [0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.5),
                 1 + 0j, -1 + 0j, 0.5j, 0.25 - 0.25j, complex(0.5, -0.0)]
#: every arm and tag, the special values in turn: signed zeros reach the
#: in-place ports, where only ``0 + x0*a0 + ...`` turns -0.0 into 0.0
STEP_EVERY_KEY = [(arm, tag, STEP_SPECIALS[i % len(STEP_SPECIALS)])
                  for i, (arm, tag) in enumerate(
                      (arm, tag) for arm in STEP_ARMS for tag in STEP_TAGS)]

#: an output arm already holding -0.0 keeps it unless the sum starts at 0
STEP_ONTO_SIGNED_ZERO = [("a", CARRIER, complex(-0.0, 0.5)),
                         ("c", CARRIER, complex(-0.0, -0.0))]
STEP_BACK_ONTO_SIGNED_ZERO = [("c", CARRIER, complex(-0.0, 0.5)),
                              ("a", CARRIER, complex(-0.0, -0.0))]
#: tags out of sorted order, written to an arm that holds none of them yet
STEP_TAGS_UNSORTED = [(arm, tag, 0.5 + 0j) for arm in ("a", "c")
                      for tag in (B1, CARRIER)]

step_entries = st.lists(st.tuples(
    st.sampled_from(STEP_ARMS), st.sampled_from(STEP_TAGS),
    st.one_of(st.sampled_from(STEP_SPECIALS), amps_st)), max_size=14)


@pytest.mark.parametrize("element", STEP_ELEMENTS)
@pytest.mark.parametrize("adjoint", [False, True], ids=["forward", "adjoint"])
@given(entries=step_entries)
@example(entries=STEP_EVERY_KEY)
@example(entries=STEP_ONTO_SIGNED_ZERO)
@example(entries=STEP_BACK_ONTO_SIGNED_ZERO)
@example(entries=STEP_TAGS_UNSORTED)
@settings(max_examples=20)
def test_step_equals_the_generic_loop(element, adjoint, entries):
    """Same items, same order, same reprs (signed zeros included) as the
    plain loop over ports, forward and adjoint."""
    state = PhotonState(dict(((arm, tag), a) for arm, tag, a in entries))
    before = repr(list(state.amps.items()))
    step = apply_adjoint if adjoint else apply_element
    got = step(state, element).amps
    want = oracles.transfer(state.amps, element.ins, element.outs, element.m,
                            adjoint)
    assert repr(list(got.items())) == repr(list(want.items()))
    assert repr(list(state.amps.items())) == before


def test_states_are_read_only_values():
    """A state shows its dict read-only and cannot be rebound; so does every
    step's result, forward and adjoint, and the step's input stays as it
    was."""
    state = PhotonState({("a", CARRIER): 0.6 + 0j, ("b", B1): 0.8j})
    before = repr(list(state.amps.items()))
    outs = [step(state, e) for step in (apply_element, apply_adjoint)
            for e in (*STEP_ELEMENTS, Eom("a", "B", 0.1))]
    for s in (PhotonState(), PhotonState.from_sources([("a", 1.0)]), state, *outs):
        with pytest.raises(TypeError):
            s.amps[("a", CARRIER)] = 1j
        with pytest.raises(dataclasses.FrozenInstanceError):
            s.amps = {}
    assert repr(list(state.amps.items())) == before


# -- phase shift, attenuator, block, mirror --------------------------------

def test_phase_shift_rotates_every_tag():
    state = PhotonState({**two_mode(0.5, 0.0).amps, ("a", B1): 0.1 + 0j})
    out = apply_element(state, PhaseShift("a", math.pi / 2))
    assert out.amp("a") == pytest.approx(0.5j)
    assert out.amp("a", B1) == pytest.approx(0.1j)


@given(t=st.floats(0.0, 1.0), a=amps_st)
def test_attenuator_routes_deficit_to_loss(t, a):
    out = apply_element(two_mode(a, 0.0), Attenuator("a", t, "loss"))
    assert out.amp("a") == pytest.approx(t * a, abs=1e-12)
    assert out.mode_prob("a") + out.mode_prob("loss") == pytest.approx(
        abs(a) ** 2, abs=1e-12)


def test_attenuator_range_checked():
    with pytest.raises(ConfigError):
        Attenuator("a", 1.5, "loss")
    with pytest.raises(ConfigError):
        Attenuator("a", -0.1, "loss")


def test_block_moves_all_power_to_loss():
    state = PhotonState({**two_mode(0.6, 0.8).amps, ("a", (("A", +1, 1),)): 0.11 + 0j})
    out = apply_element(state, Block("a", "loss"))
    assert out.mode_prob("a") == 0.0
    assert out.mode_prob("loss") == pytest.approx(0.36 + 0.11 ** 2)
    assert out.mode_prob("b") == pytest.approx(0.64)


def test_mirror_relabels_amplitudes():
    out = apply_element(two_mode(0.6j, 0.0), Mirror("a", "c"))
    assert out.amp("a") == 0j
    assert out.amp("c") == pytest.approx(0.6j)


# -- modulator -------------------------------------------------------------

def test_modulator_first_order_sidebands():
    out = apply_element(two_mode(0.5, 0.0), Eom("a", "B", 0.146))
    assert out.amp("a") == pytest.approx(0.5)  # carrier undepleted
    up = out.amp("a", B1)
    dn = out.amp("a", (("B", -1, 1),))
    assert up == pytest.approx(0.146 * 0.5)
    assert dn == pytest.approx(0.146 * 0.5)


@given(alpha=st.floats(0.0, ALPHA_MAX), a=amps_st)
def test_modulator_norm_growth_is_2_alpha_sq(alpha, a):
    state = two_mode(a, 0.3)
    out = apply_element(state, Eom("a", "B", alpha))
    grown = state.norm() + 2.0 * alpha ** 2 * abs(a) ** 2
    assert out.norm() == pytest.approx(grown, abs=1e-12)


def test_modulator_truncates_at_max_order():
    """First order: only the carrier radiates, and tagged components pass
    unchanged; the order-2 reference pass kicks them once more, and agrees
    with the first-order pass on every tag with fewer than two kicks."""
    e = Eom("a", "B", 0.2)
    once = apply_element(two_mode(1.0, 0.0), e)
    twice = apply_element(once, e)
    assert twice.amp("a", B1) == pytest.approx(0.4)
    assert all(len(tag) <= 1 for tag, _ in twice.components("a"))
    tagged = PhotonState({("a", B1): 0.3 + 0j, ("b", B1): 0.5j})
    assert apply_element(tagged, e).amps == tagged.amps
    deeper = oracles.order2_pass(once.amps, "a", "B", 0.2, 1)
    assert deeper[("a", B1 + B1)] == pytest.approx(0.04)
    assert repr({k: a for k, a in deeper.items() if len(k[1]) < 2}) == repr(
        dict(twice.amps))


def test_modulator_distinct_instances_do_not_interfere():
    """Two passes with opposite-sign amplitude: coherent would cancel."""
    state = two_mode(1.0, 0.0)
    state = apply_element(state, Eom("a", "B", 0.1, instance=1))
    state = apply_element(state, PhaseShift("a", math.pi))
    # flip only the carrier back so pass 2 adds -0.1 against pass 1's +0.1
    state = PhotonState({**state.amps, ("a", CARRIER): -state.amp("a")})
    state = apply_element(state, Eom("a", "B", 0.1, instance=2))
    assert oracles.tag_prob(state.amps, "a", "B") == pytest.approx(2 * 2 * 0.1 ** 2)


def test_modulator_locked_rf_phase_interferes():
    """The locked-RF reference the next test averages: its passes share a
    bucket, so equal-and-opposite passes cancel exactly."""
    amps = oracles.locked_rf_pass({("a", CARRIER): 1.0 + 0j}, "a", "B", 0.1, 0.0)
    amps[("a", CARRIER)] = -amps[("a", CARRIER)]
    amps = oracles.locked_rf_pass(amps, "a", "B", 0.1, 0.0)
    assert oracles.tag_prob(amps, "a", "B") == pytest.approx(0.0, abs=1e-15)


def test_modulator_rf_average_matches_instance_model():
    """MC average over independent RF phases reproduces the instance sum."""
    amps = (0.35 + 0.1j, -0.22 + 0.4j)  # arbitrary two-pass carrier amps

    state = two_mode(amps[0], 0.0)
    state = apply_element(state, Eom("a", "B", 0.1, instance=1))
    state = PhotonState({**state.amps, ("a", CARRIER): amps[1]})
    state = apply_element(state, Eom("a", "B", 0.1, instance=2))
    tagged = oracles.tag_prob(state.amps, "a", "B")

    grid = np.linspace(0.0, 2 * math.pi, 64, endpoint=False)
    acc = 0.0
    for th1 in grid:
        for th2 in grid:
            locked = oracles.locked_rf_pass({("a", CARRIER): amps[0]}, "a", "B", 0.1, th1)
            locked[("a", CARRIER)] = amps[1]
            locked = oracles.locked_rf_pass(locked, "a", "B", 0.1, th2)
            acc += oracles.tag_prob(locked, "a", "B")
    assert acc / grid.size ** 2 == pytest.approx(tagged, rel=1e-12)


def test_modulator_parameter_validation():
    with pytest.raises(ConfigError):
        Eom("a", "B", ALPHA_MAX + 0.01)
    with pytest.raises(ConfigError):
        Eom("a", "B", -0.01)
