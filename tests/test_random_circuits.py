"""The walk layer on random circuits: a second bench for the engine.

Every other engine check runs on the nested bench.  Here hypothesis draws
valid circuits of other shapes: one to three sources with complex
amplitudes, splitters with vacuum ports and in-place arms, phase plates,
attenuators, shutters, mirrors, and modulators whose labels repeat and
whose instances differ, read out on a drawn subset of the arms live at the
end.  Each walk is checked against the plain loops of ``oracles``.
"""

import itertools
import math

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from cfcomm.circuit import (Circuit, backward_cuts, detection_probs, overlap,
                            propagate, propagate_cuts, validate_circuit)
from cfcomm.optics import (CARRIER, Attenuator, Beamsplitter, Block, Eom, Linear,
                           Mirror, PhaseShift, apply_adjoint, apply_element)

import oracles
from conftest import stripped, weak_values_match_the_walk

#: modulator labels and their frequencies in GHz
LABELS = {"A": 2.1, "B": 1.0, "C": 1.6}

KINDS = ("splitter", "phase", "attenuator", "shutter", "mirror", "modulator")

source_amps = st.complex_numbers(min_magnitude=0.05, max_magnitude=1.0,
                                 allow_nan=False, allow_infinity=False)


@st.composite
def circuits(draw) -> Circuit:
    """A valid circuit: each element acts on live arms and writes fresh ones,
    and every arm live at the end is a detector or an open port."""
    names = (f"arm{i}" for i in itertools.count())
    sources = tuple((next(names), draw(source_amps))
                    for _ in range(draw(st.integers(1, 3))))
    live = [arm for arm, _ in sources]
    elements = []
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(KINDS))
        arm = draw(st.sampled_from(live))
        if kind == "splitter":
            others = [a for a in live if a != arm]
            other = (draw(st.sampled_from(others)) if others and draw(st.booleans())
                     else next(names))  # a fresh arm is a vacuum port
            ins = draw(st.permutations((arm, other)))
            # a live in-port may also be its own out-port, updated in place
            outs = [a if a in live and draw(st.booleans()) else next(names)
                    for a in ins]
            live = [a for a in live if a not in ins] + outs
            elements.append(Beamsplitter(draw(st.floats(0.01, 0.99)), *ins, *outs))
        elif kind == "phase":
            elements.append(PhaseShift(arm, draw(st.floats(-math.pi, math.pi))))
        elif kind in ("attenuator", "shutter"):
            loss = next(names)
            live.append(loss)
            elements.append(Attenuator(arm, draw(st.floats(0.0, 1.0)), loss)
                            if kind == "attenuator" else Block(arm, loss))
        elif kind == "mirror":
            target = next(names)
            live = [a for a in live if a != arm] + [target]
            elements.append(Mirror(arm, target))
        else:
            label = draw(st.sampled_from(sorted(LABELS)))
            elements.append(Eom(arm, label, LABELS[label], draw(st.floats(0.0, 0.5)),
                                draw(st.integers(1, 3))))
    detectors = draw(st.lists(st.sampled_from(live), min_size=1, unique=True))
    return Circuit(tuple(elements), sources,
                   frozenset(a for a in live if a not in detectors), tuple(detectors))


def items(amps) -> str:
    return repr(list(amps.items()))


def forward_step_oracle(amps, e):
    """The plain loop for a port map; for a modulator, the oracle's pass,
    or the state itself where there is no carrier or no depth."""
    if isinstance(e, Linear):
        return oracles.transfer(amps, e.ins, e.outs, e.m, adjoint=False)
    if amps.get((e.mode, CARRIER), 0j) == 0j or e.alpha == 0.0:
        return amps
    return oracles.first_order_pass(amps, e.mode, e.label, e.alpha, e.instance)


@given(c=circuits())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_every_step_of_a_drawn_circuit_is_the_plain_loop(c):
    """The drawn circuit is valid, and every cut of the forward walk and of
    each backward walk is the oracle's step from the cut before it: item for
    item, in order, for the port maps; value for value for a modulator pass,
    which backward is the identity."""
    validate_circuit(c)
    fwd = propagate_cuts(c)
    assert len(fwd) == len(c.elements) + 1
    # each source is added to 0j, so a -0.0 part of its amplitude is +0.0
    assert items(fwd[0].amps) == items(
        {(arm, CARRIER): 0j + complex(a) for arm, a in c.sources})
    for k, e in enumerate(c.elements):
        want = forward_step_oracle(fwd[k].amps, e)
        if isinstance(e, Linear):
            assert items(fwd[k + 1].amps) == items(want)
        else:
            assert dict(fwd[k + 1].amps) == want
        assert apply_element(fwd[k], e).amps == fwd[k + 1].amps
    for d in c.detectors:
        bwd = backward_cuts(c, d)
        assert items(bwd[-1].amps) == items({(d, CARRIER): 1.0 + 0j})
        for k, e in enumerate(c.elements):
            if isinstance(e, Linear):
                assert items(bwd[k].amps) == items(oracles.transfer(
                    bwd[k + 1].amps, e.ins, e.outs, e.m, adjoint=True))
            else:
                assert bwd[k] is bwd[k + 1]
            assert apply_adjoint(bwd[k + 1], e).amps == bwd[k].amps


@given(c=circuits())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_drawn_backward_walk_is_the_plain_loop_and_its_strips(c):
    """With modulators, each backward walk equals the plain adjoint loop of
    ``oracles``, item for item at every cut, and is made of the states of
    its strip's walk, which is valid."""
    assume(any(isinstance(e, Eom) for e in c.elements))
    strip = stripped(c)
    validate_circuit(strip)
    for d in c.detectors:
        amps = {(d, CARRIER): 1.0 + 0j}
        want = [items(amps)]
        for e in reversed(c.elements):
            if isinstance(e, Linear):
                amps = oracles.transfer(amps, e.ins, e.outs, e.m, adjoint=True)
            want.append(items(amps))
        bwd = backward_cuts(c, d)
        assert [items(s.amps) for s in bwd] == want[::-1]
        shared = {id(s) for s in backward_cuts(strip, d)}
        assert all(id(s) in shared for s in bwd)


@given(c=circuits())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_drawn_circuit_probabilities_and_overlaps(c):
    """Order 1 is the order-2 reference walk's sum over its components with
    fewer than two kicks, bit for bit; order 2, in closed form, is its whole
    sum to rel 1e-13; and the two-state overlap is the same at every cut."""
    walk = oracles.order2_terminal(c)
    p1, p2 = detection_probs(c), detection_probs(c, max_order=2)
    assert list(p1) == list(p2) == sorted(c.detectors)
    fwd = propagate_cuts(c)
    for d in c.detectors:
        assert p1[d] == oracles.detector_prob(walk, d, (0, 1))
        assert p2[d] == pytest.approx(oracles.detector_prob(walk, d), rel=1e-13)
        vals = [overlap(f, b) for f, b in zip(fwd, backward_cuts(c, d))]
        assert max(abs(v - vals[0]) for v in vals) <= 1e-12


@given(c=circuits())
@settings(max_examples=80, derandomize=True, deadline=None)
def test_drawn_circuit_sidebands_obey_the_weak_value_identity(c):
    """Repeated labels and instances, several sources and modulators on
    detector arms: each tagged component at each detector is the coherent
    sum of ``alpha F conj(B)`` over the passes that write its tag."""
    weak_values_match_the_walk(c)


@given(c=circuits())
@settings(max_examples=20, derandomize=True, deadline=None)
def test_drawn_circuit_walks_are_shared_and_read_only(c):
    """A second call hands out the same walk, whose states cannot change."""
    fwd = propagate_cuts(c)
    assert propagate_cuts(c) is fwd and propagate(c) is fwd[-1]
    walks = [fwd]
    for d in c.detectors:
        walks.append(backward_cuts(c, d))
        assert backward_cuts(c, d) is walks[-1]
    for state in itertools.chain(*walks):
        with pytest.raises(TypeError):
            state.amps[("stray", CARRIER)] = 1j
