"""Single-photon amplitudes over (arm, sideband) and the elements acting on them.

The photon state at any cut through the bench is a sparse map from
``(arm name, sideband tag)`` to a complex amplitude, and nothing more:
that elements act only on arms something wrote is checked once per
circuit, by :func:`cfcomm.circuit.validate_circuit`.  A sideband tag is a
plain tuple of ``(label, sign, instance)`` kicks, one per modulator pass the
component has received, in order; the empty tuple is the unshifted carrier.
Tags hash, compare and sort as tuples.  A linear element is its port map:
a frozen :class:`Linear` of in-ports, out-ports and a small port matrix
``m`` (rows: out-ports, columns: in-ports), built once with the element and
the same for every sideband tag.  Splitters, phase plates, attenuators, the
shutter (:func:`Block`, an attenuator with transmission 0) and the fold
(:func:`Mirror`) are functions that return one.  One routine moves
amplitudes through it: :func:`apply_element` applies ``m`` from the in-ports
to the out-ports, and :func:`apply_adjoint`, the step of backward
evolution, applies ``m^H`` from the out-ports back to the in-ports.  Only
the modulator, which writes sideband tags forward and is the identity
backward, has no matrix.  Detectors are not elements: a circuit names the
arms it reads out after its last element.  A step never changes the state
it is given, and the states of the one forward walk per circuit that
:mod:`cfcomm.circuit` shares between callers are handed out as copies, so a
caller may change any state it holds.

Two modelling choices live here and nowhere else:

* Modulators act to first order: a carrier amplitude ``a`` stays ``a`` and
  spawns ``alpha * a`` at the up- and down-shifted tags, and components
  already tagged pass through unchanged, so the truncated map is not
  exactly unitary — the norm grows by ``2 alpha^2 x (carrier power on the
  arm)`` per pass.  The deficit is tracked, never renormalized
  (renormalizing would silently distort probability ratios).  The
  second-order correction is computed in closed form from first-order
  states, by :func:`cfcomm.circuit.detection_probs`.

* Each physical modulator pass stamps its own ``instance`` index into the
  tag.  Components created by different passes of the same modulator
  therefore sit in different buckets and their intensities add, which is
  what a slow free-running RF phase between passes does to time-averaged
  spectra.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from typing import Iterator, Mapping, Union

from .errors import ConfigError

#: validity limit of the first-order sideband treatment
ALPHA_MAX = 0.5

#: a component's modulator kicks, in order: (label, sign, instance) triples
SidebandTag = tuple[tuple[str, int, int], ...]

#: the unshifted carrier: no kicks
CARRIER: SidebandTag = ()


def detuning_ghz(tag: SidebandTag, freqs: Mapping[str, float]) -> float:
    """Net frequency offset of a tag from the carrier, given label -> GHz."""
    return sum(sign * freqs[label] for label, sign, _ in tag)


@dataclass
class PhotonState:
    """A state is its amplitudes: a sparse map over (arm, sideband tag).

    It keeps no set of arms; ``validate_circuit`` checks the wiring.
    """

    amps: dict[tuple[str, SidebandTag], complex] = field(default_factory=dict)

    @classmethod
    def from_sources(cls, sources) -> "PhotonState":
        state = cls()
        for mode, amp in sources:
            state.amps[(mode, CARRIER)] = state.amps.get((mode, CARRIER), 0j) + complex(amp)
        return state

    def copy(self) -> "PhotonState":
        return PhotonState(dict(self.amps))

    def amp(self, mode: str, tag: SidebandTag = CARRIER) -> complex:
        return self.amps.get((mode, tag), 0j)

    def components(self, mode: str) -> Iterator[tuple[SidebandTag, complex]]:
        """All (tag, amplitude) pairs on one arm, in insertion order."""
        for (m, tag), a in self.amps.items():
            if m == mode:
                yield tag, a

    def norm(self) -> float:
        return sum((abs(a) ** 2 for a in self.amps.values()), 0.0)

    def mode_prob(self, mode: str) -> float:
        return sum((abs(a) ** 2 for (m, _), a in self.amps.items() if m == mode), 0.0)

    def carrier_prob(self, mode: str) -> float:
        return abs(self.amps.get((mode, CARRIER), 0j)) ** 2


# --------------------------------------------------------------------------
# elements
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Linear:
    """A linear element is its port map: ``m`` takes the amplitudes on
    ``ins`` to those on ``outs`` (rows: out-ports, columns: in-ports),
    identically for every sideband tag (GHz shifts are negligible against
    the element bandwidth).  It has one or two in-ports and one or two
    out-ports, the shapes the element step is written out for."""

    ins: tuple[str, ...]
    outs: tuple[str, ...]
    m: tuple[tuple[complex, ...], ...]
    name: str = "linear element"


def Beamsplitter(r2: float, in1: str, in2: str, out1: str, out2: str,
                 name: str = "splitter") -> Linear:
    """Symmetric splitter, ``i`` on reflection: ``out1 = t in1 + i r in2``
    and ``out2 = i r in1 + t in2`` with ``r^2`` the intensity reflectance."""
    if not 0.0 < r2 < 1.0:
        raise ConfigError(f"{name}: r^2 must be in (0, 1), got {r2}")
    r, t = math.sqrt(r2), math.sqrt(1.0 - r2)
    return Linear((in1, in2), (out1, out2), ((t, 1j * r), (1j * r, t)), name)


def PhaseShift(mode: str, radians: float, name: str = "phase plate") -> Linear:
    return Linear((mode,), (mode,), ((cmath.exp(1j * radians),),), name)


def Attenuator(mode: str, amp_transmission: float, loss_mode: str) -> Linear:
    """Scales the arm by ``t`` and routes the deficit to a loss arm."""
    t = amp_transmission
    if not 0.0 <= t <= 1.0:
        raise ConfigError(f"attenuator transmission must be in [0, 1], got {t}")
    return Linear((mode,), (mode, loss_mode),
                  ((t,), (math.sqrt(max(0.0, 1.0 - t * t)),)), "attenuator")


def Block(mode: str, loss_mode: str) -> Linear:
    """Shutter: everything on the arm is absorbed (moved to the loss arm).

    The arm itself stays in place, dark, so elements after the shutter may
    still act on it.
    """
    return replace(Attenuator(mode, 0.0, loss_mode), name="shutter")


def Mirror(source: str, target: str) -> Linear:
    """Ideal fold: relabels one arm into another."""
    return Linear((source,), (target,), ((1.0,),), "mirror")


@dataclass(frozen=True)
class Eom:
    """Phase modulator: tags the passing carrier with +-freq sidebands."""

    mode: str
    label: str
    freq_ghz: float
    alpha: float
    instance: int = 1

    def __post_init__(self):
        if not 0.0 <= self.alpha <= ALPHA_MAX:
            raise ConfigError(
                f"modulation depth alpha={self.alpha} outside [0, {ALPHA_MAX}]"
                " (first-order sideband model invalid)")
        if not self.freq_ghz > 0.0:  # NaN fails it too
            raise ConfigError(f"modulator frequency must be positive, got {self.freq_ghz}")


Element = Union[Linear, Eom]


def apply_element(state: PhotonState, e: Element) -> PhotonState:
    """State after one element (pure: the input state is left untouched)."""
    if isinstance(e, Eom):
        return _modulate(state, e)
    return _transfer(state, e, adjoint=False)


def apply_adjoint(state: PhotonState, e: Element) -> PhotonState:
    """One step of backward evolution: the element's adjoint.

    Meant for carrier-sector states propagated back from a detection event.
    Modulators act as the identity there — at first order the sidebands are
    forward-generated bookkeeping and never feed back into the carrier.
    """
    if isinstance(e, Eom):
        return state.copy()
    return _transfer(state, e, adjoint=True)


def _transfer(state: PhotonState, e: Linear, adjoint: bool) -> PhotonState:
    """Apply ``M`` (ins -> outs) or, for the adjoint, ``M^H`` (outs -> ins).

    Where two arms feed the step, tags are visited in sorted order, so the
    float sums and the insertion order of the result do not depend on the
    hash seed; a single feeding arm keeps its own insertion order.  An arm
    on both sides of the step is updated in place; an output that comes out
    exactly zero is not stored.  Each output is the row's dot product summed
    from ``0`` in port order, ``0 + x0*a0 + x1*a1``, written out for one and
    for two feeding arms (the float operations of ``sum(map(mul, row, a))``).
    """
    out = state.copy()
    amps = out.amps
    if adjoint:
        src, dst = e.outs, e.ins
        m = [[x.conjugate() for x in col] for col in zip(*e.m)]
    else:
        src, dst, m = e.ins, e.outs, e.m
    rows = [(mode, mode in src, row) for mode, row in zip(dst, m)]
    if len(src) == 1:
        s0, = src
        keep = s0 in dst
        for tag in [tag for (mode, tag) in amps if mode == s0]:
            a0 = amps[s0, tag] if keep else amps.pop((s0, tag))
            for mode, in_place, (x0,) in rows:
                o = 0 + x0 * a0
                key = (mode, tag)
                if in_place:
                    if o != 0j:
                        amps[key] = o
                    else:
                        del amps[key]
                elif o != 0j:
                    amps[key] = amps.get(key, 0j) + o
        return out
    s0, s1 = src
    keep0, keep1 = s0 in dst, s1 in dst
    for tag in sorted({tag for (mode, tag) in amps if mode == s0 or mode == s1}):
        a0 = amps.get((s0, tag), 0j) if keep0 else amps.pop((s0, tag), 0j)
        a1 = amps.get((s1, tag), 0j) if keep1 else amps.pop((s1, tag), 0j)
        for mode, in_place, (x0, x1) in rows:
            o = 0 + x0 * a0 + x1 * a1
            key = (mode, tag)
            if in_place:
                if o != 0j:
                    amps[key] = o
                else:
                    amps.pop(key, None)
            elif o != 0j:
                amps[key] = amps.get(key, 0j) + o
    return out


def _modulate(state: PhotonState, e: Eom) -> PhotonState:
    """Forward modulator pass, to first order: the carrier on the arm
    radiates ``alpha`` of its amplitude into each sideband; tagged
    components pass unchanged."""
    out = state.copy()
    amps = out.amps
    a = amps.get((e.mode, CARRIER), 0j)
    if a == 0j or e.alpha == 0.0:
        return out
    for sign in (+1, -1):
        key = (e.mode, ((e.label, sign, e.instance),))
        amps[key] = amps.get(key, 0j) + complex(e.alpha) * a
    return out
