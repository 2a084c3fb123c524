"""The nested-interferometer bench: wiring, tuning, propagation, weak traces.

The bench is one interferometer loop nested inside another.  The outer loop
splits the input between a *reference* arm and an *entry* into the inner
section; the inner loop is traversed twice (folded in hardware, unrolled
here), with a shutter that can close one inner arm.  Five phase modulators
tag the light wherever it actually flies.

The bench is described once, folded, as a :class:`FoldedDevice`.
Everything downstream works on the explicit :class:`Circuit` — an ordered
tuple of elements — that :func:`expand_folded` unrolls from it, writing the
inner-loop body once and running it for both passes.

Each circuit is built once per config, preset and modulator choice, and
walked forward once, to first order: :func:`build_circuit` hands every
caller the same frozen circuit, and :func:`propagate` and
:func:`propagate_cuts` hand out copies of one shared walk, which equal
circuits share too.  The second-order detection probabilities follow from
that walk in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .config import EOM_SITES, DeviceConfig, EomSpec, hash_once
from .errors import ConfigError, TopologyError, UndefinedPostselectionError
from .optics import (CARRIER, Attenuator, Beamsplitter, Block, Element, Eom,
                     Mirror, PhaseShift, PhotonState, apply_adjoint,
                     apply_element)

# arm names, in the order light meets them
SOURCE = "source"
VAC_ENTRY = "vac_entry"
VAC_INNER_1 = "vac_inner_1"
VAC_INNER_2 = "vac_inner_2"
REFERENCE = "reference"
ENTRY = "entry"
SHUTTER_1 = "shutter_arm_1"
OPEN_1 = "open_arm_1"
LINK_1 = "link_1"
DUMP_INNER = "dump_inner"
LINK_2 = "link_2"
SHUTTER_2 = "shutter_arm_2"
OPEN_2 = "open_arm_2"
EXIT = "exit"
DET0 = "det0"
DET1 = "det1"
DUMP_EXIT = "dump_exit"
LOSS_ATT = "loss_attenuator"
LOSS_SHUTTER_1 = "loss_shutter_1"
LOSS_SHUTTER_2 = "loss_shutter_2"

#: arms whose presence/absence of light is physically meaningful to report
REPORT_ARMS = (REFERENCE, ENTRY, SHUTTER_1, OPEN_1, LINK_1,
               LINK_2, SHUTTER_2, OPEN_2, EXIT)

#: which arms each modulator site tags (double-pass sites tag two arms)
SITE_ARMS = {
    "entry": (ENTRY,),
    "reference": (REFERENCE,),
    "shutter_arm": (SHUTTER_1, SHUTTER_2),
    "open_arm": (OPEN_1, OPEN_2),
    "link": (LINK_1, LINK_2),
}

PRESETS = ("bit0", "bit1", "calibration")

#: a postselection on less carrier probability than this is ill-defined
POSTSELECTION_FLOOR = 1e-14

#: entries per result cache: tunings and sector tables take at most three
#: per bench, built circuits and forward walks six in a full commission
#: (three presets, with and without modulators), so a stream of fresh
#: configs keeps the last few benches and a bounded memory
RESULT_CACHE_SIZE = 64


@dataclass(frozen=True)
class Circuit:
    """Ordered single-photon circuit: elements, input amplitudes, open ports.

    ``open_ports`` are the arms allowed to still hold light after the last
    element (dumps and loss arms); anything else left live is a wiring bug.
    ``detectors`` are the arms read out after the last element.
    """

    elements: tuple[Element, ...]
    sources: tuple[tuple[str, complex], ...]
    open_ports: frozenset[str]
    detectors: tuple[str, ...] = ()

    __hash__ = hash_once


def _ports(e: Element) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """An element's in-ports and out-ports; a modulator acts in place."""
    return ((e.mode,), (e.mode,)) if isinstance(e, Eom) else (e.ins, e.outs)


def _label(e: Element) -> str:
    """The element's name, or the modulator's tag label, for wiring errors."""
    return f"modulator {e.label}" if isinstance(e, Eom) else e.name


def validate_circuit(c: Circuit) -> None:
    """Check the wiring is physical: every arm written once, used, terminated.

    Arms move ``virgin -> live -> consumed``; an arm nothing has touched yet
    is virgin.  An element acts in place on an arm that is both its in-port
    and its out-port, which must be live.  Its other in-ports are consumed;
    a virgin one is a vacuum port, allowed only on an element with two
    in-ports (a splitter).  Its other out-ports must be virgin and become
    live.  An element acting on a virgin or consumed arm, a detector arm
    not live at the end, or another arm left live outside ``open_ports``,
    is a wiring error.
    """
    status: dict[str, str] = {}
    for mode, _ in c.sources:
        if mode in status:
            raise TopologyError(f"duplicate source on arm {mode!r}")
        status[mode] = "live"

    for e in c.elements:
        ins, outs = _ports(e)
        if len(set(ins)) < len(ins) or len(set(outs)) < len(outs):
            raise TopologyError(f"{_label(e)} ports must differ")
        for m in ins:
            arm = status.get(m, "virgin")
            vacuum = arm == "virgin" and len(ins) > 1 and m not in outs
            if arm != "live" and not vacuum:
                raise TopologyError(f"{_label(e)} acts on {arm} arm {m!r}")
            if m not in outs:
                status[m] = "consumed"
        for m in outs:
            if m not in ins:
                if m in status:
                    raise TopologyError(f"{_label(e)} writes into already-used arm {m!r}")
                status[m] = "live"

    for m in c.detectors:
        if status.get(m, "virgin") != "live":
            raise TopologyError(f"detector on {status.get(m, 'virgin')} arm {m!r}")
    dangling = [m for m in sorted(status) if status[m] == "live"
                and m not in c.open_ports and m not in c.detectors]
    if dangling:
        raise TopologyError(f"arms left dangling at the end: {dangling}")


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

def propagate(circuit: Circuit) -> PhotonState:
    """Terminal state: a copy of the circuit's one shared walk, free to change."""
    return _cuts(circuit)[-1].copy()


def propagate_cuts(circuit: Circuit) -> list[PhotonState]:
    """Copies of the forward state at every cut; ``cuts[k]`` follows k elements."""
    return [state.copy() for state in _cuts(circuit)]


@lru_cache(maxsize=RESULT_CACHE_SIZE)
def _cuts(circuit: Circuit) -> tuple[PhotonState, ...]:
    """The one first-order forward walk per circuit; never hand these out."""
    cuts = [PhotonState.from_sources(circuit.sources)]
    for e in circuit.elements:
        cuts.append(apply_element(cuts[-1], e))
    return tuple(cuts)


def detection_probs(circuit: Circuit, max_order: int = 1) -> dict[str, float]:
    """Probability collected by each detector, all sidebands included, in
    the first-order sideband model or, with ``max_order`` 2, the second.

    At second order, modulator pass ``k`` also kicks each tagged component
    on its arm into two new, distinct tags, ``alpha_k`` times its amplitude
    each, which later modulators leave alone: they add in intensity and
    reach detector ``d`` through the modulator-free transfer, of amplitude
    ``conj(B_d[k].amp(arm_k))`` for ``B_d = backward_cuts(circuit, d)``.
    So ``p2(d) = p1(d) + sum_k 2 alpha_k^2 W_k |B_d[k].amp(arm_k)|^2``, with
    ``W_k`` the summed ``|a|^2`` of the tagged components on that arm in
    ``F[k]``, the first-order forward cut just before the pass.
    """
    if max_order not in (1, 2):
        raise ConfigError(f"sideband order must be 1 or 2, got {max_order!r}")
    cuts = _cuts(circuit)
    probs = {d: cuts[-1].mode_prob(d) for d in sorted(circuit.detectors)}
    if max_order == 2:
        passes = [(k, e, sum(abs(a) ** 2 for tag, a in cuts[k].components(e.mode) if tag))
                  for k, e in enumerate(circuit.elements) if isinstance(e, Eom)]
        for d in probs:
            bwd = backward_cuts(circuit, d)
            probs[d] += sum(2.0 * e.alpha ** 2 * w * abs(bwd[k].amp(e.mode)) ** 2
                            for k, e, w in passes)
    return probs


def backward_cuts(circuit: Circuit, detector: str) -> list[PhotonState]:
    """Backward (postselected) state at every cut, aligned with forward cuts.

    Starts as a unit carrier amplitude on the clicked detector's arm and
    runs every element's adjoint in reverse.  A closed shutter is a
    zero-transmission attenuator, so its adjoint darkens the backward state
    on the shutter arm exactly as the forward step darkens the forward one:
    both vectors vanish behind closed shutters.
    """
    if detector not in circuit.detectors:
        raise TopologyError(f"unknown detector {detector!r}")
    cuts = [PhotonState.from_sources(((detector, 1.0),))]
    for e in reversed(circuit.elements):
        cuts.append(apply_adjoint(cuts[-1], e))
    cuts.reverse()
    return cuts


def overlap(fwd: PhotonState, bwd: PhotonState) -> complex:
    """Two-state overlap <backward|forward> at one cut."""
    return sum((bwd.amps[key].conjugate() * fwd.amps[key]
                for key in bwd.amps if key in fwd.amps), 0j)


@dataclass(frozen=True)
class TwoStateVector:
    """Forward and backward states at every cut, plus the postselection amp."""

    forward: tuple[PhotonState, ...]
    backward: tuple[PhotonState, ...]
    postselection: complex
    detector: str


def two_state_vector(circuit: Circuit, detector: str) -> TwoStateVector:
    fwd = propagate_cuts(circuit)
    bwd = backward_cuts(circuit, detector)
    ps = fwd[-1].amp(detector, CARRIER)
    if abs(ps) ** 2 < POSTSELECTION_FLOOR:
        raise UndefinedPostselectionError(
            f"detector {detector} carrier probability {abs(ps) ** 2:.3e} below "
            f"{POSTSELECTION_FLOOR:g}; conditional quantities undefined")
    return TwoStateVector(tuple(fwd), tuple(bwd), ps, detector)


def _consuming_index(circuit: Circuit, arm: str) -> int:
    """First element that takes the arm in without giving it back out."""
    for k, e in enumerate(circuit.elements):
        ins, outs = _ports(e)
        if arm in ins and arm not in outs:
            return k
    raise TopologyError(f"arm {arm!r} is never consumed in this circuit")


@dataclass(frozen=True)
class TraceReport:
    """Normalized two-state weak trace on each reported arm.

    The value on an arm is ``|<backward|arm><arm|forward>| / |postselection|``
    at the cut just before the arm is consumed — the modulus of the weak
    value of that arm's occupation.  It is exactly the single-pass sideband
    transfer a weak modulator on that arm achieves into the clicked
    detector, in units of the full-overlap transfer.
    """

    values: dict[str, float]
    postselection: complex
    detector: str


def weak_trace(circuit: Circuit, detector: str) -> TraceReport:
    tsv = two_state_vector(circuit, detector)
    aps = abs(tsv.postselection)
    values: dict[str, float] = {}
    for arm in REPORT_ARMS:
        k = _consuming_index(circuit, arm)
        f = tsv.forward[k].amp(arm, CARRIER)
        b = tsv.backward[k].amp(arm, CARRIER)
        values[arm] = abs(b.conjugate() * f) / aps
    return TraceReport(values=values, postselection=tsv.postselection,
                       detector=detector)


def sideband_strengths(report: TraceReport, cfg: DeviceConfig) -> dict[str, float]:
    """Predicted per-label spectral weight: sum of squared traces over passes.

    Each pass of a weak modulator moves ``alpha x (weak value)`` of carrier
    amplitude into its sidebands; passes add in intensity, so the detected
    sideband weight per label is ``alpha^2 x sum(trace^2)``.  The returned
    numbers are that sum — the spectrum side divides out ``alpha^2`` and the
    carrier to land in the same unit.
    """
    out: dict[str, float] = {}
    for site in EOM_SITES:
        spec = cfg.eom_at(site)
        out[spec.label] = sum(report.values[a] ** 2 for a in SITE_ARMS[site])
    return out


# --------------------------------------------------------------------------
# tuning
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Tuning:
    """Knob settings: attenuation, one phase for both inner passes, reference phase."""

    attenuator_t: float
    inner_phase: float
    reference_phase: float


@lru_cache(maxsize=RESULT_CACHE_SIZE)
def solve_tuning(cfg: DeviceConfig) -> Tuning:
    """Operational settings: inner loop dark, shuttered bench dark at det0.

    In closed form, with ``i`` on reflection.  Each inner pass carries
    ``t_a t_b - r_a r_b e^{i phi}`` to its merged port, so its dark phase is
    0 exactly.  With both shutters closed, only the all-reflected inner
    route reaches det0, with amplitude ``t_o^2 r_n^2 r_f^2``, against
    ``-r_o^2 t e^{i phi}`` from the reference arm: the reference phase is 0
    too, and the balancing attenuation is
    ``t = (1 - r_o^2) / r_o^2 * r_n^2 * r_f^2``.  A numeric
    ``attenuator_t`` is kept as it is.  No ``t`` in (0, 1] means the bench
    cannot be balanced at these reflectances.
    """
    if cfg.attenuator_t != "auto":
        return Tuning(float(cfg.attenuator_t), 0.0, 0.0)
    r2o = cfg.r2("outer")
    t = (1.0 - r2o) / r2o * cfg.r2("inner_near") * cfg.r2("inner_far")
    if not 0.0 < t <= 1.0:
        raise ConfigError(
            f"no balancing attenuation in (0, 1]: would need t = {t:.6g}")
    return Tuning(t, 0.0, 0.0)


@lru_cache(maxsize=RESULT_CACHE_SIZE)
def calibration_tuning(cfg: DeviceConfig) -> Tuning:
    """All-bright settings: every phase at pi, the operational attenuation.

    Each inner pass then carries ``t_a t_b + r_a r_b``, and the reference arm
    adds ``r_o^2 t`` to the inner route's positive det0 amplitude.
    """
    return Tuning(solve_tuning(cfg).attenuator_t, math.pi, math.pi)


def preset_tuning(cfg: DeviceConfig, preset: str) -> Tuning:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    return calibration_tuning(cfg) if preset == "calibration" else solve_tuning(cfg)


def build_circuit(cfg: DeviceConfig, preset: str, *,
                  include_eoms: bool = True) -> Circuit:
    """The unrolled bench for one preset: 'bit0', 'bit1' or 'calibration'.

    Built once per config, preset and modulator choice; the frozen circuit
    is shared by every caller.
    """
    return _built(cfg, preset, include_eoms)


@lru_cache(maxsize=RESULT_CACHE_SIZE)
def _built(cfg: DeviceConfig, preset: str, include_eoms: bool) -> Circuit:
    return expand_folded(FoldedDevice.from_config(cfg, preset),
                         include_eoms=include_eoms)


# --------------------------------------------------------------------------
# the folded form
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldedDevice:
    """The bench as built: three splitters, five modulators, two phase knobs.

    The inner loop is traversed twice through the *same* splitters and
    modulators; unrolling assigns pass indices 1 and 2 so the incoherent
    bookkeeping of the two passes survives the expansion.
    """

    outer_r2: float
    inner_near_r2: float
    inner_far_r2: float
    eoms: tuple[EomSpec, ...]
    attenuator_t: float
    inner_phase: float
    reference_phase: float
    shutter_closed: bool

    def __post_init__(self):
        labels = [e.label for e in self.eoms]
        if len(set(labels)) != len(labels):
            raise TopologyError(
                f"modulator labels must be distinct, got {labels}")
        sites = sorted(e.site for e in self.eoms)
        if sites != sorted(EOM_SITES):
            raise TopologyError(
                f"folded bench needs one modulator per site {EOM_SITES}, "
                f"got {sites}")

    @classmethod
    def from_config(cls, cfg: DeviceConfig, preset: str) -> "FoldedDevice":
        """Tune the physical bench for a preset: one inner phase serves both
        passes."""
        tun = preset_tuning(cfg, preset)
        return cls(
            outer_r2=cfg.r2("outer"),
            inner_near_r2=cfg.r2("inner_near"),
            inner_far_r2=cfg.r2("inner_far"),
            eoms=tuple(cfg.eom_at(site) for site in EOM_SITES),
            attenuator_t=tun.attenuator_t,
            inner_phase=tun.inner_phase,
            reference_phase=tun.reference_phase,
            shutter_closed=(preset == "bit1"),
        )


def expand_folded(dev: FoldedDevice, *, include_eoms: bool = True) -> Circuit:
    """Unroll the folded bench into the explicit two-pass circuit.

    The inner-loop body is written once and run for each pass, which stamps
    its index on the element names and on the modulators it meets::

        pass  enters on  splits at   into                       merges at   out to
        1     entry      inner_near  shutter_arm_1, open_arm_1  inner_far   link_1, dump_inner
        2     link_2     inner_far   shutter_arm_2, open_arm_2  inner_near  exit, det1

    Between the passes the link modulator acts on ``link_1`` and, after the
    fold mirror, on ``link_2``.  The mirror sends the light back through
    the loop the way it came, so pass 2 meets the far splitter first and
    merges at the near one, whose other output is det1.
    """
    eoms = {e.site: e for e in dev.eoms} if include_eoms else {}

    def eom(site: str, arm: str, instance: int) -> list[Element]:
        s = eoms.get(site)
        return [Eom(arm, s.label, s.freq_ghz, s.alpha, instance)] if s else []

    def inner_pass(n: int, into: str, split_r2: float, vacuum: str, shut: str,
                   open_: str, loss: str, merge_r2: float, merged: str,
                   dumped: str) -> list[Element]:
        return [Beamsplitter(split_r2, into, vacuum, shut, open_, f"inner_split_{n}"),
                *([Block(shut, loss)] if dev.shutter_closed else []),
                *eom("shutter_arm", shut, n),
                PhaseShift(open_, dev.inner_phase, f"inner_phase_{n}"),
                *eom("open_arm", open_, n),
                Beamsplitter(merge_r2, shut, open_, merged, dumped, f"inner_merge_{n}")]

    els = (Beamsplitter(dev.outer_r2, SOURCE, VAC_ENTRY, ENTRY, REFERENCE, "outer_tap"),
           Attenuator(REFERENCE, dev.attenuator_t, LOSS_ATT),
           PhaseShift(REFERENCE, dev.reference_phase, "reference_phase"),
           *eom("reference", REFERENCE, 1),
           *eom("entry", ENTRY, 1),
           *inner_pass(1, ENTRY, dev.inner_near_r2, VAC_INNER_1, SHUTTER_1, OPEN_1,
                       LOSS_SHUTTER_1, dev.inner_far_r2, LINK_1, DUMP_INNER),
           *eom("link", LINK_1, 1), Mirror(LINK_1, LINK_2), *eom("link", LINK_2, 2),
           *inner_pass(2, LINK_2, dev.inner_far_r2, VAC_INNER_2, SHUTTER_2, OPEN_2,
                       LOSS_SHUTTER_2, dev.inner_near_r2, EXIT, DET1),
           Beamsplitter(dev.outer_r2, EXIT, REFERENCE, DET0, DUMP_EXIT, "outer_merge"))
    open_ports = frozenset({DUMP_INNER, DUMP_EXIT, LOSS_ATT,
                            LOSS_SHUTTER_1, LOSS_SHUTTER_2})
    circuit = Circuit(els, ((SOURCE, 1.0 + 0j),), open_ports, (DET0, DET1))
    validate_circuit(circuit)
    return circuit
