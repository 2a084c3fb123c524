"""The nested-interferometer bench: wiring, tuning, propagation, weak traces.

The bench is one interferometer loop nested inside another.  The outer loop
splits the input between a *reference* arm and an *entry* into the inner
section; the inner loop is traversed twice (folded in hardware, unrolled
here), with a shutter that can close one inner arm.  Five phase modulators
tag the light wherever it actually flies.

Everything downstream works on an explicit, unrolled :class:`Circuit` — an
ordered tuple of elements.  The fold is represented by
:class:`FoldedDevice`, whose :func:`expand_folded` must reproduce the
unrolled wiring element for element; keeping that equivalence testable is
why the unrolled form is the primary representation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

from .config import BS_NAMES, EOM_SITES, DeviceConfig, EomSpec
from .errors import ConfigError, TopologyError, UndefinedPostselectionError
from .optics import (CARRIER, Attenuator, Beamsplitter, Block, Detector, Element,
                     Eom, Mirror, PhaseShift, PhotonState, apply_adjoint,
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

#: entries per config-keyed result cache: a bench uses at most three, so a
#: stream of fresh configs keeps the recent ones and a bounded memory
RESULT_CACHE_SIZE = 64

#: arms where a slow dephasing phase may be injected
_DEPHASING_ARMS = (REFERENCE, SHUTTER_1, SHUTTER_2)


@dataclass(frozen=True)
class Circuit:
    """Ordered single-photon circuit: elements, input amplitudes, open ports.

    ``open_ports`` are the arms allowed to still hold light after the last
    element (dumps and loss arms); anything else left live is a wiring bug.
    """

    elements: tuple[Element, ...]
    sources: tuple[tuple[str, complex], ...]
    open_ports: frozenset[str]

    @property
    def modes(self) -> frozenset[str]:
        names: set[str] = {m for m, _ in self.sources}
        for e in self.elements:
            ins, outs, _ = e.ports()
            names.update(ins + outs)
        return frozenset(names)

    @property
    def detectors(self) -> dict[str, str]:
        return {e.name: e.mode for e in self.elements if isinstance(e, Detector)}


def _label(e: Element) -> str:
    """Element type and name, for wiring errors."""
    return " ".join(filter(None, (type(e).__name__, getattr(e, "name", ""))))


def validate_circuit(c: Circuit) -> None:
    """Check the wiring is physical: every arm written once, used, terminated.

    Arms move ``virgin -> live -> consumed``.  An element acts in place on
    an arm that is both its in-port and its out-port, which must be live.
    Its other in-ports are consumed; a virgin one is a vacuum port, allowed
    only on an element with two in-ports (a splitter).  Its other out-ports
    must be virgin and become live.  An element acting on a virgin or
    consumed arm, or an arm left live outside ``open_ports``, is a wiring
    error.
    """
    status = {m: "virgin" for m in c.modes}
    for mode, _ in c.sources:
        if status.get(mode) == "live":
            raise TopologyError(f"duplicate source on arm {mode!r}")
        status[mode] = "live"

    names = set()
    for e in c.elements:
        ins, outs, _ = e.ports()
        if len(set(ins)) < len(ins) or len(set(outs)) < len(outs):
            raise TopologyError(f"{_label(e)} ports must differ")
        for m in ins:
            vacuum = status[m] == "virgin" and len(ins) > 1 and m not in outs
            if status[m] != "live" and not vacuum:
                raise TopologyError(f"{_label(e)} acts on {status[m]} arm {m!r}")
            if m not in outs:
                status[m] = "consumed"
        for m in outs:
            if m not in ins:
                if status[m] != "virgin":
                    raise TopologyError(f"{_label(e)} writes into already-used arm {m!r}")
                status[m] = "live"
        if isinstance(e, Detector):
            if e.name in names:
                raise TopologyError(f"duplicate detector name {e.name!r}")
            names.add(e.name)

    dangling = [m for m in sorted(status)
                if status[m] == "live" and m not in c.open_ports]
    if dangling:
        raise TopologyError(f"arms left dangling at the end: {dangling}")


# --------------------------------------------------------------------------
# propagation
# --------------------------------------------------------------------------

def propagate(circuit: Circuit, max_order: int = 1) -> PhotonState:
    """Terminal state after every element."""
    state = PhotonState.from_sources(circuit.modes, circuit.sources)
    for e in circuit.elements:
        state = apply_element(state, e, max_order=max_order)
    return state


def propagate_cuts(circuit: Circuit) -> list[PhotonState]:
    """Forward state at every cut; ``cuts[k]`` is the state after k elements."""
    state = PhotonState.from_sources(circuit.modes, circuit.sources)
    cuts = [state]
    for e in circuit.elements:
        state = apply_element(state, e)
        cuts.append(state)
    return cuts


def detection_probs(circuit: Circuit, max_order: int = 1) -> dict[str, float]:
    """Probability collected by each detector (all sidebands included)."""
    terminal = propagate(circuit, max_order=max_order)
    return {name: terminal.mode_prob(mode)
            for name, mode in sorted(circuit.detectors.items())}


def backward_cuts(circuit: Circuit, detector: str) -> list[PhotonState]:
    """Backward (postselected) state at every cut, aligned with forward cuts.

    Starts as a unit carrier amplitude on the clicked detector's arm and
    runs every element's adjoint in reverse.  A closed shutter is a
    zero-transmission attenuator, so its adjoint darkens the backward state
    on the shutter arm exactly as the forward step darkens the forward one:
    both vectors vanish behind closed shutters.
    """
    mode = circuit.detectors.get(detector)
    if mode is None:
        raise TopologyError(f"unknown detector {detector!r}")
    state = PhotonState.from_sources(circuit.modes, ((mode, 1.0),))
    cuts = [state]
    for e in reversed(circuit.elements):
        state = apply_adjoint(state, e)
        cuts.append(state)
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
    mode = circuit.detectors[detector]
    ps = fwd[-1].amp(mode, CARRIER)
    if abs(ps) ** 2 < POSTSELECTION_FLOOR:
        raise UndefinedPostselectionError(
            f"detector {detector} carrier probability {abs(ps) ** 2:.3e} below "
            f"{POSTSELECTION_FLOOR:g}; conditional quantities undefined")
    return TwoStateVector(tuple(fwd), tuple(bwd), ps, detector)


def _consuming_index(circuit: Circuit, arm: str) -> int:
    """First element that takes the arm in without giving it back out."""
    for k, e in enumerate(circuit.elements):
        ins, outs, _ = e.ports()
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
# assembly
# --------------------------------------------------------------------------

def _assemble(r2: Mapping[str, float], eoms: Mapping[str, EomSpec] | None,
              attenuator_t: float, phase_inner_first: float,
              phase_inner_second: float, phase_reference: float, *,
              shutter: bool,
              extra_phases: Mapping[str, float] | None = None,
              rf_phases: Mapping[str, float] | None = None) -> Circuit:
    """Unrolled element list for one pass of the folded bench.

    ``eoms`` maps site -> spec (None disables all modulators); ``rf_phases``
    maps a label to a locked RF phase, switching that modulator's two passes
    from incoherent to coherent addition.
    """
    extra = dict(extra_phases or {})
    for arm in extra:
        if arm not in _DEPHASING_ARMS:
            raise TopologyError(f"no dephasing injection point on arm {arm!r}")

    def bs(key: str, in1: str, in2: str, out1: str, out2: str,
           name: str) -> Beamsplitter:
        return Beamsplitter.from_r2(r2[key], in1, in2, out1, out2, name)

    def eom(site: str, arm: str, instance: int) -> list[Element]:
        if eoms is None:
            return []
        s = eoms[site]
        rf = None if rf_phases is None else rf_phases.get(s.label)
        return [Eom(arm, s.label, s.freq_ghz, s.alpha, instance, rf)]

    def dephase(arm: str) -> list[Element]:
        return [PhaseShift(arm, extra[arm], "dephasing")] if arm in extra else []

    els: list[Element] = [
        bs("outer", SOURCE, VAC_ENTRY, ENTRY, REFERENCE, "outer_tap"),
        Attenuator(REFERENCE, attenuator_t, LOSS_ATT),
        PhaseShift(REFERENCE, phase_reference, "reference_phase"),
        *dephase(REFERENCE),
        *eom("reference", REFERENCE, 1),
        *eom("entry", ENTRY, 1),
        bs("inner_near", ENTRY, VAC_INNER_1, SHUTTER_1, OPEN_1, "inner_split_1"),
        *dephase(SHUTTER_1),
        *([Block(SHUTTER_1, LOSS_SHUTTER_1)] if shutter else []),
        *eom("shutter_arm", SHUTTER_1, 1),
        PhaseShift(OPEN_1, phase_inner_first, "inner_phase_1"),
        *eom("open_arm", OPEN_1, 1),
        bs("inner_far", SHUTTER_1, OPEN_1, LINK_1, DUMP_INNER, "inner_merge_1"),
        *eom("link", LINK_1, 1),
        Mirror(LINK_1, LINK_2),
        *eom("link", LINK_2, 2),
        bs("inner_far", LINK_2, VAC_INNER_2, SHUTTER_2, OPEN_2, "inner_split_2"),
        *dephase(SHUTTER_2),
        *([Block(SHUTTER_2, LOSS_SHUTTER_2)] if shutter else []),
        *eom("shutter_arm", SHUTTER_2, 2),
        PhaseShift(OPEN_2, phase_inner_second, "inner_phase_2"),
        *eom("open_arm", OPEN_2, 2),
        bs("inner_near", SHUTTER_2, OPEN_2, EXIT, DET1, "inner_merge_2"),
        bs("outer", EXIT, REFERENCE, DET0, DUMP_EXIT, "outer_merge"),
        Detector(DET0, "det0"),
        Detector(DET1, "det1"),
    ]
    open_ports = frozenset({DUMP_INNER, DUMP_EXIT, LOSS_ATT,
                            LOSS_SHUTTER_1, LOSS_SHUTTER_2})
    circuit = Circuit(tuple(els), ((SOURCE, 1.0 + 0j),), open_ports)
    validate_circuit(circuit)
    return circuit


def _r2_table(cfg: DeviceConfig) -> dict[str, float]:
    return {name: cfg.r2(name) for name in BS_NAMES}


def _eom_table(cfg: DeviceConfig) -> dict[str, EomSpec]:
    return {site: cfg.eom_at(site) for site in EOM_SITES}


# --------------------------------------------------------------------------
# tuning
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Tuning:
    """Solved knob settings: attenuation and the three unrolled phases."""

    attenuator_t: float
    phase_inner_first: float
    phase_inner_second: float
    phase_reference: float


def _two_probe(f) -> tuple[complex, complex]:
    """Split an affine response ``f(phi) = a + b e^{i phi}`` into (a, b)."""
    z0 = f(0.0)
    zpi = f(math.pi)
    return (z0 + zpi) / 2.0, (z0 - zpi) / 2.0


def _dark_phase(a: complex, b: complex) -> float:
    """Phase minimizing ``|a + b e^{i phi}|`` (0 when there is no fringe)."""
    if abs(a) == 0.0 or abs(b) == 0.0:
        return 0.0
    return cmath.phase(-a * b.conjugate())


def _bright_phase(a: complex, b: complex) -> float:
    if abs(a) == 0.0 or abs(b) == 0.0:
        return 0.0
    return cmath.phase(a * b.conjugate())


def _inner_probe_amp(r2_split: float, r2_merge: float, phase: float) -> complex:
    """Merged-port amplitude of a bare two-splitter loop fed with unit light."""
    els = (
        Beamsplitter.from_r2(r2_split, ENTRY, VAC_INNER_1, SHUTTER_1, OPEN_1,
                             "probe_split"),
        PhaseShift(OPEN_1, phase, "probe_phase"),
        Beamsplitter.from_r2(r2_merge, SHUTTER_1, OPEN_1, LINK_1, DUMP_INNER,
                             "probe_merge"),
    )
    c = Circuit(els, ((ENTRY, 1.0 + 0j),), frozenset({LINK_1, DUMP_INNER}))
    return propagate(c).amp(LINK_1, CARRIER)


def _det0_amp(cfg: DeviceConfig, t: float, ph1: float, ph2: float,
              ph3: float, *, shutter: bool) -> complex:
    c = _assemble(_r2_table(cfg), None, t, ph1, ph2, ph3, shutter=shutter)
    return propagate(c).amp(DET0, CARRIER)


@lru_cache(maxsize=RESULT_CACHE_SIZE)
def solve_tuning(cfg: DeviceConfig) -> Tuning:
    """Operational settings: inner loop dark, shuttered bench dark at det0.

    Both inner passes are set to their dark fringe first.  The reference
    attenuation and phase then cancel, at the final merge, what the shuttered
    bench still leaks into det0: the det0 amplitude is affine in
    ``t e^{i phase}``, so two probe evaluations give the exact root.  No
    root in (0, 1] means the bench cannot be balanced at these reflectances.
    """
    r2 = _r2_table(cfg)
    ph1 = _dark_phase(*_two_probe(
        lambda p: _inner_probe_amp(r2["inner_near"], r2["inner_far"], p)))
    ph2 = _dark_phase(*_two_probe(
        lambda p: _inner_probe_amp(r2["inner_far"], r2["inner_near"], p)))

    if cfg.attenuator_t == "auto":
        z0 = _det0_amp(cfg, 0.0, ph1, ph2, 0.0, shutter=True)
        z1 = _det0_amp(cfg, 1.0, ph1, ph2, 0.0, shutter=True)
        if z1 == z0:
            raise ConfigError("reference arm does not reach det0; cannot balance")
        w = -z0 / (z1 - z0)
        t, ph3 = abs(w), cmath.phase(w)
        if not 0.0 < t <= 1.0:
            raise ConfigError(
                f"no balancing attenuation in (0, 1]: would need t = {t:.6g}")
        residual = abs(_det0_amp(cfg, t, ph1, ph2, ph3, shutter=True))
        if residual > 1e-10:
            raise ConfigError(
                f"balance solve left det0 amplitude {residual:.3e} on the "
                "shuttered bench")
    else:
        t = float(cfg.attenuator_t)
        ph3 = _dark_phase(*_two_probe(
            lambda p: _det0_amp(cfg, t, ph1, ph2, p, shutter=True)))
    return Tuning(t, ph1, ph2, ph3)


@lru_cache(maxsize=RESULT_CACHE_SIZE)
def calibration_tuning(cfg: DeviceConfig) -> Tuning:
    """All-bright settings: inner passes on the bright fringe, det0 maximal.

    Keeps the operational attenuation so calibration and operation share the
    same reference power.
    """
    op = solve_tuning(cfg)
    ph1 = op.phase_inner_first + math.pi
    ph2 = op.phase_inner_second + math.pi
    ph3 = _bright_phase(*_two_probe(
        lambda p: _det0_amp(cfg, op.attenuator_t, ph1, ph2, p, shutter=False)))
    return Tuning(op.attenuator_t, ph1, ph2, ph3)


def preset_tuning(cfg: DeviceConfig, preset: str) -> Tuning:
    if preset not in PRESETS:
        raise ConfigError(f"unknown preset {preset!r}; expected one of {PRESETS}")
    return calibration_tuning(cfg) if preset == "calibration" else solve_tuning(cfg)


def build_circuit(cfg: DeviceConfig, preset: str, *, include_eoms: bool = True,
                  extra_phases: Mapping[str, float] | None = None,
                  rf_phases: Mapping[str, float] | None = None) -> Circuit:
    """The unrolled bench for one preset: 'bit0', 'bit1' or 'calibration'."""
    tun = preset_tuning(cfg, preset)
    return _assemble(_r2_table(cfg), _eom_table(cfg) if include_eoms else None,
                     tun.attenuator_t, tun.phase_inner_first,
                     tun.phase_inner_second, tun.phase_reference,
                     shutter=(preset == "bit1"), extra_phases=extra_phases,
                     rf_phases=rf_phases)


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
        """Tune the physical bench for a preset.

        The folded bench has a single inner phase knob, so the two unrolled
        inner phases the tuning solve produces must agree; with the shared
        splitters they do to rounding.
        """
        tun = preset_tuning(cfg, preset)
        if abs(tun.phase_inner_first - tun.phase_inner_second) > 1e-9:
            raise ConfigError(
                "inner passes need different phases "
                f"({tun.phase_inner_first!r} vs {tun.phase_inner_second!r}); "
                "not realizable with one folded knob")
        return cls(
            outer_r2=cfg.r2("outer"),
            inner_near_r2=cfg.r2("inner_near"),
            inner_far_r2=cfg.r2("inner_far"),
            eoms=tuple(cfg.eom_at(site) for site in EOM_SITES),
            attenuator_t=tun.attenuator_t,
            inner_phase=tun.phase_inner_first,
            reference_phase=tun.phase_reference,
            shutter_closed=(preset == "bit1"),
        )


def expand_folded(dev: FoldedDevice, *, include_eoms: bool = True,
                  rf_phases: Mapping[str, float] | None = None) -> Circuit:
    """Unroll the folded bench into the explicit two-pass circuit."""
    r2 = {"outer": dev.outer_r2, "inner_near": dev.inner_near_r2,
          "inner_far": dev.inner_far_r2}
    eoms = {e.site: e for e in dev.eoms} if include_eoms else None
    return _assemble(r2, eoms, dev.attenuator_t, dev.inner_phase,
                     dev.inner_phase, dev.reference_phase,
                     shutter=dev.shutter_closed, rf_phases=rf_phases)
