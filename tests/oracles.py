"""Independent oracles for the interferometer simulator tests.

Everything in this module is computed from first principles with plain
numpy/scipy — explicit 2x2 transfer matrices, closed-form path products,
the Airy transmission formula, and binomial tails.  None of it imports the
package under test, so these values can be frozen and used to check the
real implementation.

Conventions (must match the package's fixed choice):
  * symmetric beamsplitter, ``i`` on reflection:
        [out1]   [   t        i r e^{ip}] [in1]
        [out2] = [i r e^{-ip}    t      ] [in2]
  * the photon enters the first splitter on ``in1``; ``out1`` is the
    transmitted port.
  * arm layout (unfolded): SRC -> BS0 -> {IN upper, C lower};
    IN -> BS1a -> {A1 transmitted, B1 reflected} -> BS1b -> {M1, ESC1};
    mirror M1 -> M2; M2 -> BS2a -> {A2, B2} -> BS2b -> {OUT, D1};
    (OUT, C) -> BS3 -> {D0, ESC2}.  Tuning phases sit on B1, B2 and C.

The hand-unrolled listing (:func:`bench_listing`) uses the package's arm
and splitter names instead; they map onto the names above as

    SRC  source          BS0   outer_tap (outer)       BS3   outer_merge (outer)
    IN   entry           BS1a  inner_split_1 (inner_near)
    C    reference       BS1b  inner_merge_1 (inner_far)
    A1   shutter_arm_1   BS2a  inner_split_2 (inner_far)
    B1   open_arm_1      BS2b  inner_merge_2 (inner_near)
    M1   link_1          ESC1  dump_inner
    M2   link_2          OUT   exit
    A2   shutter_arm_2   D0    det0, D1 det1
    B2   open_arm_2      ESC2  dump_exit

and the modulator sites onto them as shutter_arm -> A1/A2, open_arm ->
B1/B2, reference -> C, entry -> IN and link -> M1/M2.
"""

from __future__ import annotations

import cmath
import math
from operator import mul

import numpy as np
from scipy.optimize import brentq
from scipy.stats import binom


# --------------------------------------------------------------------------
# beamsplitter / MZI linear algebra
# --------------------------------------------------------------------------

def bs_matrix(r2: float, phase: float = 0.0) -> np.ndarray:
    """2x2 unitary of a splitter with intensity reflectivity ``r2``."""
    r = math.sqrt(r2)
    t = math.sqrt(1.0 - r2)
    e = cmath.exp(1j * phase)
    return np.array([[t, 1j * r * e], [1j * r / e, t]], dtype=complex)


def mzi_matrix(r2_first: float, r2_second: float, phase_reflected_arm: float) -> np.ndarray:
    """Transfer matrix of one MZI; the tuning phase sits on the reflected arm."""
    inner = np.diag([1.0, cmath.exp(1j * phase_reflected_arm)])
    return bs_matrix(r2_second) @ inner @ bs_matrix(r2_first)


def unitary_defect(m: np.ndarray) -> float:
    return float(np.max(np.abs(m.conj().T @ m - np.eye(m.shape[0]))))


# --------------------------------------------------------------------------
# closed-form path products for the nested device (no modulators)
# --------------------------------------------------------------------------

def balance_attenuator_t(r2_bs0=0.5, r2_1a=0.5, r2_1b=0.5, r2_2a=0.5,
                         r2_2b=0.5, r2_bs3=0.5) -> float:
    """Attenuator amplitude that nulls D0 when both blockable arms are shut.

    With the blocks in, the only interior route is the all-reflected one:
    SRC -t0-> IN -r1a-> B1 -r1b-> M1 -> M2 -r2a-> B2 -r2b-> OUT -t3-> D0,
    to be cancelled against SRC -r0-> C -t-> ... -r3-> D0.
    """
    t0 = math.sqrt(1.0 - r2_bs0)
    t3 = math.sqrt(1.0 - r2_bs3)
    r0 = math.sqrt(r2_bs0)
    r3 = math.sqrt(r2_bs3)
    rprod = math.sqrt(r2_1a * r2_1b * r2_2a * r2_2b)
    return t0 * t3 * rprod / (r0 * r3)


def p_d0_bit0(t_att: float, r2_bs0=0.5, r2_bs3=0.5) -> float:
    """Bit 0, ideal tuning: the interior chain is dark at the connecting
    mirror, so D0 sees the lower arm alone."""
    return r2_bs0 * r2_bs3 * t_att ** 2


def p_d1_bit1(r2_bs0=0.5, r2_1a=0.5, r2_1b=0.5, r2_2a=0.5, r2_2b=0.5) -> float:
    """Bit 1 (blocked): single surviving route to D1 through both B arms."""
    t0sq = 1.0 - r2_bs0
    t2bsq = 1.0 - r2_2b
    return t0sq * r2_1a * r2_1b * r2_2a * t2bsq


def calibration_d0_amp(t_att: float) -> float:
    """|D0| amplitude for the all-bright tuning, 50/50 splitters."""
    return (1.0 + t_att) / 2.0


# --------------------------------------------------------------------------
# two-state-vector traces, 50/50 device, closed form
# --------------------------------------------------------------------------
# trace(arm) = |fwd(arm) * bwd(arm)| / |ps|, with bwd the conjugated
# arm->detector transfer and ps the detector amplitude.

S2 = 1.0 / math.sqrt(2.0)


def trace_table_bit0_d0(t_att: float = 0.25) -> dict[str, float]:
    ps = t_att / 2.0                       # r0 * t * r3
    fwd_c = S2 * t_att
    bwd_c = S2
    return {
        "C": fwd_c * bwd_c / ps,           # = 1 for any t
        "IN": 0.0, "A1": 0.0, "A2": 0.0, "B1": 0.0, "B2": 0.0,
        "M1": 0.0, "M2": 0.0, "OUT": 0.0,
    }


def trace_table_bit1_d1() -> dict[str, float]:
    ps = S2 ** 5                            # t0 r1a r1b r2a t2b
    table = {
        "IN": (S2 * S2 ** 4) / ps,          # fwd t0, bwd r1a r1b r2a t2b
        "B1": (0.5 * S2 ** 3) / ps,
        "M1": (S2 ** 3 * 0.5) / ps,
        "M2": (S2 ** 3 * 0.5) / ps,
        "B2": (0.25 * S2) / ps,
        "A1": 0.0, "A2": 0.0, "C": 0.0, "OUT": 0.0,
    }
    return table


def trace_table_calibration_d0(t_att: float = 0.25) -> dict[str, float]:
    ps = (1.0 + t_att) / 2.0
    return {
        "IN": 0.5 / ps,                     # fwd t0, bwd (bright MZIs) t3
        "A1": 0.25 / ps, "B1": 0.25 / ps,
        "M1": 0.5 / ps, "M2": 0.5 / ps,
        "A2": 0.25 / ps, "B2": 0.25 / ps,
        "OUT": 0.5 / ps,
        "C": (S2 * t_att * S2) / ps,
    }


LABEL_ARMS = {"A": ("A1", "A2"), "B": ("B1", "B2"), "C": ("C",),
              "E": ("IN",), "F": ("M1", "M2")}


def sideband_strengths(trace_table: dict[str, float]) -> dict[str, float]:
    """Per-label incoherent strength: sum of squared per-pass traces.

    This is the detected sideband intensity in units of (alpha^2 x carrier
    intensity) of the same spectrum — the single-pass, full-overlap quantum.
    """
    return {lab: sum(trace_table[a] ** 2 for a in arms)
            for lab, arms in LABEL_ARMS.items()}


# --------------------------------------------------------------------------
# the generic element step
# --------------------------------------------------------------------------

def transfer(amps: dict, ins, outs, m, adjoint: bool) -> dict:
    """One linear element step on a sparse ``(arm, tag) -> amplitude`` map.

    The plain loop the package's unrolled step must equal item for item:
    for any number of ports, every output is ``sum(map(mul, row, a))``;
    tags are visited in insertion order from one feeding arm and sorted
    from several; an arm on both sides is updated in place, and an output
    exactly zero is not stored.  ``m`` has rows for the out-ports; the
    adjoint applies ``m^H`` from the out-ports back to the in-ports.
    """
    amps = dict(amps)
    if adjoint:
        src, dst = outs, ins
        m = [[x.conjugate() for x in col] for col in zip(*m)]
    else:
        src, dst = ins, outs
    if len(src) == 1:
        tags = [tag for (mode, tag) in amps if mode == src[0]]
    else:
        tags = sorted({tag for (mode, tag) in amps if mode in src})
    for tag in tags:
        a = [amps.get((mode, tag), 0j) if mode in dst
             else amps.pop((mode, tag), 0j) for mode in src]
        for mode, row in zip(dst, m):
            o = sum(map(mul, row, a))
            key = (mode, tag)
            if mode in src:
                if o != 0j:
                    amps[key] = o
                else:
                    amps.pop(key, None)
            elif o != 0j:
                amps[key] = amps.get(key, 0j) + o
    return amps


# --------------------------------------------------------------------------
# modulator passes
# --------------------------------------------------------------------------

def tag_prob(amps: dict, mode: str, label: str) -> float:
    """Intensity on one arm carrying a given modulator label.

    Sums |amplitude|^2 over both sideband signs and all passes: each pass
    writes its own bucket, so the passes add incoherently.
    """
    return sum((abs(a) ** 2 for (m, tag), a in amps.items()
                if m == mode and any(lab == label for lab, _, _ in tag)), 0.0)


def locked_rf_pass(amps: dict, mode: str, label: str, alpha: float,
                   rf_phase: float) -> dict:
    """One first-order modulator pass at a locked RF phase ``theta``.

    The carrier on ``mode`` radiates ``alpha e^{+-i theta}`` into the two
    sidebands of pass bucket 0, which every pass shares, so the passes
    interfere; sidebands pass unchanged.  Averaged over independent random
    phases per pass, the sideband intensity must equal the package's
    incoherent sum over per-pass buckets.
    """
    out = dict(amps)
    a = amps.get((mode, ()), 0j)
    for sign in (+1, -1):
        key = (mode, ((label, sign, 0),))
        out[key] = out.get(key, 0j) + alpha * cmath.exp(sign * 1j * rf_phase) * a
    return out


def order2_pass(amps: dict, mode: str, label: str, alpha: float,
                instance: int) -> dict:
    """One modulator pass of the order-2 model: every component on ``mode``
    with fewer than two kicks, carrier and one-kick alike, radiates
    ``alpha`` times its amplitude into both sidebands of this pass, in
    insertion order; two-kick components pass unchanged."""
    out = dict(amps)
    for (m, tag), a in amps.items():
        if m != mode or len(tag) >= 2 or a == 0j or alpha == 0.0:
            continue
        for sign in (+1, -1):
            key = (m, tag + ((label, sign, instance),))
            out[key] = out.get(key, 0j) + complex(alpha) * a
    return out


def order2_terminal(circuit) -> dict:
    """The order-2 walk: ``(arm, tag) -> amplitude`` after every element.

    Port maps (elements with ``m``) go through :func:`transfer`; modulators
    (elements with ``alpha``) through :func:`order2_pass`.  It is the
    reference for the package's closed-form second order.
    """
    amps: dict = {}
    for mode, a in circuit.sources:
        amps[(mode, ())] = amps.get((mode, ()), 0j) + complex(a)
    for e in circuit.elements:
        if hasattr(e, "m"):
            amps = transfer(amps, e.ins, e.outs, e.m, adjoint=False)
        else:
            amps = order2_pass(amps, e.mode, e.label, e.alpha, e.instance)
    return amps


def detector_prob(amps: dict, detector: str, kicks=(0, 1, 2)) -> float:
    """Probability on a detector arm over the tags with the given numbers
    of kicks, summed in insertion order."""
    return sum((abs(a) ** 2 for (m, tag), a in amps.items()
                if m == detector and len(tag) in kicks), 0.0)


# --------------------------------------------------------------------------
# the bench unrolled by hand
# --------------------------------------------------------------------------

def bench_listing(r2: dict, eoms: dict, attenuator_t: float, inner_phase: float,
                  reference_phase: float, shutter: bool) -> list[tuple]:
    """The nested bench unrolled, element by element in the order light
    meets them, as plain ``(name, ins, outs, m)`` tuples.

    ``r2`` maps ``outer``, ``inner_near`` and ``inner_far`` to reflectances;
    ``eoms`` maps a modulator site to ``(label, alpha)`` and is empty for a
    bench without modulators.  A modulator is listed as
    ``("modulator", (arm,), (arm,), (label, alpha, instance))``,
    with instance 2 on the second inner pass.  The mirror sends the light
    back through the inner loop, so the second pass splits at ``inner_far``
    and merges at ``inner_near``.  With ``shutter`` set, both shutter arms
    are blocked, each right after its split.
    """
    def bs(key, in1, in2, out1, out2, name):
        r, t = math.sqrt(r2[key]), math.sqrt(1.0 - r2[key])
        return (name, (in1, in2), (out1, out2), ((t, 1j * r), (1j * r, t)))

    def phase(arm, phi, name):
        return (name, (arm,), (arm,), ((cmath.exp(1j * phi),),))

    def block(arm, loss):
        return [("shutter", (arm,), (arm, loss), ((0.0,), (1.0,)))] if shutter else []

    def eom(site, arm, instance):
        if site not in eoms:
            return []
        label, alpha = eoms[site]
        return [("modulator", (arm,), (arm,), (label, alpha, instance))]

    t = attenuator_t
    return [
        bs("outer", "source", "vac_entry", "entry", "reference", "outer_tap"),
        ("attenuator", ("reference",), ("reference", "loss_attenuator"),
         ((t,), (math.sqrt(1.0 - t * t),))),
        phase("reference", reference_phase, "reference_phase"),
        *eom("reference", "reference", 1),
        *eom("entry", "entry", 1),
        bs("inner_near", "entry", "vac_inner_1", "shutter_arm_1", "open_arm_1",
           "inner_split_1"),
        *block("shutter_arm_1", "loss_shutter_1"),
        *eom("shutter_arm", "shutter_arm_1", 1),
        phase("open_arm_1", inner_phase, "inner_phase_1"),
        *eom("open_arm", "open_arm_1", 1),
        bs("inner_far", "shutter_arm_1", "open_arm_1", "link_1", "dump_inner",
           "inner_merge_1"),
        *eom("link", "link_1", 1),
        ("mirror", ("link_1",), ("link_2",), ((1.0,),)),
        *eom("link", "link_2", 2),
        bs("inner_far", "link_2", "vac_inner_2", "shutter_arm_2", "open_arm_2",
           "inner_split_2"),
        *block("shutter_arm_2", "loss_shutter_2"),
        *eom("shutter_arm", "shutter_arm_2", 2),
        phase("open_arm_2", inner_phase, "inner_phase_2"),
        *eom("open_arm", "open_arm_2", 2),
        bs("inner_near", "shutter_arm_2", "open_arm_2", "exit", "det1",
           "inner_merge_2"),
        bs("outer", "exit", "reference", "det0", "dump_exit", "outer_merge"),
    ]


def first_order_pass(amps: dict, mode: str, label: str, alpha: float,
                     instance: int) -> dict:
    """One first-order modulator pass: the carrier on ``mode`` radiates
    ``alpha`` times its amplitude into both sidebands of this pass; tagged
    components pass unchanged."""
    out = dict(amps)
    a = amps.get((mode, ()), 0j)
    for sign in (+1, -1):
        key = (mode, ((label, sign, instance),))
        out[key] = out.get(key, 0j) + alpha * a
    return out


def listing_terminal(listing) -> dict:
    """The first-order walk of a :func:`bench_listing` from a unit photon
    on ``source``: ``(arm, tag) -> amplitude`` after the last element."""
    amps = {("source", ()): 1.0 + 0j}
    for name, ins, outs, m in listing:
        if name == "modulator":
            label, alpha, instance = m
            amps = first_order_pass(amps, ins[0], label, alpha, instance)
        else:
            amps = transfer(amps, ins, outs, m, adjoint=False)
    return amps


def two_state_terminal(listing, sources, detector: str) -> tuple[complex, dict]:
    """The carrier and the first-order sideband amplitudes at ``detector``
    from the two walks alone, the weak-value identity: the carrier is the
    forward carrier walk's, and tag ``t`` collects, over the modulator
    passes ``k`` that write it, ``alpha_k F[k][arm_k] conj(B[k][arm_k])``.

    ``F[k]`` is the carrier-only forward walk of a :func:`bench_listing`
    from ``sources`` just before element ``k``, and ``B[k]`` the backward
    walk from a unit carrier on ``detector``, by adjoint :func:`transfer`
    steps, at the same cut; a modulator is the identity on both.  Passes
    that share a label, sign and instance add coherently.
    """
    amps: dict = {}
    for mode, a in sources:
        amps[(mode, ())] = amps.get((mode, ()), 0j) + complex(a)
    forward = []
    for name, ins, outs, m in listing:
        forward.append(amps)
        if name != "modulator":
            amps = transfer(amps, ins, outs, m, adjoint=False)
    carrier = amps.get((detector, ()), 0j)
    backward = {(detector, ()): 1.0 + 0j}
    tags: dict = {}
    for k in reversed(range(len(listing))):
        name, ins, outs, m = listing[k]
        if name == "modulator":
            label, alpha, instance = m
            arm = (ins[0], ())
            w = alpha * forward[k].get(arm, 0j) * backward.get(arm, 0j).conjugate()
            for sign in (+1, -1):
                tag = ((label, sign, instance),)
                tags[tag] = tags.get(tag, 0j) + w
        else:
            backward = transfer(backward, ins, outs, m, adjoint=True)
    return carrier, tags


# --------------------------------------------------------------------------
# etalons
# --------------------------------------------------------------------------

def airy(fsr: float, linewidth: float, detuning: float) -> float:
    finesse = fsr / linewidth
    s = math.sin(math.pi * detuning / fsr)
    return 1.0 / (1.0 + (2.0 * finesse / math.pi) ** 2 * s * s)


def cascade_profile(etalons, raw_linewidth):
    def profile(d):
        p = 1.0 / (1.0 + (2.0 * d / raw_linewidth) ** 2)
        for fsr, lw in etalons:
            p *= airy(fsr, lw, d)
        return p
    return profile


def cascade_fwhm(etalons, raw_linewidth=1000.0) -> float:
    prof = cascade_profile(etalons, raw_linewidth)
    half = prof(0.0) / 2.0
    hi = min(lw for _, lw in etalons)
    while prof(hi) > half:
        hi *= 2.0
    return 2.0 * brentq(lambda d: prof(d) - half, 0.0, hi, xtol=1e-12)


def cascade_worst_sidepeak(etalons, raw_linewidth=1000.0,
                           window=None, exclusion=1.0, step=0.002) -> float:
    """Largest transmission of the cascade away from the central peak."""
    prof = cascade_profile(etalons, raw_linewidth)
    if window is None:
        window = max(fsr for fsr, _ in etalons) / 2.0
    grid = np.arange(exclusion, window + step, step)
    return float(max(prof(d) for d in grid))


def noisy_counts(expected, seed: int):
    """Poisson count and 100-replica error bar per scan point, drawn one
    point at a time from ``SeedSequence(seed, spawn_key=(label, j))``
    streams: label 0 for the count, label 1 for the replicas."""
    def stream(label, j):
        return np.random.Generator(np.random.Philox(
            np.random.SeedSequence(seed, spawn_key=(label, j))))

    intensity = np.empty_like(expected)
    stderr = np.empty_like(expected)
    for j, mu in enumerate(expected):
        intensity[j] = stream(0, j).poisson(mu)
        stderr[j] = float(np.std(stream(1, j).poisson(mu, size=100), ddof=1))
    return intensity, stderr


# --------------------------------------------------------------------------
# channel coding
# --------------------------------------------------------------------------

def majority_error(k_clicks: int, p_wrong: float) -> float:
    """P(majority of k clicks is wrong)."""
    return float(binom.sf(k_clicks // 2, k_clicks, p_wrong))


def erasure_prob(p_click: float, trials: int) -> float:
    return (1.0 - p_click) ** trials


def two_path_contrast(visibility: float) -> float:
    """Fringe contrast of a balanced two-path loop at the given visibility.

    The sector model mixes the coherent fringe with weight ``visibility``
    and its drift average with the rest; the mixture's contrast is then
    exactly ``visibility``, so a fitted visibility is directly the fringe
    contrast an experimenter would quote.
    """
    def fringe(phi: float) -> float:
        # (1 + cos)/2 over one drift period averages to exactly 1/2
        coherent = abs(0.5 * (1.0 + math.cos(phi))) ** 2 + (0.5 * math.sin(phi)) ** 2
        return visibility * coherent + (1.0 - visibility) * 0.5

    bright, dark = fringe(0.0), fringe(math.pi)
    return (bright - dark) / (bright + dark)


# --------------------------------------------------------------------------
# dephasing sectors (50/50, operational tuning, t = 1/4, no modulators)
# --------------------------------------------------------------------------
# Inner dephasing: one random phase D common to both blockable arms (the
# folded bench has a single physical inner MZI, traversed twice within the
# drift time).  Outer dephasing: random phase on C.  Averages below are
# over the uniform phase; they follow from the same path products.

SECTORS_BIT0 = {
    "cc": (1.0 / 64.0, 0.0),
    "dc": (5.0 / 64.0, 1.0 / 16.0),
    "cd": (1.0 / 64.0, 0.0),
    "dd": (7.0 / 64.0, 1.0 / 16.0),
}
SECTORS_BIT1 = {
    "cc": (0.0, 1.0 / 32.0),
    "dc": (0.0, 1.0 / 32.0),
    "cd": (1.0 / 32.0, 1.0 / 32.0),
    "dd": (1.0 / 32.0, 1.0 / 32.0),
}


#: equispaced points per drift average: exact for harmonics below 16
PHASE_GRID = 16


def grid_sectors(probs) -> dict[str, tuple[float, float]]:
    """The four drift sectors as equispaced phase-grid averages.

    ``probs(delta, theta)`` gives the (det0, det1) probabilities with the
    inner drift phase ``delta`` on both blockable arms and the outer drift
    phase ``theta`` on the lower arm C.  A detector probability holds
    harmonics up to 2 in ``delta`` and 1 in ``theta``, so the 16-point
    average is exact; it is the brute-force reference for the sector model.
    """
    grid = [2.0 * math.pi * k / PHASE_GRID for k in range(PHASE_GRID)]

    def mean(points) -> tuple[float, float]:
        vals = np.array([probs(d, t) for d, t in points])
        return tuple(vals.sum(axis=0) / len(vals))

    return {"cc": tuple(probs(0.0, 0.0)),
            "dc": mean((d, 0.0) for d in grid),
            "cd": mean((0.0, t) for t in grid),
            "dd": mean((d, t) for d in grid for t in grid)}


def mixture_probs(sectors, v_inner: float, v_outer: float) -> tuple[float, float]:
    w = {"cc": v_inner * v_outer, "dc": (1 - v_inner) * v_outer,
         "cd": v_inner * (1 - v_outer), "dd": (1 - v_inner) * (1 - v_outer)}
    p0 = sum(w[s] * sectors[s][0] for s in w)
    p1 = sum(w[s] * sectors[s][1] for s in w)
    return p0, p1


def err_rates(v_inner: float, v_outer: float) -> tuple[float, float]:
    """Conditional error rates (err0, err1) of the dephased channel."""
    p0 = mixture_probs(SECTORS_BIT0, v_inner, v_outer)
    p1 = mixture_probs(SECTORS_BIT1, v_inner, v_outer)
    err0 = p0[1] / (p0[0] + p0[1])
    err1 = p1[0] / (p1[0] + p1[1])
    return err0, err1


def root_search_fit(rates, err0: float, err1: float) -> tuple[float, float]:
    """The visibility fit by bracketed root search, for any bench.

    ``rates(v_inner, v_outer)`` gives the model's (err0, err1).  The outer
    visibility is the root of ``rates(1, vo)[1] - err1`` and the inner the
    root of ``rates(vi, vo)[0] - err0``, each by ``brentq`` on [0, 1] to
    ``xtol=1e-15``.  Raises ``ValueError`` where no visibility fits: a rate
    outside [0, 1), above the fully dephased end of its loop, or (from
    ``brentq``) on the same side of ``err`` at both ends.
    """
    if not 0.0 <= err0 < 1.0 or not 0.0 <= err1 < 1.0:
        raise ValueError("error rates must be in [0, 1)")

    def f_outer(vo):
        return rates(1.0, vo)[1] - err1

    if f_outer(0.0) < 0.0:
        raise ValueError("err1 exceeds the fully dephased outer loop")
    vo = float(brentq(f_outer, 0.0, 1.0, xtol=1e-15))

    def f_inner(vi):
        return rates(vi, vo)[0] - err0

    if f_inner(0.0) < 0.0:
        raise ValueError("err0 exceeds the fully dephased inner loop")
    return float(brentq(f_inner, 0.0, 1.0, xtol=1e-15)), vo


def fitted_visibilities(target_err0: float, target_err1: float) -> tuple[float, float]:
    """Closed-form inversion of err_rates for the 50/50 device.

    err1 = (1-Vo)/(2-Vo)  ->  Vo = (1-2 e1)/(1-e1)
    err0 = (x/16)/(x/16 + P0),  P0 = (1 + x(6-2 Vo))/64,  x = 1-Vi
         ->  x = e0 / (4(1-e0) - e0 (6-2 Vo))
    """
    vo = (1.0 - 2.0 * target_err1) / (1.0 - target_err1)
    x = target_err0 / (4.0 * (1.0 - target_err0) - target_err0 * (6.0 - 2.0 * vo))
    return 1.0 - x, vo
