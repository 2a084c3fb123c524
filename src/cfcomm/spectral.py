"""Etalon filters, detected spectra with counting noise, and peak extraction.

The scanning analysis is modelled as a tunable etalon swept across the
detected light: the expected count rate at scan offset ``d`` is the sum of
the incoherent spectral components at the detector, each weighted by the
etalon's Airy transmission at its distance from ``d``.  Counting noise is
Poisson per scan point, with error bars estimated from independent
Monte-Carlo replicas.  Point ``j`` draws its count from ``substream(seed,
0, j)`` and its replicas from ``substream(seed, 1, j)``, so results do not
depend on evaluation order; :func:`~cfcomm.rand.point_poisson` draws them
all from one re-keyed Philox.  A scan grid holds at most
``MAX_SCAN_POINTS`` points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, TopologyError
from .optics import PhotonState, detuning_ghz
from .rand import check_seed, point_poisson

#: peaks must clear this many local-baseline standard errors to count as present
PRESENCE_SIGMA = 5.0
#: absolute floor relative to the carrier, for noise-free spectra
PRESENCE_REL_FLOOR = 1e-9
#: largest mean numpy's Poisson sampler accepts (its int64 bound)
POISSON_LAM_MAX = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)
#: most points a scan grid may hold; keeps every point index one 32-bit
#: SeedSequence word and the noisy path's (points, 100) replicas near 50 MB
MAX_SCAN_POINTS = 2**16


@dataclass(frozen=True)
class Etalon:
    """Resonant filter with periodic Airy transmission."""

    fsr_ghz: float
    linewidth_ghz: float
    center_offset_ghz: float = 0.0

    def __post_init__(self):
        if not self.fsr_ghz > self.linewidth_ghz > 0.0:
            raise ConfigError(
                f"etalon needs fsr > linewidth > 0, got fsr={self.fsr_ghz}, "
                f"linewidth={self.linewidth_ghz}")

    @property
    def finesse(self) -> float:
        return self.fsr_ghz / self.linewidth_ghz

    def transmission(self, detuning_ghz: float | np.ndarray) -> float | np.ndarray:
        """Airy transmission T(d) = 1 / (1 + (2F/pi)^2 sin^2(pi d / FSR)),
        of a float or elementwise of an array."""
        s = np.sin(math.pi * (detuning_ghz - self.center_offset_ghz) / self.fsr_ghz)
        return 1.0 / (1.0 + (2.0 * self.finesse / math.pi) ** 2 * s * s)


# --------------------------------------------------------------------------
# source filtering
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class CascadeReport:
    """Effective line of a broadband source behind a stack of etalons."""

    effective_linewidth_ghz: float
    sidepeak_suppression_db: float
    worst_sidepeak_ghz: float
    window_ghz: float


def source_filter_cascade(etalons, raw_linewidth_ghz: float, *,
                          exclusion_ghz: float = 1.0) -> CascadeReport:
    """Dominant-peak linewidth and worst side-peak leakage of the cascade.

    The raw source is taken as a Lorentzian of the given FWHM; the cascade
    profile is its product with every etalon's Airy transmission.  Side
    peaks are searched from ``exclusion_ghz`` (past the central line) out
    to half the largest FSR of the stack, beyond which the pattern of
    comb coincidences starts over.
    """
    etalons = tuple(etalons)
    if not etalons:
        raise ConfigError("need at least one source etalon")
    if raw_linewidth_ghz <= 0.0:
        raise ConfigError("raw source linewidth must be positive")

    def profile(d):
        p = 1.0 / (1.0 + (2.0 * d / raw_linewidth_ghz) ** 2)
        for e in etalons:
            p *= e.transmission(d)
        return p

    peak = profile(0.0)
    half = peak / 2.0
    hi = min(e.linewidth_ghz for e in etalons)
    while profile(hi) > half:
        hi *= 2.0
    lo = 0.0
    # bisection on the monotone flank of the central peak; it keeps
    # profile(lo) > half >= profile(hi), so once the midpoint rounds onto
    # an end no further step changes either
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if profile(mid) > half:
            lo = mid
        else:
            hi = mid
    fwhm = lo + hi

    window = max(e.fsr_ghz for e in etalons) / 2.0
    if exclusion_ghz <= 2.0 * fwhm:
        raise ConfigError("side-peak exclusion zone must clear the central line")
    grid = np.arange(exclusion_ghz, window + 0.002, 0.002)
    vals = profile(grid)
    k = int(np.argmax(vals))
    worst = float(vals[k]) / peak
    return CascadeReport(
        effective_linewidth_ghz=fwhm,
        sidepeak_suppression_db=-10.0 * math.log10(worst),
        worst_sidepeak_ghz=float(grid[k]),
        window_ghz=window,
    )


# --------------------------------------------------------------------------
# detected spectra
# --------------------------------------------------------------------------

@dataclass
class Spectrum:
    """Sampled detected intensity vs. scan detuning, with counting errors."""

    detuning_ghz: np.ndarray
    intensity: np.ndarray
    stderr: np.ndarray
    detector: str
    scan_etalon: Etalon
    tuning: str = ""

    def __post_init__(self):
        if np.any(np.diff(self.detuning_ghz) <= 0):
            raise ConfigError("spectrum detunings must be strictly increasing")
        if np.any(self.intensity < 0):
            raise ConfigError("spectrum intensities must be non-negative")

    def to_csv(self, path) -> None:
        try:
            with open(path, "w", newline="") as fh:
                fh.write("detuning_ghz,intensity,stderr\n")
                for d, y, s in zip(self.detuning_ghz, self.intensity, self.stderr):
                    fh.write(f"{float(d)!r},{float(y)!r},{float(s)!r}\n")
        except OSError as exc:
            raise ConfigError(f"cannot write spectrum {path}: {exc}") from None

    def nearest_index(self, detuning: float) -> int:
        i = int(np.argmin(np.abs(self.detuning_ghz - detuning)))
        step = float(self.detuning_ghz[1] - self.detuning_ghz[0])
        if abs(float(self.detuning_ghz[i]) - detuning) > 0.51 * step:
            raise ConfigError(f"spectrum does not cover detuning {detuning} GHz")
        return i


def detector_components(state: PhotonState, detector_mode: str,
                        freqs) -> list[tuple[float, float]]:
    """Incoherent spectral components (detuning, intensity) at one arm.

    Distinct tags are distinct buckets, so same-frequency components from
    different modulator passes contribute separate intensity terms.
    """
    comps: list[tuple[float, float]] = []
    for tag, amp in state.components(detector_mode):
        p = abs(amp) ** 2
        if p > 0.0:
            comps.append((detuning_ghz(tag, freqs), p))
    return comps


def scan_spectrum(circuit, detector: str, scan: Etalon, eoms, *,
                  half_range_ghz: float = 4.0, step_ghz: float = 0.05,
                  photons: float = 1e6, seed: int = 0,
                  noise: bool = True) -> Spectrum:
    """Sweep the scanning etalon across the light arriving at a detector.

    Expected counts at offset ``d`` are ``N x sum_k q_k T(d - d_k)`` over the
    incoherent components ``(d_k, q_k)``.  With ``noise`` on, each point is
    one Poisson draw and its error bar is the standard deviation of
    100 further draws, all from per-point substreams of ``seed``.  The grid
    has ``2 x round(half_range / step) + 1`` points, at most
    ``MAX_SCAN_POINTS``.
    """
    from .circuit import propagate  # deferred: keeps module imports acyclic

    if not 0.0 < photons < math.inf:
        raise ConfigError(f"photon number must be positive and finite, got {photons}")
    check_seed(seed)  # noise-free scans too: one seed range everywhere
    if not 0.0 < step_ghz <= scan.linewidth_ghz / 2.0:
        raise ConfigError(
            f"scan step {step_ghz} GHz cannot resolve the {scan.linewidth_ghz} GHz "
            "analysis line (need 0 < step <= linewidth / 2)")
    if not step_ghz <= half_range_ghz < math.inf:
        raise ConfigError(f"scan half-range must be finite and at least the step "
                          f"{step_ghz} GHz, got {half_range_ghz}")
    # capped first: a huge half-range over a tiny step overflows to inf
    n_half = int(round(min(half_range_ghz / step_ghz, MAX_SCAN_POINTS)))
    if 2 * n_half + 1 > MAX_SCAN_POINTS:
        raise ConfigError(
            f"scan of +-{half_range_ghz} GHz in {step_ghz} GHz steps needs more "
            f"than {MAX_SCAN_POINTS} points; raise the step or narrow the range")

    freqs = {e.label: e.freq_ghz for e in eoms}
    if freqs and half_range_ghz < max(freqs.values()):
        warnings.warn(
            f"scan range +-{half_range_ghz} GHz is smaller than the highest "
            f"modulation frequency {max(freqs.values())} GHz; peaks will fall "
            "outside the window", stacklevel=2)

    terminal = propagate(circuit)
    det_mode = circuit.detectors.get(detector)
    if det_mode is None:
        raise TopologyError(f"unknown detector {detector!r}")
    comps = detector_components(terminal, det_mode, freqs)

    grid = np.arange(-n_half, n_half + 1, dtype=float) * step_ghz
    expected = np.zeros_like(grid)
    for dk, qk in comps:
        expected += qk * scan.transmission(grid - dk)
    expected *= photons

    if noise:
        if expected.max() > POISSON_LAM_MAX:
            raise ConfigError(
                f"expected count {expected.max():.3g} exceeds the Poisson "
                f"sampler's limit {POISSON_LAM_MAX:.3g}; lower the photon number")
        intensity = point_poisson(seed, 0, expected).astype(float)
        stderr = np.std(point_poisson(seed, 1, expected, 100), axis=1, ddof=1)
    else:
        intensity = expected.copy()
        stderr = np.zeros_like(expected)

    return Spectrum(detuning_ghz=grid, intensity=intensity, stderr=stderr,
                    detector=detector, scan_etalon=scan)


# --------------------------------------------------------------------------
# peak extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakEntry:
    present: bool
    height: float
    height_over_calibration: float | None


@dataclass
class PeakTable:
    """Per-label peak decisions plus the carrier height of the spectrum.

    ``height_over_calibration`` expresses a peak in calibration units: the
    height a single pass with full forward/backward overlap would produce,
    i.e. ``height / (alpha_label^2 x carrier height)`` of the same spectrum.
    A doubly-traversed modulator with unit overlap on both passes reads 2.0
    in this unit.
    """

    labels: dict[str, PeakEntry] = field(default_factory=dict)
    carrier_height: float = 0.0
    detector: str = ""
    tuning: str = ""

    def to_jsonable(self) -> dict:
        return {
            "detector": self.detector,
            "tuning": self.tuning,
            "carrier_height": self.carrier_height,
            "labels": {
                lab: {
                    "present": e.present,
                    "height": e.height,
                    "height_over_calibration": e.height_over_calibration,
                }
                for lab, e in sorted(self.labels.items())
            },
        }


def _unmix_heights(s: Spectrum, positions: list[float]) -> np.ndarray:
    """Solve for component heights with the known Airy line shape.

    The measured spectrum is a sum of one Airy line per component, so the
    intensities at the component positions form a small linear system whose
    solution removes every peak's tail from every other peak — this is the
    baseline subtraction.
    """
    idx = [s.nearest_index(p) for p in positions]
    pts = s.detuning_ghz[idx]
    a = s.scan_etalon.transmission(pts[:, None] - np.array(positions))
    y = s.intensity[idx]
    return np.linalg.solve(a, y)


def extract_peaks(s: Spectrum, eoms,
                  calibration: "PeakTable | None" = None) -> PeakTable:
    """Heights, presence decisions and calibration-unit ratios per label.

    A peak is present when its baseline-subtracted height (averaged over
    the +- pair) clears ``PRESENCE_SIGMA`` local standard errors, with an
    absolute floor of ``1e-9 x carrier`` for noise-free spectra.  Ratios
    require a calibration table (pass the table extracted from the
    all-bright spectrum) and a positive carrier of their own spectrum, the
    unit they divide by; without either they are left unset (``None``).  A
    modulator with ``alpha`` 0 has no unit of its own and reads 0.0.
    """
    eoms = list(eoms)
    labels = sorted({e.label for e in eoms})
    if len(labels) != len(eoms):
        raise ConfigError("duplicate modulator labels in peak extraction")
    freq = {e.label: e.freq_ghz for e in eoms}
    alpha = {e.label: e.alpha for e in eoms}

    positions = [0.0]
    for lab in labels:
        positions.extend((+freq[lab], -freq[lab]))
    heights = _unmix_heights(s, positions)
    carrier = float(heights[0])

    if calibration is not None:
        missing = [lab for lab in labels if lab not in calibration.labels]
        if missing:
            raise ConfigError(
                f"calibration table lacks labels {missing}; cannot form ratios")
        if calibration.carrier_height <= 0.0:
            raise ConfigError("calibration table has no carrier reference")

    table = PeakTable(carrier_height=carrier, detector=s.detector, tuning=s.tuning)
    for i, lab in enumerate(labels):
        h_up = float(heights[1 + 2 * i])
        h_dn = float(heights[2 + 2 * i])
        height = 0.5 * (h_up + h_dn)
        iu = s.nearest_index(+freq[lab])
        idn = s.nearest_index(-freq[lab])
        local_err = 0.5 * math.hypot(float(s.stderr[iu]), float(s.stderr[idn]))
        floor = max(PRESENCE_SIGMA * local_err, PRESENCE_REL_FLOOR * abs(carrier))
        ratio = None
        if calibration is not None and carrier > 0.0:
            unit = alpha[lab] ** 2 * carrier
            ratio = height / unit if unit > 0.0 else 0.0
        table.labels[lab] = PeakEntry(present=height > floor, height=height,
                                      height_over_calibration=ratio)
    return table
