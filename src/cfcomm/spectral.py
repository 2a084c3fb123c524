"""Etalon filters, detected spectra with counting noise, and peak extraction.

The scanning analysis is modelled as a tunable etalon swept across the
detected light: the expected count rate at scan offset ``d`` is the sum of
the incoherent spectral components at the detector, each weighted by the
etalon's Airy transmission at its distance from ``d``.  Counting noise is
Poisson per scan point, with error bars estimated from independent
Monte-Carlo replicas.  Point ``j`` draws its count from ``substream(seed,
0, j)`` and its replicas from ``substream(seed, 1, j)``, so results do not
depend on evaluation order or thread; one
:func:`~cfcomm.rand.point_poisson` call draws both for the points of a
read, from the calling thread's re-keyed Philox.  A spectrum is a
read-only value of its grid, expected counts and noise seed; a noisy one
draws its counts when they are read, and only at the points read: peak
extraction draws the carrier and sideband points, a full read the whole
grid, once.  Scans of the same light through the same etalon on the same
grid, noisy or not, share one cached, read-only table of grid and
expected counts.  A scan grid holds at most ``MAX_SCAN_POINTS`` points.

The worst side peak of a source cascade is searched on a fine grid, but the
profile is evaluated only where it could reach it: an upper bound per block
of the grid, from the monotone Lorentzian and from each Airy factor's
endpoint values away from its comb, rules the other blocks out exactly.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from types import MappingProxyType

import numpy as np

from .errors import ConfigError, TopologyError
from .optics import RESULT_CACHE_SIZE, PhotonState, detuning_ghz
from .rand import check_seed, point_poisson

#: peaks must clear this many local-baseline standard errors to count as present
PRESENCE_SIGMA = 5.0
#: absolute floor relative to the carrier, for noise-free spectra
PRESENCE_REL_FLOOR = 1e-9
#: largest mean numpy's Poisson sampler accepts (its int64 bound)
POISSON_LAM_MAX = 2**63 - 1 - 10 * math.sqrt(2**63 - 1)
#: most points a scan grid may hold; keeps every point index one 32-bit
#: SeedSequence word, the (points, 100) replicas of a noisy scan read in
#: full near 50 MB (counts are drawn when read, peak extraction draws few)
#: and each (components, points) array of a scan's transmission near 9 MB
#: for the 17 components a bench sends to one detector at most (a few are
#: live at once: about 35 MB at this many points, below a noisy full read)
MAX_SCAN_POINTS = 2**16
#: most points of the side-peak grid, 2 MHz apart: source etalons with an
#: FSR up to about 4.2 THz; the profile is evaluated only on the blocks of
#: this grid that its bound cannot rule out
MAX_SIDEPEAK_POINTS = 2**20
#: side-peak grid points per block of the bounded search
_BLOCK = 256


@dataclass(frozen=True)
class Etalon:
    """Resonant filter with periodic Airy transmission."""

    fsr_ghz: float
    linewidth_ghz: float

    def __post_init__(self):
        # a finesse up to 1e150 keeps the Airy coefficient (2F/pi)^2 finite
        if not (self.fsr_ghz > self.linewidth_ghz > 0.0 and self.finesse <= 1e150):
            raise ConfigError(
                f"etalon needs fsr > linewidth > 0 and finesse <= 1e150, got "
                f"fsr={self.fsr_ghz}, linewidth={self.linewidth_ghz}")

    @property
    def finesse(self) -> float:
        return self.fsr_ghz / self.linewidth_ghz

    def transmission(self, detuning_ghz: float | np.ndarray) -> float | np.ndarray:
        """Airy transmission T(d) = 1 / (1 + (2F/pi)^2 sin^2(pi d / FSR)),
        of a float or elementwise of an array."""
        s = np.sin(math.pi * detuning_ghz / self.fsr_ghz)
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
    comb coincidences starts over, on at most ``MAX_SIDEPEAK_POINTS``
    points 2 MHz apart.

    The search is a branch and bound over blocks of that grid, and exact.
    On a block ``[a, b]`` the Lorentzian is largest at ``a``, and each Airy
    factor is 1 if a multiple of its FSR lies in the block and otherwise
    largest at ``a`` or ``b``, since its ``sin^2`` has no zero there.  The
    product of these maxima bounds the profile on the block.  Only blocks
    whose bound reaches the maximum of the block with the highest bound are
    evaluated; every other point lies strictly below that maximum, so the
    worst side peak is the first maximum of the full grid.
    """
    etalons = tuple(etalons)
    if not etalons:
        raise ConfigError("need at least one source etalon")
    if raw_linewidth_ghz <= 0.0:
        raise ConfigError("raw source linewidth must be positive")
    window = max(e.fsr_ghz for e in etalons) / 2.0
    if not exclusion_ghz < window <= exclusion_ghz + 0.002 * MAX_SIDEPEAK_POINTS:
        raise ConfigError(
            f"largest source FSR {2.0 * window} GHz out of range: the side-peak "
            f"search from {exclusion_ghz} GHz to half of it must be non-empty "
            f"and take at most {MAX_SIDEPEAK_POINTS} points 2 MHz apart")
    if not 2.0 * window / raw_linewidth_ghz <= 1e150:  # keeps its square finite
        raise ConfigError(f"raw source linewidth {raw_linewidth_ghz} GHz is too "
                          f"narrow to evaluate out to {window} GHz")

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
    # profile(lo) > half >= profile(hi) and stops once the midpoint rounds
    # onto an end, after which no step would change either
    mid = 0.5 * (lo + hi)
    while mid != lo and mid != hi:
        if profile(mid) > half:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    fwhm = lo + hi

    if exclusion_ghz <= 2.0 * fwhm:
        raise ConfigError("side-peak exclusion zone must clear the central line")
    grid = np.arange(exclusion_ghz, window + 0.002, 0.002)
    # bound the profile on each block [a, b] of the grid from above: the
    # Lorentzian falls with d, so it peaks at a; an Airy factor reaches 1
    # at a multiple of its FSR, and between two of them its sin^2 has no
    # zero, so it peaks at a or b
    starts = np.arange(0, grid.size, _BLOCK)
    a = grid[starts]
    b = grid[np.minimum(starts + _BLOCK - 1, grid.size - 1)]
    bound = 1.0 / (1.0 + (2.0 * a / raw_linewidth_ghz) ** 2)
    ends = np.stack((a, b))
    for e in etalons:
        # widened by 1e-9 FSR, far beyond the rounding of d / FSR, so that a
        # multiple on an end is never missed
        comb = np.floor(b / e.fsr_ghz + 1e-9) >= np.ceil(a / e.fsr_ghz - 1e-9)
        bound *= np.where(comb, 1.0, e.transmission(ends).max(axis=0))
    # the block of the highest bound sets a floor on the worst side peak;
    # every block whose bound could reach it is evaluated, in grid order, so
    # the first maximum of these points is the first maximum of the grid.
    # The slack is far above the rounding of the bounds.
    top = starts[np.argmax(bound)]
    best = profile(grid[top:top + _BLOCK]).max()
    blocks = starts[bound * (1.0 + 1e-6) >= best]
    kept = (blocks[:, None] + np.arange(_BLOCK)).ravel()
    kept = kept[kept < grid.size]
    vals = profile(grid[kept])
    i = int(np.argmax(vals))
    k = int(kept[i])
    worst = float(vals[i]) / peak
    if worst == 0.0:
        raise ConfigError("the cascade's side peaks underflow to zero: their "
                          "suppression is beyond the float range")
    return CascadeReport(
        effective_linewidth_ghz=fwhm,
        sidepeak_suppression_db=-10.0 * math.log10(worst),
        worst_sidepeak_ghz=float(grid[k]),
        window_ghz=window,
    )


# --------------------------------------------------------------------------
# detected spectra
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Spectrum:
    """Expected counts vs. scan detuning, read with counting noise.

    A read-only value: no field rebinds and no array takes a write (the
    caller's arrays are copied).  Without a ``seed`` the counts are the
    expected ones with zero error bars.  A noisy scan draws its counts when
    they are read, each point from substreams of its own: :meth:`counts`
    draws only the points asked for, ``intensity`` and ``stderr`` the whole
    grid once, which later reads index.
    """

    detuning_ghz: np.ndarray
    expected: np.ndarray
    detector: str
    scan_etalon: Etalon
    seed: int | None = None

    def __post_init__(self):
        grid = np.array(self.detuning_ghz, dtype=float)
        expected = np.array(self.expected, dtype=float)
        if grid.ndim != 1 or grid.size < 2:
            raise ConfigError(f"a spectrum needs a 1-D grid of at least 2 "
                              f"points, got shape {grid.shape}")
        if expected.shape != grid.shape:
            raise ConfigError(f"spectrum expected counts must have the grid's "
                              f"shape {grid.shape}, got {expected.shape}")
        if np.any(np.diff(grid) <= 0):
            raise ConfigError("spectrum detunings must be strictly increasing")
        if np.any(expected < 0):
            raise ConfigError("spectrum expected counts must be non-negative")
        if self.seed is not None and expected.max() > POISSON_LAM_MAX:
            raise ConfigError(
                f"expected count {expected.max():.3g} exceeds the Poisson "
                f"sampler's limit {POISSON_LAM_MAX:.3g}; lower the photon number")
        for name, a in (("detuning_ghz", grid), ("expected", expected)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    def counts(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Counts and error bars at the grid indices ``points``."""
        full = self.__dict__.get("_full_read")  # there once a full read is made
        if full is not None:
            return full[0][points], full[1][points]
        lam = self.expected[points]
        if self.seed is None:
            return lam, np.zeros_like(lam)
        counts, replicas = point_poisson(self.seed, points, lam, 100)
        return counts.astype(float), np.std(replicas, axis=1, ddof=1)

    @cached_property
    def _full_read(self) -> tuple[np.ndarray, np.ndarray]:
        intensity, stderr = self.counts(np.arange(self.expected.size))
        intensity.flags.writeable = stderr.flags.writeable = False
        return intensity, stderr

    @property
    def intensity(self) -> np.ndarray:
        return self._full_read[0]

    @property
    def stderr(self) -> np.ndarray:
        return self._full_read[1]

    def to_csv(self, path) -> None:
        try:
            with open(path, "w", newline="") as fh:
                fh.write("detuning_ghz,intensity,stderr\n")
                for d, y, s in zip(self.detuning_ghz, self.intensity, self.stderr):
                    fh.write(f"{float(d)!r},{float(y)!r},{float(s)!r}\n")
        except OSError as exc:
            raise ConfigError(f"cannot write spectrum {path}: {exc}") from None

    def nearest_indices(self, detunings) -> np.ndarray:
        """The grid index nearest each detuning, the first on a tie.

        A detuning more than about half a step off the grid, or NaN, is
        refused."""
        detunings = np.asarray(detunings, dtype=float)
        gap = np.abs(self.detuning_ghz - detunings[:, None])
        idx = np.argmin(gap, axis=1)
        step = float(self.detuning_ghz[1] - self.detuning_ghz[0])
        off = ~(gap[np.arange(idx.size), idx] <= 0.51 * step)
        if off.any():
            raise ConfigError(f"spectrum does not cover detuning "
                              f"{float(detunings[np.argmax(off)])} GHz")
        return idx


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
    100 further draws, all from per-point substreams of ``seed``, drawn when
    the spectrum is read (see :class:`Spectrum`).  The grid
    has ``2 x round(half_range / step) + 1`` points, at most
    ``MAX_SCAN_POINTS``.
    """
    if detector not in circuit.detectors:  # before any walk
        raise TopologyError(f"unknown detector {detector!r}")
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

    grid, expected = _scan_table(circuit, detector, scan, tuple(freqs.items()),
                                 n_half, step_ghz, photons)
    return Spectrum(grid, expected, detector, scan, seed if noise else None)


@lru_cache(maxsize=RESULT_CACHE_SIZE)
def _scan_table(circuit, detector: str, scan: Etalon, freqs: tuple,
                n_half: int, step_ghz: float, photons: float
                ) -> tuple[np.ndarray, np.ndarray]:
    """The read-only grid and expected counts of a checked scan, computed
    once for every scan of the same light through the same etalon, noisy
    or not; ``freqs`` holds the (label, GHz) items of the modulators."""
    from .circuit import propagate  # deferred: keeps module imports acyclic

    comps = detector_components(propagate(circuit), detector, dict(freqs))
    grid = np.arange(-n_half, n_half + 1, dtype=float) * step_ghz
    d = np.array([dk for dk, _ in comps])
    q = np.array([qk for _, qk in comps])
    # summed row by row, in component order; no component sums to zeros
    expected = np.add.reduce(q[:, None] * scan.transmission(grid - d[:, None]),
                             axis=0)
    expected *= photons
    grid.flags.writeable = expected.flags.writeable = False
    return grid, expected


# --------------------------------------------------------------------------
# peak extraction
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class PeakEntry:
    present: bool
    height: float
    height_over_calibration: float | None


@dataclass(frozen=True)
class PeakTable:
    """Per-label peak decisions plus the carrier height of the spectrum.

    ``height_over_calibration`` expresses a peak in calibration units: the
    height a single pass with full forward/backward overlap would produce,
    i.e. ``height / (alpha_label^2 x carrier height)`` of the same spectrum.
    A doubly-traversed modulator with unit overlap on both passes reads 2.0
    in this unit.  The table and its ``labels`` (a copy) are read-only.
    """

    labels: Mapping[str, PeakEntry] = field(default_factory=dict)
    carrier_height: float = 0.0
    detector: str = ""
    tuning: str = ""

    def __post_init__(self):
        object.__setattr__(self, "labels", MappingProxyType(dict(self.labels)))

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
    # each position's grid point, found once for the heights and error bars
    idx = s.nearest_indices(positions)
    # two positions on one point make two equal rows of the solve below:
    # refused before it, and before any draw
    first = {}
    for pos, k in zip(positions, idx.tolist()):
        if k in first:
            raise ConfigError(f"peak positions {first[k]} and {pos} GHz fall on "
                              f"one scan point; their heights cannot be told apart")
        first[k] = pos
    y, err = s.counts(idx)
    # The measured spectrum is a sum of one Airy line per component, so the
    # intensities at the component positions form a small linear system
    # whose solution removes every peak's tail from every other peak: this
    # is the baseline subtraction.
    a = s.scan_etalon.transmission(s.detuning_ghz[idx][:, None]
                                   - np.array(positions))
    heights = np.linalg.solve(a, y)
    carrier = float(heights[0])

    if calibration is not None:
        missing = [lab for lab in labels if lab not in calibration.labels]
        if missing:
            raise ConfigError(
                f"calibration table lacks labels {missing}; cannot form ratios")
        if calibration.carrier_height <= 0.0:
            raise ConfigError("calibration table has no carrier reference")

    entries = {}
    for i, lab in enumerate(labels):
        h_up = float(heights[1 + 2 * i])
        h_dn = float(heights[2 + 2 * i])
        height = 0.5 * (h_up + h_dn)
        local_err = 0.5 * math.hypot(float(err[1 + 2 * i]), float(err[2 + 2 * i]))
        floor = max(PRESENCE_SIGMA * local_err, PRESENCE_REL_FLOOR * abs(carrier))
        ratio = None
        if calibration is not None and carrier > 0.0:
            unit = alpha[lab] ** 2 * carrier
            ratio = height / unit if unit > 0.0 else 0.0
        entries[lab] = PeakEntry(present=height > floor, height=height,
                                 height_over_calibration=ratio)
    return PeakTable(entries, carrier, s.detector)
