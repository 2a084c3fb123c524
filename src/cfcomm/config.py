"""Device description: modulators, splitting ratios, filters, imperfections.

A :class:`DeviceConfig` is a frozen value object (hashable, so derived
results can be cached against it) describing one bench setup.  Configs are
normally loaded from JSON; :func:`reference_device` returns the packaged
reference setup.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from importlib import resources

from .errors import ConfigError
from .optics import ALPHA_MAX
from .rand import check_seed
from .spectral import Etalon

#: the three physical splitters: one closing the outer loop, two in the inner loop,
#: "near" being the inner splitter adjacent to the entry/exit side
BS_NAMES = ("outer", "inner_near", "inner_far")

#: the five modulator positions on the bench
EOM_SITES = ("entry", "reference", "shutter_arm", "open_arm", "link")

#: trial counts per bin stay well inside int64 through the decoder's sums
MAX_TRIALS_PER_BIN = 2.0 ** 62


def hash_once(self) -> int:
    """``__hash__`` of a frozen dataclass that hashes its fields once.

    Every result-cache lookup hashes its key, and a bench's fields are long
    tuples of elements; the value is kept on the instance.  Until it is,
    the instance's ``__dict__`` holds its fields alone, in field order.
    """
    h = self.__dict__.get("_hash")
    if h is None:
        h = hash(tuple(self.__dict__.values()))
        object.__setattr__(self, "_hash", h)
    return h


@dataclass(frozen=True)
class EomSpec:
    """One modulator: where it sits, its sideband label, drive, strength."""

    site: str
    label: str
    freq_ghz: float
    alpha: float

    def __post_init__(self):
        if self.site not in EOM_SITES:
            raise ConfigError(
                f"unknown modulator site {self.site!r}; expected one of {EOM_SITES}")
        if not isinstance(self.label, str) or not self.label:
            raise ConfigError(
                f"modulator label must be a non-empty string, got {self.label!r}")
        if not self.freq_ghz > 0.0:  # NaN fails it too
            raise ConfigError(f"modulator {self.label}: frequency must be positive")
        if not 0.0 <= self.alpha <= ALPHA_MAX:
            raise ConfigError(
                f"modulator {self.label}: alpha {self.alpha} outside "
                f"[0, {ALPHA_MAX}] weak-modulation range")


@dataclass(frozen=True)
class ImperfectionModel:
    """Channel imperfections: interferometer contrasts and detector figures.

    Visibilities are fringe contrasts of the two interferometer loops.
    ``dark_rate`` is the probability of a spurious click per detection bin,
    split evenly between the two detectors; ``heralding_efficiency`` is the
    end-to-end probability that a signal photon produces a click.
    """

    visibility_inner: float = 1.0
    visibility_outer: float = 1.0
    dark_rate: float = 0.0
    heralding_efficiency: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.visibility_inner <= 1.0:
            raise ConfigError("visibility_inner must be in [0, 1]")
        if not 0.0 <= self.visibility_outer <= 1.0:
            raise ConfigError("visibility_outer must be in [0, 1]")
        if not 0.0 <= self.dark_rate < 1.0:
            raise ConfigError("dark_rate must be in [0, 1)")
        if not 0.0 < self.heralding_efficiency <= 1.0:
            raise ConfigError("heralding_efficiency must be in (0, 1]")


@dataclass(frozen=True)
class DeviceConfig:
    """Complete description of one transmission bench."""

    eoms: tuple[EomSpec, ...]
    beamsplitter_r2: float | tuple[tuple[str, float], ...] = 0.5
    attenuator_t: float | str = "auto"
    source_etalons: tuple[Etalon, ...] = ()
    scan_etalon: Etalon = Etalon(8.0, 0.1)
    source_raw_linewidth_ghz: float = 1000.0
    imperfections: ImperfectionModel = field(default_factory=ImperfectionModel)
    photon_rate_hz: float = 1000.0
    bin_duration_s: float = 1.0
    seed: int = 0

    __hash__ = hash_once

    def __post_init__(self):
        labels = [e.label for e in self.eoms]
        if len(set(labels)) != len(labels):
            raise ConfigError(f"duplicate modulator labels: {labels}")
        sites = [e.site for e in self.eoms]
        if sorted(sites) != sorted(EOM_SITES):
            raise ConfigError(
                f"modulators must cover each site {EOM_SITES} exactly once, "
                f"got {sorted(sites)}")
        for name in BS_NAMES:
            r2 = self.r2(name)
            if not 0.0 < r2 < 1.0:
                raise ConfigError(f"{name}: reflectance {r2} must be in (0, 1)")
        if isinstance(self.beamsplitter_r2, tuple):
            extra = {n for n, _ in self.beamsplitter_r2} - set(BS_NAMES)
            if extra:
                raise ConfigError(f"unknown beamsplitter names: {sorted(extra)}")
        if isinstance(self.attenuator_t, str):
            if self.attenuator_t != "auto":
                raise ConfigError(
                    f"attenuator_t must be a number or 'auto', got "
                    f"{self.attenuator_t!r}")
        elif not 0.0 < self.attenuator_t <= 1.0:
            raise ConfigError(f"attenuator_t {self.attenuator_t} outside (0, 1]")
        if self.source_raw_linewidth_ghz <= 0.0:
            raise ConfigError("source_raw_linewidth_ghz must be positive")
        # every peak must be resolvable from every other; the scan etalon's
        # transmission repeats every FSR, so peaks are compared on that circle
        lw, fsr = self.scan_etalon.linewidth_ghz, self.scan_etalon.fsr_ghz
        peaks = [0.0] + [s * e.freq_ghz for e in self.eoms for s in (1.0, -1.0)]
        for i, a in enumerate(peaks):
            for b in peaks[:i]:
                gap = (a - b) % fsr
                if min(gap, fsr - gap) <= lw:
                    raise ConfigError(
                        f"sideband positions {b} and {a} GHz are closer than the "
                        f"{lw} GHz analysis linewidth modulo the {fsr} GHz scan FSR")
        if self.photon_rate_hz <= 0.0:
            raise ConfigError("photon_rate_hz must be positive")
        if self.bin_duration_s <= 0.0:
            raise ConfigError("bin_duration_s must be positive")
        trials = self.photon_rate_hz * self.bin_duration_s
        if trials < 1.0:
            raise ConfigError("a detection bin must hold at least one trial")
        if not trials <= MAX_TRIALS_PER_BIN:
            raise ConfigError(
                f"a detection bin may hold at most 2**62 trials, got {trials:g}")
        check_seed(self.seed)

    def r2(self, name: str) -> float:
        """Intensity reflectance of the named splitter."""
        if isinstance(self.beamsplitter_r2, (int, float)):
            return float(self.beamsplitter_r2)
        table = dict(self.beamsplitter_r2)
        try:
            return table[name]
        except KeyError:
            raise ConfigError(f"no reflectance configured for {name}") from None

    def eom_at(self, site: str) -> EomSpec:
        for e in self.eoms:
            if e.site == site:
                return e
        raise ConfigError(f"no modulator at site {site!r}")

    @property
    def trials_per_bin(self) -> int:
        return int(self.photon_rate_hz * self.bin_duration_s)


def _real(value, name: str) -> float:
    """A finite float from a JSON number (JSON also spells NaN and +-Infinity).

    ``true``, ``false`` and strings are not numbers, though ``float`` takes
    them.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise ConfigError(f"{name} must be a finite number, got {value!r}")
    return x


def _known_keys(obj: dict, known, where: str) -> None:
    """Refuse keys nothing reads: a misspelled one would keep its default."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(map(repr, unknown))}")


def _parse_etalon(obj) -> Etalon:
    try:
        etalon = Etalon(fsr_ghz=_real(obj["fsr_ghz"], "fsr_ghz"),
                        linewidth_ghz=_real(obj["linewidth_ghz"], "linewidth_ghz"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed etalon entry {obj!r}: {exc}") from None
    _known_keys(obj, ("fsr_ghz", "linewidth_ghz"), "etalon entry")
    return etalon


def config_from_dict(raw: dict) -> DeviceConfig:
    """Build and validate a :class:`DeviceConfig` from parsed JSON."""
    if not isinstance(raw, dict):
        raise ConfigError("device config must be a JSON object")
    _known_keys(raw, [f.name for f in fields(DeviceConfig)], "device config")
    try:
        eoms_raw = raw["eoms"]
        eoms = tuple(
            EomSpec(site=site, label=spec["label"],
                    freq_ghz=_real(spec["freq_ghz"], "freq_ghz"),
                    alpha=_real(spec["alpha"], "alpha"))
            for site, spec in sorted(eoms_raw.items()))
        for site, spec in eoms_raw.items():
            _known_keys(spec, ("label", "freq_ghz", "alpha"), f"modulator {site!r}")
        bs = raw.get("beamsplitter_r2", 0.5)
        if isinstance(bs, dict):
            bs = tuple(sorted((str(k), _real(v, "beamsplitter_r2"))
                              for k, v in bs.items()))
        else:
            bs = _real(bs, "beamsplitter_r2")
        att = raw.get("attenuator_t", "auto")
        if not isinstance(att, str):
            att = _real(att, "attenuator_t")
        imp = ImperfectionModel(**{
            k: _real(v, k) for k, v in raw.get("imperfections", {}).items()})
        return DeviceConfig(
            eoms=eoms,
            beamsplitter_r2=bs,
            attenuator_t=att,
            source_etalons=tuple(_parse_etalon(e)
                                 for e in raw.get("source_etalons", ())),
            scan_etalon=_parse_etalon(raw["scan_etalon"]),
            source_raw_linewidth_ghz=_real(
                raw.get("source_raw_linewidth_ghz", 1000.0),
                "source_raw_linewidth_ghz"),
            imperfections=imp,
            photon_rate_hz=_real(raw.get("photon_rate_hz", 1000.0), "photon_rate_hz"),
            bin_duration_s=_real(raw.get("bin_duration_s", 1.0), "bin_duration_s"),
            seed=raw.get("seed", 0),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ConfigError(f"malformed device config: {exc}") from None


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are distinct: a repeated key would silently
    override the first."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"duplicate key {key!r} in config JSON")
        obj[key] = value
    return obj


def load_config(path) -> DeviceConfig:
    """Read a device config from a JSON file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path} is not valid UTF-8 JSON: {exc}") from None
    except RecursionError:
        raise ConfigError(f"config {path} is nested too deeply") from None
    return config_from_dict(raw)


def reference_device(fitted: bool = False) -> DeviceConfig:
    """The packaged reference bench (optionally with fitted visibilities)."""
    name = "reference-bench-fitted.json" if fitted else "reference-bench.json"
    text = (resources.files("cfcomm") / "data" / name).read_text()
    return config_from_dict(json.loads(text))
