"""Config loading: every malformed input ends in ConfigError."""

import copy
import dataclasses
import json
import math

import pytest

from cfcomm.config import EomSpec, config_from_dict, load_config, reference_device
from cfcomm.errors import ConfigError

from conftest import reference_dict

FLOAT_FIELDS = [
    ("eoms", "open_arm", "freq_ghz"), ("eoms", "open_arm", "alpha"),
    ("beamsplitter_r2",), ("attenuator_t",),
    ("source_etalons", 0, "fsr_ghz"), ("source_etalons", 0, "linewidth_ghz"),
    ("scan_etalon", "fsr_ghz"), ("scan_etalon", "linewidth_ghz"),
    ("source_raw_linewidth_ghz",),
    ("imperfections", "visibility_inner"), ("imperfections", "visibility_outer"),
    ("imperfections", "dark_rate"), ("imperfections", "heralding_efficiency"),
    ("photon_rate_hz",), ("bin_duration_s",),
]

#: keys nothing reads: misspellings, and the centre offset etalons no longer
#: have; each is refused whatever its value
UNKNOWN_KEYS = [
    ("attenuatr_t",), ("scan_etalon", "centre_offset_ghz"),
    ("source_etalons", 0, "center_offset_ghz"), ("scan_etalon", "center_offset_ghz"),
    ("eoms", "link", "freq"), ("eoms", "open_arm", "site"),
]

MALFORMED = (
    [(path, bad) for path in FLOAT_FIELDS
     for bad in (math.nan, math.inf, -math.inf)]
    + [(("beamsplitter_r2",), {"outer": math.nan, "inner_near": 0.5,
                               "inner_far": 0.5})]
    + [(("seed",), bad) for bad in (1.7, 1.0, True, False, "3", None,
                                    -1, 2**64, 2**64 + 7)]
    + [(("bin_duration_s",), 1e30), (("photon_rate_hz",), 1e19)]
    # JSON booleans and strings are not numbers, though float() takes them
    + [(path, bad) for path in FLOAT_FIELDS for bad in (True, False)]
    + [(path, "0.5") for path in FLOAT_FIELDS if path[0] == "imperfections"]
    + [(("imperfections", "contrast"), 0.5), (("imperfections",), [0.5])]
    + [(path, value) for path in UNKNOWN_KEYS
       for value in (0.0, 0.5, math.nan, math.inf, -math.inf, True, False)]
    # labels name peaks in the output: JSON strings only, never str(value)
    + [(("eoms", "link", "label"), bad) for bad in (None, 5, ["A"], True)]
)


def with_value(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


@pytest.mark.parametrize("path,value", MALFORMED,
                         ids=[f"{'.'.join(map(str, p))}={v!r}" for p, v in MALFORMED])
def test_malformed_config_is_rejected(path, value):
    doc = with_value(reference_dict(), path, value)
    with pytest.raises(ConfigError):
        config_from_dict(doc)


@pytest.mark.parametrize("path", UNKNOWN_KEYS, ids=lambda p: ".".join(map(str, p)))
def test_unknown_key_is_named(path):
    doc = with_value(reference_dict(), path, 0.5)
    with pytest.raises(ConfigError, match=f"unknown key.*'{path[-1]}'"):
        config_from_dict(doc)


@pytest.mark.parametrize("path", [("attenuator_t",), ("eoms", "link", "alpha")],
                         ids=lambda p: ".".join(p))
def test_duplicate_key_is_named(tmp_path, path):
    """The second of two equal keys would silently win: refused instead."""
    doc = reference_dict()
    node = doc if len(path) == 1 else doc[path[0]][path[1]]
    first, node[path[-1]] = node[path[-1]], "@twice@"
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc).replace(
        '"@twice@"', f'{json.dumps(first)}, "{path[-1]}": 0.1'))
    with pytest.raises(ConfigError, match=f"duplicate key '{path[-1]}'"):
        load_config(bad)


def test_integer_seed_and_largest_bin_are_accepted():
    for seed in (12345, 2**64 - 1):
        doc = with_value(reference_dict(), ("seed",), seed)
        assert config_from_dict(doc).seed == seed
    doc = with_value(reference_dict(), ("bin_duration_s",), 2.0 ** 62 / 1000.0)
    assert config_from_dict(doc).trials_per_bin == 2 ** 62


@pytest.mark.parametrize("rate", [math.nan, math.inf, 1e19])
def test_trial_count_bound_holds_without_json(rate):
    """Configs built in code meet the same bound on trials per bin."""
    with pytest.raises(ConfigError, match="trial"):
        dataclasses.replace(reference_device(), photon_rate_hz=rate)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5, True])
def test_seed_range_holds_without_json(seed):
    """Configs built in code take the seeds the random streams take."""
    with pytest.raises(ConfigError, match="seed"):
        dataclasses.replace(reference_device(), seed=seed)


@pytest.mark.parametrize("label", [None, 5, ("A",), True, ""], ids=repr)
def test_modulator_label_is_a_string_without_json(label):
    """Modulators built in code meet the same rule on labels."""
    spec = reference_device().eom_at("link")
    with pytest.raises(ConfigError, match="label"):
        dataclasses.replace(spec, label=label)


def test_imperfections_are_read_as_floats():
    doc = with_value(reference_dict(), ("imperfections", "visibility_inner"), 1)
    value = config_from_dict(doc).imperfections.visibility_inner
    assert type(value) is float and value == 1.0


@pytest.mark.parametrize("freq", [1.05, 4.0, 5.9, 8.0, 9.0, 13.2])
def test_sidebands_must_be_resolvable_modulo_the_scan_fsr(freq):
    """The scan etalon repeats every 8 GHz: a link sideband 0.05 GHz from B,
    on its own mirror image (4.0), an FSR from A's lower sideband (5.9), on
    the carrier (8.0), on B's upper one (9.0) or two FSRs from E's (13.2)
    cannot be unmixed."""
    doc = with_value(reference_dict(), ("eoms", "link", "freq_ghz"), freq)
    with pytest.raises(ConfigError, match="analysis linewidth"):
        config_from_dict(doc)


@pytest.mark.parametrize("freq", [0.0, -1.0, math.nan])
def test_modulator_frequency_must_be_positive(freq):
    """NaN too, which every ordered comparison lets through."""
    with pytest.raises(ConfigError, match="frequency must be positive"):
        EomSpec("link", "L", freq, 0.1)


def test_sidebands_apart_on_the_fsr_circle_are_accepted():
    doc = with_value(reference_dict(), ("eoms", "link", "freq_ghz"), 5.7)
    assert config_from_dict(doc).eom_at("link").freq_ghz == 5.7
