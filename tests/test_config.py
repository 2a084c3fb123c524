"""Config loading: every malformed input ends in ConfigError."""

import copy
import dataclasses
import math

import pytest

from cfcomm.config import config_from_dict, reference_device
from cfcomm.errors import ConfigError

from conftest import reference_dict

FLOAT_FIELDS = [
    ("eoms", "open_arm", "freq_ghz"), ("eoms", "open_arm", "alpha"),
    ("beamsplitter_r2",), ("attenuator_t",),
    ("source_etalons", 0, "fsr_ghz"), ("source_etalons", 0, "linewidth_ghz"),
    ("source_etalons", 0, "center_offset_ghz"),
    ("scan_etalon", "fsr_ghz"), ("scan_etalon", "linewidth_ghz"),
    ("scan_etalon", "center_offset_ghz"), ("source_raw_linewidth_ghz",),
    ("imperfections", "visibility_inner"), ("imperfections", "visibility_outer"),
    ("imperfections", "dark_rate"), ("imperfections", "heralding_efficiency"),
    ("photon_rate_hz",), ("bin_duration_s",),
]

MALFORMED = (
    [(path, bad) for path in FLOAT_FIELDS
     for bad in (math.nan, math.inf, -math.inf)]
    + [(("beamsplitter_r2",), {"outer": math.nan, "inner_near": 0.5,
                               "inner_far": 0.5})]
    + [(("seed",), bad) for bad in (1.7, 1.0, True, False, "3", None)]
    + [(("bin_duration_s",), 1e30), (("photon_rate_hz",), 1e19)]
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


def test_integer_seed_and_largest_bin_are_accepted():
    doc = with_value(reference_dict(), ("seed",), 12345)
    assert config_from_dict(doc).seed == 12345
    doc = with_value(reference_dict(), ("bin_duration_s",), 2.0 ** 62 / 1000.0)
    assert config_from_dict(doc).trials_per_bin == 2 ** 62


@pytest.mark.parametrize("rate", [math.nan, math.inf, 1e19])
def test_trial_count_bound_holds_without_json(rate):
    """Configs built in code meet the same bound on trials per bin."""
    with pytest.raises(ConfigError, match="trial"):
        dataclasses.replace(reference_device(), photon_rate_hz=rate)
