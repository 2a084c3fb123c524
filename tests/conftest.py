import json
import os
import sys
from importlib import resources
from pathlib import Path

# make the sibling oracle module importable from any test file
sys.path.insert(0, os.path.dirname(__file__))


def child_env(**overrides: str) -> dict:
    """Environment for a ``python -m cfcomm`` child run from any directory.

    The directory holding the ``cfcomm`` this process imported goes first on
    ``PYTHONPATH``, so the child runs the same package the tests check even
    when the parent found it through a relative entry such as ``src``.
    """
    import cfcomm

    env = dict(os.environ, **overrides)
    root = str(Path(cfcomm.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (root, env.get("PYTHONPATH")) if p)
    return env


def reference_dict() -> dict:
    """The packaged reference config as parsed JSON, for tests to edit."""
    text = (resources.files("cfcomm") / "data" / "reference-bench.json").read_text()
    return json.loads(text)


def order_two_matches_the_walk(c) -> None:
    """Closed-form order-2 detection probabilities of a circuit against the
    order-2 reference walk of ``oracles``, and their excess over order 1
    against the walk's sum over its two-kick components."""
    import pytest

    import oracles
    from cfcomm.circuit import detection_probs

    walk = oracles.order2_terminal(c)
    p1, p2 = detection_probs(c), detection_probs(c, max_order=2)
    for d in c.detectors:
        assert p2[d] == pytest.approx(oracles.detector_prob(walk, d), rel=1e-13)
        two = oracles.detector_prob(walk, d, (2,))
        assert p2[d] - p1[d] == pytest.approx(two, rel=1e-10, abs=0.0)


def oracle_listing(cfg, preset: str, include_eoms: bool = True) -> list:
    """The hand-unrolled bench of ``oracles.bench_listing`` for one preset:
    reflectances and modulators from the config's fields, the knobs from
    the preset's tuning, the shutters closed for bit 1."""
    import oracles
    from cfcomm.circuit import preset_tuning

    tun = preset_tuning(cfg, preset)
    eoms = ({e.site: (e.label, e.freq_ghz, e.alpha) for e in cfg.eoms}
            if include_eoms else {})
    r2 = {name: cfg.r2(name) for name in ("outer", "inner_near", "inner_far")}
    return oracles.bench_listing(r2, eoms, tun.attenuator_t, tun.inner_phase,
                                 tun.reference_phase, shutter=(preset == "bit1"))


def stripped(c):
    """A circuit without its modulators, built here rather than by the
    package: the modulator-free twin of a circuit that has them."""
    import dataclasses

    from cfcomm.optics import Eom

    return dataclasses.replace(
        c, elements=tuple(e for e in c.elements if not isinstance(e, Eom)))


def as_listing(c) -> list:
    """A circuit's elements as the ``(name, ins, outs, m)`` tuples of
    ``oracles.bench_listing``."""
    from cfcomm.optics import Eom

    return [("modulator", (e.mode,), (e.mode,), (e.label, e.freq_ghz, e.alpha, e.instance))
            if isinstance(e, Eom) else (e.name, e.ins, e.outs, e.m) for e in c.elements]


def listing_walk_gap(c, listing) -> float:
    """Largest gap between a circuit's detection probabilities and those of
    the oracle walk of a listing."""
    import oracles
    from cfcomm.circuit import detection_probs

    amps = oracles.listing_terminal(listing)
    return max(abs(p - oracles.detector_prob(amps, d))
               for d, p in detection_probs(c).items())


def weak_values_match_the_walk(c) -> None:
    """Every detector's walked amplitudes against the weak-value identity
    of ``oracles.two_state_terminal``: the carrier bit for bit, equal to
    the strip's, and each first-order tag within 1e-14 of the detector's
    total, taken as an amplitude (the root of the summed squares, which
    neither underflows nor overflows), the unit of the gap."""
    import math

    import oracles
    from cfcomm.circuit import propagate

    walked, strip = propagate(c), propagate(stripped(c))
    for d in c.detectors:
        carrier, tags = oracles.two_state_terminal(as_listing(c), c.sources, d)
        got = dict(walked.components(d))
        total = math.hypot(*map(abs, got.values()))
        assert got.pop((), 0j) == carrier == strip.amp(d), d
        for tag in got.keys() | tags.keys():
            gap = abs(got.get(tag, 0j) - tags.get(tag, 0j))
            assert gap <= 1e-14 * total, (d, tag, gap, total)
