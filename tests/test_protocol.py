"""Transport layer: sector mixtures, visibility fit, decoding policies, PBM."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st
from hypothesis.extra.numpy import arrays

from cfcomm import circuit, protocol
from cfcomm.config import BS_NAMES, ImperfectionModel, reference_device
from cfcomm.errors import ConfigError, FitInfeasibleError
from cfcomm.optics import PhaseShift
from cfcomm.protocol import (Bitmap, fit_model, mixture_probs,
                             model_error_rates, read_pbm, sector_probs,
                             send_bit, transmit_image, trial_probs,
                             write_pbm, _decode_block, _parse_policy)
from cfcomm.rand import bit_uniforms

import oracles
from conftest import order_two_matches_the_walk


@pytest.fixture(scope="module")
def bench():
    return reference_device()


@pytest.fixture(scope="module")
def fitted():
    return reference_device(fitted=True)


# -- dephasing sectors -------------------------------------------------------

@pytest.mark.parametrize("preset,table", [
    ("bit0", oracles.SECTORS_BIT0), ("bit1", oracles.SECTORS_BIT1)])
def test_sector_probabilities_match_closed_form(bench, preset, table):
    got = sector_probs(bench, preset)
    assert set(got) == set(table)
    for sector, want in table.items():
        assert got[sector][0] == pytest.approx(want[0], abs=1e-12), sector
        assert got[sector][1] == pytest.approx(want[1], abs=1e-12), sector


def drifted(c: circuit.Circuit, delta: float, theta: float) -> circuit.Circuit:
    """The circuit with the inner drift ``delta`` on both shutter-arm passes
    and the reference drift ``theta``, each a phase plate placed just before
    the element that takes its arm in without giving it back."""
    phases = {circuit.SHUTTER_1: delta, circuit.SHUTTER_2: delta,
              circuit.REFERENCE: theta}
    elements = []
    for e in c.elements:
        elements += [PhaseShift(arm, phases[arm], "drift") for arm in phases
                     if arm in e.ins and arm not in e.outs]
        elements.append(e)
    return dataclasses.replace(c, elements=tuple(elements))


def test_sector_probs_match_grid_average(bench, monkeypatch):
    """One walk of the shared modulator-free circuit per preset reproduces
    the brute-force grid average over drift phases placed in the bench."""
    real, calls = protocol.apply_element, []
    monkeypatch.setattr(protocol, "apply_element",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))

    def probs(c, delta, theta):
        shifted = drifted(c, delta, theta)
        circuit.validate_circuit(shifted)
        p = circuit.detection_probs(shifted)
        return p["det0"], p["det1"]

    rng = np.random.default_rng(31)
    for _ in range(6):
        r2 = tuple((name, float(rng.uniform(0.35, 0.65))) for name in BS_NAMES)
        cfg = dataclasses.replace(bench, beamsplitter_r2=r2, attenuator_t="auto")
        for preset in circuit.PRESETS:
            calls.clear()
            walks = circuit.propagate_cuts.cache_info().misses
            got = sector_probs(cfg, preset)
            c = circuit.build_circuit(cfg, preset, include_eoms=False)
            assert len(calls) == len(c.elements)
            assert circuit.propagate_cuts.cache_info().misses == walks
            want = oracles.grid_sectors(lambda d, t: probs(c, d, t))
            for sector, (p0, p1) in want.items():
                assert got[sector][0] == pytest.approx(p0, abs=1e-14), sector
                assert got[sector][1] == pytest.approx(p1, abs=1e-14), sector


def test_closed_shutter_sectors_do_not_see_the_inner_loop(asymmetric):
    """With both shutters closed no light crosses the shutter arms, so the
    inner loop's coherent and dephased sectors are equal exactly, at both
    detectors, and err1 does not depend on the inner visibility."""
    for cfg in asymmetric:
        s = sector_probs(cfg, "bit1")
        assert s["cc"] == s["dc"] and s["cd"] == s["dd"], s
        err1 = {model_error_rates(cfg, vi, 0.97)[1] for vi in (0.0, 0.5, 0.95, 1.0)}
        assert len(err1) == 1, err1


def test_sector_table_is_read_only(bench):
    """Every caller shares the cached table, so it takes no write: the
    channel and the mixtures read afterwards are those read before."""
    def reads():
        return ([trial_probs(bench, bit) for bit in (0, 1)],
                [mixture_probs(bench, preset, 0.9, 0.8) for preset in ("bit0", "bit1")])

    before = reads()
    with pytest.raises(TypeError):
        sector_probs(bench, "bit0")["cc"] = (0.0, 1.0)
    assert reads() == before


@pytest.mark.parametrize("preset", ["bit0", "bit1"])
@given(vi=st.floats(0.0, 1.0), vo=st.floats(0.0, 1.0))
@settings(max_examples=25, deadline=None)
def test_mixture_interpolates_sectors(bench, preset, vi, vo):
    table = {"bit0": oracles.SECTORS_BIT0, "bit1": oracles.SECTORS_BIT1}[preset]
    want = oracles.mixture_probs(table, vi, vo)
    got = mixture_probs(bench, preset, vi, vo)
    assert got[0] == pytest.approx(want[0], abs=1e-12)
    assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_full_visibility_recovers_coherent_bench(bench):
    assert mixture_probs(bench, "bit0") == pytest.approx((1 / 64, 0.0), abs=1e-12)
    assert mixture_probs(bench, "bit1") == pytest.approx((0.0, 1 / 32), abs=1e-12)


# -- visibility fit ----------------------------------------------------------

def test_error_rates_match_closed_form(bench):
    for vi, vo in [(1.0, 1.0), (0.97, 0.98), (0.8, 0.6)]:
        want = oracles.err_rates(vi, vo)
        got = model_error_rates(bench, vi, vo)
        assert got[0] == pytest.approx(want[0], abs=1e-12)
        assert got[1] == pytest.approx(want[1], abs=1e-12)


def test_fit_reproduces_reference_targets(bench):
    imp = fit_model(bench, 0.10, 0.023)
    vi, vo = oracles.fitted_visibilities(0.10, 0.023)
    assert imp.visibility_inner == pytest.approx(vi, abs=1e-9)
    assert imp.visibility_outer == pytest.approx(vo, abs=1e-9)
    back = model_error_rates(bench, imp.visibility_inner, imp.visibility_outer)
    assert back == pytest.approx((0.10, 0.023), abs=1e-12)


def test_fit_of_zero_errors_is_ideal(bench):
    imp = fit_model(bench, 0.0, 0.0)
    assert imp.visibility_inner == pytest.approx(1.0, abs=1e-12)
    assert imp.visibility_outer == pytest.approx(1.0, abs=1e-12)


@given(vi=st.floats(0.4, 1.0), vo=st.floats(0.4, 1.0))
@settings(max_examples=25, deadline=None)
def test_fit_round_trips_visibilities(bench, vi, vo):
    err0, err1 = model_error_rates(bench, vi, vo)
    imp = fit_model(bench, err0, err1)
    assert imp.visibility_inner == pytest.approx(vi, abs=1e-7)
    assert imp.visibility_outer == pytest.approx(vo, abs=1e-7)


def test_fit_keeps_detector_imperfections(bench):
    cfg = dataclasses.replace(
        bench, imperfections=ImperfectionModel(dark_rate=0.01,
                                               heralding_efficiency=0.5))
    imp = fit_model(cfg, 0.05, 0.01)
    assert imp.dark_rate == 0.01
    assert imp.heralding_efficiency == 0.5


@pytest.mark.parametrize("err0,err1", [
    (0.10, 0.6),    # beyond the fully-dephased outer loop
    (0.95, 0.023),  # more bit0 errors than any inner dephasing yields
    (-0.01, 0.0),
    (0.10, 1.0),
])
def test_fit_rejects_unreachable_rates(bench, err0, err1):
    with pytest.raises(FitInfeasibleError):
        fit_model(bench, err0, err1)


@pytest.fixture(scope="module")
def asymmetric(bench):
    """Benches with every splitter r^2 drawn in [0.35, 0.65]."""
    rng = np.random.default_rng(12)
    return [dataclasses.replace(
        bench, attenuator_t="auto", beamsplitter_r2=tuple(
            (name, float(rng.uniform(0.35, 0.65))) for name in BS_NAMES))
        for _ in range(40)]


def test_order_two_closed_form_matches_the_walk_on_asymmetric_benches(asymmetric):
    for cfg in asymmetric:
        for preset in circuit.PRESETS:
            order_two_matches_the_walk(circuit.build_circuit(cfg, preset))


def test_fit_matches_root_search(asymmetric):
    """The closed form against brentq on the model: the same inputs raise
    (brentq's bare ValueError is FitInfeasibleError) and the fits agree."""
    rng = np.random.default_rng(13)
    raised = fitted = 0
    for cfg in asymmetric:
        vi, vo = rng.uniform(0.9, 0.99, size=2)
        # an inner end with a drawn vo is rounding's call: see the next test
        cases = [model_error_rates(cfg, a, b) for a, b in itertools.product(
            (0.0, 1.0, vi), (0.0, 1.0, vo)) if not (a in (0.0, 1.0) and b == vo)]
        for err0, err1 in cases + [(0.0, 0.0), (0.05, 0.01)]:
            try:
                want = oracles.root_search_fit(
                    lambda a, b: model_error_rates(cfg, a, b), err0, err1)
            except ValueError:
                with pytest.raises(FitInfeasibleError):
                    fit_model(cfg, err0, err1)
                raised += 1
                continue
            got = fit_model(cfg, err0, err1)
            assert got.visibility_inner == pytest.approx(want[0], abs=1e-12)
            assert got.visibility_outer == pytest.approx(want[1], abs=1e-12)
            fitted += 1
    assert raised > 50 and fitted > 100  # both outcomes are exercised


def test_fit_at_an_inner_end_returns_that_end_or_raises(asymmetric):
    """Rates made at vi = 0 or 1 sit on the edge of the feasible range, so
    a rounding-level difference in the fitted vo decides whether err0 is
    reachable, for the root search as for the closed form.  Either way the
    outcome is FitInfeasibleError or the end itself."""
    rng = np.random.default_rng(14)
    fitted = 0
    for cfg in asymmetric:
        vo = float(rng.uniform(0.9, 0.99))
        for vi in (0.0, 1.0):
            try:
                got = fit_model(cfg, *model_error_rates(cfg, vi, vo))
            except FitInfeasibleError:
                continue
            assert got.visibility_inner == pytest.approx(vi, abs=1e-12)
            assert got.visibility_outer == pytest.approx(vo, abs=1e-12)
            fitted += 1
    assert fitted > 40  # of 80


@pytest.mark.parametrize("vi", [0.0, 0.95, 1.0])
@pytest.mark.parametrize("vo", [0.0, 0.93, 1.0])
def test_fit_recovers_end_visibilities(bench, vi, vo):
    """On the 50/50 bench the rates at either end fit back without raising,
    and a dephased loop reads +0.0."""
    got = fit_model(bench, *model_error_rates(bench, vi, vo))
    assert got.visibility_inner == pytest.approx(vi, abs=1e-12)
    assert got.visibility_outer == pytest.approx(vo, abs=1e-12)
    for want, v in ((vi, got.visibility_inner), (vo, got.visibility_outer)):
        if want == 0.0:
            assert math.copysign(1.0, v) == 1.0


def test_fit_of_zero_errors_is_infeasible_on_asymmetric_benches(asymmetric):
    """Unequal splitters leave a wrong click even with both loops coherent,
    so zero error rates lie below every reachable pair."""
    for cfg in asymmetric:
        with pytest.raises(FitInfeasibleError, match="below the fully coherent"):
            fit_model(cfg, 0.0, 0.0)


@pytest.mark.parametrize("v", [0.0, 0.5, 0.73, 1.0])
def test_two_path_contrast_equals_visibility(v):
    """The sector model's anchor: a coherent/dephased mixture with weight v
    shows fringe contrast v (the reference in ``oracles``)."""
    assert oracles.two_path_contrast(v) == pytest.approx(v, abs=1e-12)


# -- per-trial click model ---------------------------------------------------

def test_trial_probs_ideal_matches_mixture(bench):
    tp = trial_probs(bench, 0)
    assert (tp.click0, tp.click1) == pytest.approx((1 / 64, 0.0), abs=1e-12)
    assert tp.click0 + tp.click1 == pytest.approx(1 / 64, abs=1e-12)


def test_trial_probs_dark_and_heralding_algebra(bench):
    cfg = dataclasses.replace(
        bench, imperfections=ImperfectionModel(dark_rate=0.02,
                                               heralding_efficiency=0.7))
    tp = trial_probs(cfg, 0)
    signal = 0.7 * (1 / 64)
    assert tp.click0 == pytest.approx(signal + (1 - signal) * 0.01, abs=1e-12)
    assert tp.click1 == pytest.approx((1 - signal) * 0.01, abs=1e-12)


def test_trial_probs_validates_bit(bench):
    with pytest.raises(ConfigError):
        trial_probs(bench, 2)


# -- decoding policies -------------------------------------------------------

def test_policy_parsing():
    assert _parse_policy("first-click") == ("first", 0)
    assert _parse_policy("majority:7") == ("majority", 7)
    # quota + the extra trials (capped at 2**62) must fit an int64
    assert _parse_policy(f"majority:{2**62 - 1}") == ("majority", 2**62 - 1)
    for bad in ("majority", "majority:0", "majority:-3", "majority:x", "vote",
                f"majority:{2**62}", "majority:100000000000000000000"):
        with pytest.raises(ConfigError):
            _parse_policy(bad)


@pytest.mark.parametrize("policy", ["first-click", "majority:11"])
def test_send_bit_agrees_with_block_decode(fitted, policy):
    rng = np.random.default_rng(5)
    bits = rng.integers(0, 2, size=48)
    image = Bitmap(48, 1, bits)
    res = transmit_image(fitted, image, policy=policy, seed=99)
    for i, bit in enumerate(bits):
        one = send_bit(fitted, int(bit), index=i, policy=policy, seed=99)
        decoded = 0 if one.received is None else one.received
        assert decoded == res.image.bits[i], i


def test_first_click_erasure_rate_matches_geometric(bench):
    cfg = dataclasses.replace(bench, photon_rate_hz=10.0)  # 10 trials per bin
    assert cfg.trials_per_bin == 10
    n = 20000
    image = Bitmap(n, 1, np.zeros(n, dtype=np.uint8))
    res = transmit_image(cfg, image, seed=3)
    want = oracles.erasure_prob(1 / 64, 10)
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(res.erasures / n - want) < 4 * sigma


def test_majority_error_rate_matches_binomial_tail(fitted):
    n = 4000
    image = Bitmap(n, 1, np.zeros(n, dtype=np.uint8))
    res = transmit_image(fitted, image, policy="majority:5", seed=11)
    assert res.erasures == 0  # odd quota, always-clickable bench
    p = oracles.majority_error(5, model_error_rates(
        fitted, fitted.imperfections.visibility_inner,
        fitted.imperfections.visibility_outer)[0])
    wrong = int(round(res.pixel_error_rate * n))
    sigma = math.sqrt(n * p * (1 - p))
    assert abs(wrong - n * p) < 4 * sigma + 1


def test_even_quota_ties_are_erasures(fitted):
    n = 3000
    image = Bitmap(n, 1, np.zeros(n, dtype=np.uint8))
    res = transmit_image(fitted, image, policy="majority:2", seed=17)
    err0 = model_error_rates(
        fitted, fitted.imperfections.visibility_inner,
        fitted.imperfections.visibility_outer)[0]
    want = 2 * err0 * (1 - err0)  # exactly one of two clicks wrong
    sigma = math.sqrt(n * want * (1 - want))
    assert abs(res.erasures - n * want) < 4 * sigma


def test_decode_block_edge_uniforms(fitted):
    bits = np.array([0, 1])
    zeros = np.zeros(2)
    received, erased, trials = _decode_block(bits, zeros, zeros, fitted,
                                             ("majority", 9))
    assert not erased.any()
    assert (received == bits).all()  # zero wrong clicks at u = 0
    assert (trials == 9).all()       # no extra no-click bins at u = 0


def test_decode_block_unclickable_channel(fitted, monkeypatch):
    dead = protocol.TrialProbs(0.0, 0.0)
    monkeypatch.setattr(protocol, "trial_probs", lambda cfg, bit: dead)
    bits = np.array([0, 1, 1])
    u = bit_uniforms(0, 0, 3, 2)
    for policy, want_trials in (("first", 1000), ("majority", 0)):
        received, erased, trials = _decode_block(bits, u[:, 0], u[:, 1],
                                                 fitted, (policy, 3))
        assert erased.all()
        assert (received == 0).all()
        assert (trials == want_trials).all()


def test_send_bit_validates_and_defaults(fitted):
    with pytest.raises(ConfigError):
        send_bit(fitted, 2)
    a = send_bit(fitted, 1)          # seed defaults to the config's
    b = send_bit(fitted, 1, seed=fitted.seed)
    assert (a.received, a.trials) == (b.received, b.trials)


# -- bitmaps -----------------------------------------------------------------

_pbm_counter = itertools.count()


@given(w=st.integers(1, 90), h=st.integers(1, 8), data=st.data())
@settings(max_examples=30, deadline=None)
def test_pbm_round_trip(w, h, data, tmp_path_factory):
    """write_pbm and read_pbm are inverse on arbitrary binary rasters."""
    bits = data.draw(arrays(np.uint8, w * h, elements=st.integers(0, 1)))
    path = tmp_path_factory.getbasetemp() / f"rt_{next(_pbm_counter)}.pbm"
    image = Bitmap(w, h, bits)
    write_pbm(path, image)
    assert read_pbm(path) == image


def test_pbm_wraps_long_rows(tmp_path):
    image = Bitmap(100, 2, np.ones(200, dtype=np.uint8))
    path = tmp_path / "wide.pbm"
    write_pbm(path, image)
    lines = path.read_text().splitlines()
    assert lines[0] == "P1" and lines[1] == "100 2"
    assert max(len(l) for l in lines[2:]) <= 68
    assert read_pbm(path) == image


def test_pbm_reads_comments_and_packed_digits(tmp_path):
    path = tmp_path / "packed.pbm"
    path.write_text("P1 # magic\n# a comment line\n3 2\n010\n101\n")
    image = read_pbm(path)
    assert (image.width, image.height) == (3, 2)
    assert image.bits.tolist() == [0, 1, 0, 1, 0, 1]


@pytest.mark.parametrize("text,match", [
    ("P4\n2 2\n0101", "P1"),
    ("P1\n2 two\n01", "dimensions"),
    ("P1\n2", "dimensions"),
    ("P1\n2 2\n012 1", "0 or 1"),
    ("P1\n2 2\n010", "expected 4 pixels"),
])
def test_pbm_rejects_malformed(tmp_path, text, match):
    path = tmp_path / "bad.pbm"
    path.write_text(text)
    with pytest.raises(ConfigError, match=match):
        read_pbm(path)


def test_pbm_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        read_pbm("/nonexistent/image.pbm")


def test_bitmap_validation():
    with pytest.raises(ConfigError, match="pixels"):
        Bitmap(2, 2, np.zeros(3, dtype=np.uint8))
    with pytest.raises(ConfigError, match="0 or 1"):
        Bitmap(1, 1, np.array([2], dtype=np.uint8))
    # checked as given: no uint8 cast wraps a value or truncates a fraction
    for raw in ([256, 257, 0], [512, 1, 0], [-255, 0, 1], [0.7, 1.9, 1.0]):
        with pytest.raises(ConfigError, match="0 or 1"):
            Bitmap(3, 1, np.array(raw))
    for raw in ([True, False, True], [1.0, 0.0, 1.0], np.array([1, 0, 1], np.int64)):
        image = Bitmap(3, 1, np.array(raw))
        assert image.bits.dtype == np.uint8 and image.bits.tolist() == [1, 0, 1]
    with pytest.raises(ConfigError, match="positive"):
        Bitmap(0, 1, np.zeros(0, dtype=np.uint8))
    assert Bitmap(1, 2, [0, 1]) == Bitmap(1, 2, [0, 1])
    assert Bitmap(1, 2, [0, 1]) != Bitmap(2, 1, [0, 1])


@pytest.mark.parametrize("width,height", [
    (1.5, 2), (3, 1.0), (True, 3), (3, False), ("3", 1), (np.float64(3), 1),
    (np.True_, 3), (None, 3)])
def test_bitmap_dimensions_must_be_integers(width, height):
    with pytest.raises(ConfigError, match="must be an integer"):
        Bitmap(width, height, np.zeros(3, dtype=np.uint8))


def test_bitmap_takes_numpy_integer_dimensions_as_ints(tmp_path):
    bm = Bitmap(np.int64(3), np.uint8(1), np.array([1, 0, 1]))
    assert (bm.width, bm.height) == (3, 1)
    assert type(bm.width) is int and type(bm.height) is int
    write_pbm(tmp_path / "bm.pbm", bm)
    assert read_pbm(tmp_path / "bm.pbm") == bm


def test_bitmaps_are_read_only_values(bench, tmp_path):
    """A bitmap keeps a copy of its caller's pixels that refuses writes, as
    does a decoded image, and rebinds no field: a write to the caller's
    array after construction changes neither the file nor the transport."""
    arr = np.zeros(6, dtype=np.uint8)
    bm = Bitmap(3, 2, arr)
    arr[0] = 7  # still the caller's to write
    assert bm.bits.tolist() == [0] * 6
    write_pbm(tmp_path / "bm.pbm", bm)
    assert read_pbm(tmp_path / "bm.pbm") == bm
    res = transmit_image(bench, bm, seed=3)
    assert res.pixel_error_rate == 0.0 and res.image == bm
    for image in (bm, res.image):
        with pytest.raises(ValueError, match="read-only"):
            image.bits[1] = 5
        for name, value in [("width", 6), ("height", 1), ("bits", arr)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(image, name, value)
    assert bm.bits.tolist() == res.image.bits.tolist() == [0] * 6


# -- image transport ---------------------------------------------------------

def test_ideal_bench_transmits_perfectly(bench):
    rng = np.random.default_rng(0)
    image = Bitmap(20, 15, rng.integers(0, 2, size=300, dtype=np.uint8))
    res = transmit_image(bench, image, seed=1)
    assert res.image == image
    assert res.pixel_error_rate == 0.0
    assert res.erasures == 0
    assert res.err0 == res.err1 == 0.0
    assert res.trials_used > 300  # several bins per bit on average


def test_transmission_stats_payload(bench):
    image = Bitmap(4, 2, np.zeros(8, dtype=np.uint8))
    stats_out = transmit_image(bench, image, seed=5).stats()
    assert set(stats_out) == {"pixel_error_rate", "err0", "err1", "erasures",
                              "seed", "trials_used"}
    assert stats_out["seed"] == 5


def test_fitted_bench_error_rates_within_counting_noise(fitted):
    rng = np.random.default_rng(2)
    bits = rng.integers(0, 2, size=6000, dtype=np.uint8)
    res = transmit_image(fitted, Bitmap(6000, 1, bits), seed=23)
    n0, n1 = int((bits == 0).sum()), int((bits == 1).sum())
    for got, want, n in ((res.err0, 0.10, n0), (res.err1, 0.023, n1)):
        sigma = math.sqrt(want * (1 - want) / n)
        assert abs(got - want) < 4 * sigma


def test_transmission_seed_defaults_to_config(fitted):
    image = Bitmap(10, 3, np.zeros(30, dtype=np.uint8))
    a = transmit_image(fitted, image)
    b = transmit_image(fitted, image, seed=fitted.seed)
    assert a.image == b.image and a.trials_used == b.trials_used
    c = transmit_image(fitted, image, seed=fitted.seed + 1)
    assert c.seed != a.seed
