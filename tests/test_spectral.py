"""Etalon filters, spectrum scans, peak extraction."""

import dataclasses
import math
import sys
import threading
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
import hypothesis.strategies as st

from cfcomm import circuit, spectral
from cfcomm.circuit import build_circuit, propagate, sideband_strengths, weak_trace
from cfcomm.config import reference_device
from cfcomm.errors import ConfigError, TopologyError
from cfcomm.spectral import (MAX_SCAN_POINTS, CascadeReport, Etalon, PeakEntry,
                             PeakTable, Spectrum, detector_components,
                             extract_peaks, scan_spectrum, source_filter_cascade)

import oracles


@pytest.fixture(scope="module")
def bench():
    return reference_device()


def noise_off(bench, preset, detector, **kw):
    c = build_circuit(bench, preset)
    return scan_spectrum(c, detector, bench.scan_etalon, bench.eoms,
                         noise=False, **kw)


def cascade_grid(bench):
    """The side-peak grid ``source_filter_cascade`` searches by default."""
    window = max(e.fsr_ghz for e in bench.source_etalons) / 2.0
    return np.arange(1.0, window + 0.002, 0.002)


# -- etalons -----------------------------------------------------------------

def test_etalon_peak_and_periodicity():
    e = Etalon(8.0, 0.1)
    assert e.transmission(0.0) == 1.0
    assert e.transmission(8.0) == pytest.approx(1.0, abs=1e-12)
    assert e.transmission(4.0) < 1e-3
    assert e.transmission(0.05) == pytest.approx(0.5, rel=1e-3)  # half width


@given(d=st.floats(-60.0, 60.0))
def test_etalon_matches_airy_formula(d):
    e = Etalon(22.0, 0.315)
    assert e.transmission(d) == pytest.approx(oracles.airy(22.0, 0.315, d),
                                              abs=1e-14)


def test_etalon_on_arrays_equals_the_scalar_formula_bit_for_bit(bench):
    """Elementwise on the cascade grid and on a 2-D broadcast."""
    grid = cascade_grid(bench)
    pts, pos = grid[::997], np.array([0.0, 2.8, -2.8, 3.4, -3.4])
    for e in (*bench.source_etalons, bench.scan_etalon):
        fsr, lw = e.fsr_ghz, e.linewidth_ghz
        assert np.array_equal(e.transmission(grid),
                              [oracles.airy(fsr, lw, d) for d in grid])
        got = e.transmission(pts[:, None] - pos)
        assert got.shape == (pts.size, pos.size)
        assert np.array_equal(got, [[oracles.airy(fsr, lw, p - q) for q in pos]
                                    for p in pts])


def test_etalon_validation():
    with pytest.raises(ConfigError):
        Etalon(0.1, 8.0)  # linewidth wider than the free spectral range
    with pytest.raises(ConfigError):
        Etalon(8.0, 0.0)


def test_source_cascade_narrows_to_sub_ghz(bench):
    rep = source_filter_cascade(bench.source_etalons,
                                bench.source_raw_linewidth_ghz)
    assert rep.effective_linewidth_ghz == pytest.approx(
        oracles.cascade_fwhm([(105.0, 1.4), (22.0, 0.315)]), abs=1e-9)
    assert rep.sidepeak_suppression_db == pytest.approx(
        10.0 * math.log10(1.0 / oracles.cascade_worst_sidepeak(
            [(105.0, 1.4), (22.0, 0.315)])), abs=1e-9)
    assert 1.0 <= rep.worst_sidepeak_ghz <= rep.window_ghz


def test_source_cascade_equals_the_scalar_profile_exactly(bench):
    """Same worst side peak, to the last bit, as the point-by-point oracle."""
    rep = source_filter_cascade(bench.source_etalons,
                                bench.source_raw_linewidth_ghz)
    prof = oracles.cascade_profile(
        [(e.fsr_ghz, e.linewidth_ghz) for e in bench.source_etalons],
        bench.source_raw_linewidth_ghz)
    grid = cascade_grid(bench)
    vals = [prof(d) for d in grid]
    k = int(np.argmax(vals))
    assert rep.worst_sidepeak_ghz == float(grid[k])
    assert rep.sidepeak_suppression_db == -10.0 * math.log10(vals[k] / prof(0.0))


def etalon_profile(etalons, raw_linewidth):
    """The profile ``source_filter_cascade`` evaluates, of a float or
    elementwise of an array."""
    def profile(d):
        p = 1.0 / (1.0 + (2.0 * d / raw_linewidth) ** 2)
        for e in etalons:
            p *= e.transmission(d)
        return p
    return profile


def bisected_fwhm(etalons, raw_linewidth):
    """The cascade's FWHM by 200 full bisection steps."""
    profile = etalon_profile(etalons, raw_linewidth)
    half = profile(0.0) / 2.0
    lo, hi = 0.0, min(e.linewidth_ghz for e in etalons)
    while profile(hi) > half:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if profile(mid) > half:
            lo = mid
        else:
            hi = mid
    return lo + hi


def test_source_cascade_fwhm_equals_the_full_bisection(bench):
    """Stopping once the midpoint rounds onto an end changes no bit."""
    rng = np.random.default_rng(9)
    stacks = [tuple(bench.source_etalons)]
    for _ in range(60):
        n = int(rng.integers(1, 5))
        lws = rng.uniform(0.05, 1.5, size=n)
        stacks.append(tuple(Etalon(float(lw * rng.uniform(10.0, 80.0)), float(lw))
                            for lw in lws))
    for etalons in stacks:
        raw = float(rng.uniform(50.0, 2000.0))
        rep = source_filter_cascade(
            etalons, raw, exclusion_ghz=3.0 * min(e.linewidth_ghz for e in etalons))
        assert rep.effective_linewidth_ghz == bisected_fwhm(etalons, raw)


def test_source_cascade_bisects_a_narrow_raw_line_to_the_end(bench):
    """Far below the etalon lines the FWHM is the raw one, however many
    halvings it takes to get there."""
    for raw in (1e-60, 1e-100, 1e-140):
        rep = source_filter_cascade(bench.source_etalons, raw)
        assert rep.effective_linewidth_ghz == pytest.approx(raw, rel=1e-12, abs=0.0)


def full_grid_cascade(etalons, raw, exclusion):
    """The cascade report with the worst side peak taken as the first
    ``argmax`` of the profile over the whole side-peak grid."""
    rep = source_filter_cascade(etalons, raw, exclusion_ghz=exclusion)
    profile = etalon_profile(etalons, raw)
    grid = np.arange(exclusion, rep.window_ghz + 0.002, 0.002)
    vals = profile(grid)
    k = int(np.argmax(vals))
    return rep, CascadeReport(
        effective_linewidth_ghz=rep.effective_linewidth_ghz,
        sidepeak_suppression_db=-10.0 * math.log10(float(vals[k]) / profile(0.0)),
        worst_sidepeak_ghz=float(grid[k]), window_ghz=rep.window_ghz)


@st.composite
def cascades(draw):
    """1-4 etalons with FSRs of 0.05-400 GHz and finesse up to 1e150, a
    raw line of 0.1 GHz-10 THz and an exclusion anywhere in the window."""
    etalons = []
    for _ in range(draw(st.integers(1, 4))):
        fsr = draw(st.floats(0.05, 400.0))
        finesse = 10.0 ** draw(st.floats(0.01, 150.0))
        etalons.append(Etalon(fsr, fsr / finesse))
    window = max(e.fsr_ghz for e in etalons) / 2.0
    return (tuple(etalons), 10.0 ** draw(st.floats(-1.0, 4.0)),
            window * draw(st.floats(0.0, 1.0, exclude_max=True)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(cascade=cascades())
# the worst side peak lies where an Airy factor still rises at the end of
# its block: a bound from the block start alone misses it
@example(cascade=((Etalon(12.1, 2.102), Etalon(255.3, 27.292)), 175.0, 4.9))
# the worst side peak lies in a block holding a comb tooth of the first
# etalon: there its factor is 1, above both ends
@example(cascade=((Etalon(1.9, 0.305), Etalon(75.4, 10.689)), 87.0, 4.9))
# a profile deep in the subnormal range: its maximum is tied across blocks
@example(cascade=((Etalon(200.0, 2e-148),), 1.4e-10, 50.0))
def test_source_cascade_equals_the_full_grid_search(cascade):
    """Branch and bound over blocks finds the full grid's first maximum."""
    try:
        got, want = full_grid_cascade(*cascade)
    except ConfigError:
        reject()
    assert got == want


def test_source_cascade_refuses_side_peaks_that_underflow():
    """Three etalons of finesse 1e150 leave no side peak above zero."""
    with pytest.raises(ConfigError, match="underflow"):
        source_filter_cascade([Etalon(100.0, 1e-148)] * 3, 1000.0)


def test_source_cascade_rejects_exclusion_inside_the_line(bench):
    with pytest.raises(ConfigError, match="exclusion"):
        source_filter_cascade(bench.source_etalons,
                              bench.source_raw_linewidth_ghz,
                              exclusion_ghz=0.1)


# -- scanning ----------------------------------------------------------------

def test_noise_off_carrier_height_is_exact(bench):
    s = noise_off(bench, "calibration", "det0")
    table = extract_peaks(s, bench.eoms)
    assert table.carrier_height == pytest.approx(1e6 * 25 / 64, rel=1e-12)


def test_noise_off_peaks_sit_at_modulation_frequencies(bench):
    s = noise_off(bench, "calibration", "det0")
    for spec in bench.eoms:
        iu, idn = s.nearest_indices([+spec.freq_ghz, -spec.freq_ghz])
        # each line tops its immediate neighbourhood and scans symmetrically
        assert s.intensity[iu] == s.intensity[iu - 2:iu + 3].max()
        assert s.intensity[iu] > 1.5 * min(s.intensity[iu - 2], s.intensity[iu + 2])
        assert s.intensity[iu] == pytest.approx(s.intensity[idn], rel=1e-9)


def test_noise_free_scan_sums_components_in_order_bit_for_bit(bench):
    """Expected counts equal the scalar sum over components, in their order."""
    c = build_circuit(bench, "bit1")
    s = scan_spectrum(c, "det1", bench.scan_etalon, bench.eoms, noise=False)
    comps = detector_components(propagate(c), "det1",
                                {e.label: e.freq_ghz for e in bench.eoms})
    fsr, lw = bench.scan_etalon.fsr_ghz, bench.scan_etalon.linewidth_ghz
    want = []
    for d in s.detuning_ghz:
        acc = 0.0
        for dk, qk in comps:
            acc += qk * oracles.airy(fsr, lw, d - dk)
        want.append(acc * 1e6)
    assert len(comps) > 2 and np.array_equal(s.intensity, want)


detunings = st.one_of(st.sampled_from([0.0, 2.8, -2.8]), st.floats(-6.0, 6.0))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(comps=st.lists(st.tuples(detunings, st.floats(0.0, 1.0, exclude_min=True)),
                      max_size=300))
def test_scan_sums_drawn_components_like_the_per_component_loop(bench, comps):
    """Empty, single, many and repeated components, bit for bit.  The scan
    table is computed under the stand-in components and leaves no entry."""
    c = build_circuit(bench, "bit1")
    with mock.patch.object(spectral, "detector_components", lambda *a: comps):
        spectral._scan_table.cache_clear()
        try:
            s = scan_spectrum(c, "det1", bench.scan_etalon, bench.eoms, noise=False)
        finally:
            spectral._scan_table.cache_clear()
    want = np.zeros_like(s.detuning_ghz)
    for dk, qk in comps:
        want += qk * bench.scan_etalon.transmission(s.detuning_ghz - dk)
    want *= 1e6
    assert np.array_equal(s.intensity, want)


@pytest.mark.parametrize("preset,detector,present", [
    ("bit0", "det0", {"C"}),
    ("bit1", "det1", {"E", "B", "F"}),
    ("calibration", "det0", {"A", "B", "C", "E", "F"}),
])
def test_presence_pattern(bench, preset, detector, present):
    s = noise_off(bench, preset, detector)
    table = extract_peaks(s, bench.eoms)
    got = {lab for lab, e in table.labels.items() if e.present}
    assert got == present


@pytest.mark.parametrize("preset,detector", [
    ("bit0", "det0"), ("bit1", "det1"), ("calibration", "det0")])
def test_ratios_reproduce_weak_trace_strengths(bench, preset, detector):
    """Spectral heights in calibration units equal squared-trace sums."""
    cal = extract_peaks(noise_off(bench, "calibration", "det0"), bench.eoms)
    table = extract_peaks(noise_off(bench, preset, detector), bench.eoms,
                          calibration=cal)
    trace = weak_trace(build_circuit(bench, preset, include_eoms=False),
                       detector)
    want = sideband_strengths(trace, bench)
    for lab, entry in table.labels.items():
        assert entry.height_over_calibration == pytest.approx(
            want[lab], abs=1e-9), lab


def test_doubled_labels_read_two_in_calibration_units(bench):
    cal = extract_peaks(noise_off(bench, "calibration", "det0"), bench.eoms)
    table = extract_peaks(noise_off(bench, "bit1", "det1"), bench.eoms,
                          calibration=cal)
    assert table.labels["B"].height_over_calibration == pytest.approx(2.0, abs=1e-9)
    assert table.labels["F"].height_over_calibration == pytest.approx(2.0, abs=1e-9)
    assert table.labels["E"].height_over_calibration == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore:scan range")
def test_noisy_scan_is_reproducible_and_plausible(bench):
    c = build_circuit(bench, "calibration")
    kw = dict(photons=1e5, seed=7, half_range_ghz=1.0)
    s1 = scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms, **kw)
    s2 = scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms, **kw)
    assert np.array_equal(s1.intensity, s2.intensity)
    assert np.array_equal(s1.stderr, s2.stderr)
    s3 = scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms, seed=8,
                       photons=1e5, half_range_ghz=1.0)
    assert not np.array_equal(s1.intensity, s3.intensity)
    # Poisson draws are whole counts with positive spread at the carrier
    assert np.array_equal(s1.intensity, np.round(s1.intensity))
    i0 = s1.nearest_indices([0.0])[0]
    mu = 1e5 * 25 / 64
    assert abs(s1.intensity[i0] - mu) < 6 * math.sqrt(mu)
    assert s1.stderr[i0] == pytest.approx(math.sqrt(mu), rel=0.5)


@pytest.mark.parametrize("photons", [1, 37, 1e6, 1e13])
@pytest.mark.parametrize("seed", [0, 5, 2**32 + 3, 2**64 - 1])
def test_noisy_scan_equals_the_per_point_stream_loop(bench, photons, seed):
    """Counts and error bars bit for bit, and no warning on the way."""
    c = build_circuit(bench, "bit1")
    expected = scan_spectrum(c, "det1", bench.scan_etalon, bench.eoms,
                             photons=photons, noise=False).intensity
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = scan_spectrum(c, "det1", bench.scan_etalon, bench.eoms,
                          photons=photons, seed=seed)
        got = s.intensity, s.stderr  # the counts are drawn here
    intensity, stderr = oracles.noisy_counts(expected, seed)
    assert np.array_equal(got[0], intensity)
    assert np.array_equal(got[1], stderr)


def noisy_bit1(bench, seed=20260):
    return scan_spectrum(build_circuit(bench, "bit1"), "det1",
                         bench.scan_etalon, bench.eoms, seed=seed)


@pytest.mark.parametrize("seed", [0, 20260, 2**64 - 1])
def test_peaks_of_a_fresh_noisy_scan_equal_those_of_its_full_read(bench, seed):
    """Peaks from the points drawn on demand equal the peaks read from the
    full arrays, and those equal the per-point stream loop."""
    cal = extract_peaks(noise_off(bench, "calibration", "det0"), bench.eoms)
    fresh = extract_peaks(noisy_bit1(bench, seed), bench.eoms, calibration=cal)
    s = noisy_bit1(bench, seed)
    intensity, stderr = s.intensity, s.stderr
    full = extract_peaks(s, bench.eoms, calibration=cal)
    assert fresh.to_jsonable() == full.to_jsonable()
    want = oracles.noisy_counts(noise_off(bench, "bit1", "det1").intensity, seed)
    assert np.array_equal(intensity, want[0])
    assert np.array_equal(stderr, want[1])


def test_extract_peaks_draws_only_the_points_it_reads(bench, monkeypatch):
    """The carrier and the +- sidebands of five modulators: 11 points, in
    one joint draw of counts and replicas; a later full read draws the
    whole grid once, and a read after it draws nothing."""
    real, drawn = spectral.point_poisson, []

    def counting(seed, points, lam, replicas):
        drawn.append(list(points))
        return real(seed, points, lam, replicas)

    monkeypatch.setattr(spectral, "point_poisson", counting)
    s = noisy_bit1(bench)
    assert drawn == []
    extract_peaks(s, bench.eoms)
    positions = [0.0] + [f for e in sorted(bench.eoms, key=lambda e: e.label)
                         for f in (e.freq_ghz, -e.freq_ghz)]
    want = s.nearest_indices(positions).tolist()
    assert len(want) == 11 and drawn == [want]
    drawn.clear()
    n = s.detuning_ghz.size
    assert s.stderr.size == s.intensity.size == n
    assert drawn == [list(range(n))]
    drawn.clear()
    extract_peaks(s, bench.eoms)
    assert drawn == []


def test_concurrent_reads_equal_the_serial_reads(bench):
    """Four threads read, at once, the same noisy spectra and spectra of
    their own: peak reads first, then full reads.  With the interpreter
    switching threads every microsecond, each read still equals the serial
    read, since every thread draws with its own generator, reset before
    each point."""
    seeds = {"shared": (3, 4), 0: (5, 6), 1: (7, 8), 2: (9, 10), 3: (11, 12)}

    def reads(spectra):
        peaks = [extract_peaks(s, bench.eoms).to_jsonable() for s in spectra]
        return peaks, [(s.intensity, s.stderr) for s in spectra]

    want = {key: reads([noisy_bit1(bench, seed) for seed in pair])
            for key, pair in seeds.items()}
    shared = [noisy_bit1(bench, seed) for seed in seeds["shared"]]
    own = {t: [noisy_bit1(bench, seed) for seed in seeds[t]] for t in range(4)}
    start, got = threading.Barrier(4), {}

    def work(t):
        start.wait(timeout=30)
        got[t] = reads(shared + own[t])

    threads = [threading.Thread(target=work, args=(t,)) for t in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for t in range(4):
        peaks, full = got[t]
        assert peaks == want["shared"][0] + want[t][0]
        for (y, err), (y0, err0) in zip(full, want["shared"][1] + want[t][1]):
            assert np.array_equal(y, y0) and np.array_equal(err, err0)


def test_scan_grid_size_is_limited(bench):
    """The largest odd grid below the limit is scanned; one more step, an
    enormous half-range or a vanishing step is refused before any work."""
    c = build_circuit(bench, "calibration")
    step = bench.scan_etalon.linewidth_ghz / 2.0
    n_half = (MAX_SCAN_POINTS - 1) // 2
    s = scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms, noise=False,
                      step_ghz=step, half_range_ghz=n_half * step)
    assert s.detuning_ghz.size == MAX_SCAN_POINTS - 1
    for half_range, step_ghz in [((n_half + 1) * step, step), (1e300, step),
                                 (4.0, 1e-300)]:
        with pytest.raises(ConfigError, match="points"):
            scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms,
                          half_range_ghz=half_range, step_ghz=step_ghz)


@pytest.mark.filterwarnings("ignore:scan range")
def test_scan_grid_and_guards(bench):
    c = build_circuit(bench, "calibration")
    with pytest.raises(ConfigError, match="step"):
        scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms, step_ghz=0.06)
    # exactly linewidth / 2 is the coarsest legal step
    s = scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms,
                      step_ghz=0.05, noise=False, half_range_ghz=0.5)
    assert s.detuning_ghz[0] == -0.5 and s.detuning_ghz[-1] == 0.5
    with pytest.raises(TopologyError, match="detector"):
        scan_spectrum(c, "det9", bench.scan_etalon, bench.eoms, noise=False)
    with pytest.warns(UserWarning, match="scan range"):
        scan_spectrum(c, "det0", bench.scan_etalon, bench.eoms,
                      half_range_ghz=2.0, noise=False)


def test_scans_share_one_expected_count_table(bench, monkeypatch):
    """A noise-free and a noisy scan of one circuit and detector compute
    their counts once, into read-only arrays; another photon number,
    detector or grid is a table of its own.  The range warning and the
    argument checks still run on every call."""
    real, computed = spectral.detector_components, []

    def counting(state, detector, freqs):
        computed.append(detector)
        return real(state, detector, freqs)

    monkeypatch.setattr(spectral, "detector_components", counting)
    spectral._scan_table.cache_clear()
    c = build_circuit(bench, "calibration")

    def scan(detector="det0", **kw):
        return scan_spectrum(c, detector, bench.scan_etalon, bench.eoms, **kw)

    quiet, noisy = scan(noise=False), scan(seed=9)
    assert computed == ["det0"]
    assert np.array_equal(quiet.expected, noisy.expected)
    table = spectral._scan_table(c, "det0", bench.scan_etalon,
                                 tuple((e.label, e.freq_ghz) for e in bench.eoms),
                                 80, 0.05, 1e6)
    assert computed == ["det0"] and not any(a.flags.writeable for a in table)
    assert np.array_equal(table[1], quiet.expected)
    scan(photons=1e4), scan(detector="det1"), scan(step_ghz=0.025)
    assert computed == ["det0", "det0", "det1", "det0"]
    for _ in range(2):
        with pytest.warns(UserWarning, match="scan range"):
            scan(half_range_ghz=2.0, noise=False)
        with pytest.raises(ConfigError, match="seed"):
            scan(seed=-1)
        with pytest.raises(ConfigError, match="photon"):
            scan(photons=math.inf)
    assert computed == ["det0", "det0", "det1", "det0", "det0"]


def test_unknown_detector_is_refused_before_any_walk(bench):
    """A refused scan neither walks its circuit nor evicts a cached walk."""
    c = build_circuit(bench, "bit0")
    circuit.propagate_cuts.cache_clear()
    with pytest.raises(TopologyError, match="detector"):
        scan_spectrum(c, "det9", bench.scan_etalon, bench.eoms, noise=False)
    assert circuit.propagate_cuts.cache_info()[:2] == (0, 0)  # no hit, no miss


@pytest.mark.filterwarnings("ignore:scan range")
def test_spectrum_csv_round_trips(bench, tmp_path):
    s = noise_off(bench, "bit1", "det1", half_range_ghz=1.0)
    path = tmp_path / "scan.csv"
    s.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "detuning_ghz,intensity,stderr"
    assert len(lines) == 1 + s.detuning_ghz.size
    d, y, e = (float(v) for v in lines[1].split(","))
    assert (d, y, e) == (s.detuning_ghz[0], s.intensity[0], s.stderr[0])


def test_spectrum_validation():
    scan = Etalon(8.0, 0.1)
    with pytest.raises(ConfigError, match="increasing"):
        Spectrum(np.array([0.0, 0.0]), np.zeros(2), "det0", scan)
    with pytest.raises(ConfigError, match="non-negative"):
        Spectrum(np.array([0.0, 1.0]), np.array([1.0, -2.0]), "det0", scan)
    # short arrays would write a short CSV; one point has no grid step
    with pytest.raises(ConfigError, match="grid's shape"):
        Spectrum(np.array([0.0, 1.0, 2.0]), np.zeros(2), "det0", scan)
    with pytest.raises(ConfigError, match="at least 2 points"):
        Spectrum(np.array([0.0]), np.zeros(1), "det0", scan)
    # only a noisy spectrum is bound by the Poisson sampler
    huge = np.array([1.0, 1e19])
    assert Spectrum(np.array([0.0, 1.0]), huge, "det0", scan).counts(1)[0] == 1e19
    with pytest.raises(ConfigError, match="Poisson"):
        Spectrum(np.array([0.0, 1.0]), huge, "det0", scan, seed=0)


def test_spectra_are_read_only_values(bench):
    """No field rebinds and no array takes a write, so the peaks read after
    every attempt equal those of a fresh scan; the caller's arrays are
    copied, not frozen."""
    grid, counts = np.linspace(-1.0, 1.0, 5), np.ones(5)
    s = Spectrum(grid, counts, "det0", bench.scan_etalon, seed=0)
    grid[0] = counts[0] = 7.0  # still the caller's to write
    assert s.detuning_ghz[0] == -1.0 and s.expected[0] == 1.0
    for scan in (lambda: noise_off(bench, "bit1", "det1"), lambda: noisy_bit1(bench)):
        s = scan()
        for name, value in [("detuning_ghz", s.detuning_ghz + 1.0),
                            ("expected", s.expected * 0.0), ("detector", "det0"),
                            ("scan_etalon", Etalon(8.0, 0.1)), ("seed", 1)]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(s, name, value)
        for a in (s.detuning_ghz, s.expected, s.intensity, s.stderr):
            with pytest.raises(ValueError, match="read-only"):
                a[:] = 0.0
        assert (extract_peaks(s, bench.eoms).to_jsonable()
                == extract_peaks(scan(), bench.eoms).to_jsonable())


@pytest.mark.filterwarnings("ignore:scan range")
def test_nearest_index_rejects_off_grid(bench):
    s = noise_off(bench, "bit0", "det0", half_range_ghz=1.0)
    assert s.nearest_indices([0.05]).tolist() == [s.detuning_ghz.size // 2 + 1]
    with pytest.raises(ConfigError, match="cover"):
        s.nearest_indices([1.5])


@pytest.mark.filterwarnings("ignore:scan range")
@settings(max_examples=40, deadline=None, derandomize=True)
@given(points=st.lists(st.one_of(st.floats(-1.1, 1.1),
                                 st.integers(0, 39).map(lambda i: 0.05 * i - 0.975)),
                       min_size=1, max_size=12))
def test_nearest_indices_equal_the_per_point_argmin(bench, points):
    """Midway between two grid points the first wins; past about half a
    step beyond either end of the grid a point is refused."""
    s = noise_off(bench, "bit0", "det0", half_range_ghz=1.0)
    grid, step = s.detuning_ghz, s.detuning_ghz[1] - s.detuning_ghz[0]
    want = [int(np.argmin(np.abs(grid - p))) for p in points]
    if all(abs(grid[i] - p) <= 0.51 * step for i, p in zip(want, points)):
        assert s.nearest_indices(points).tolist() == want
        assert [int(s.nearest_indices([p])[0]) for p in points] == want
    else:
        with pytest.raises(ConfigError, match="cover"):
            s.nearest_indices(points)


@pytest.mark.filterwarnings("ignore:scan range")
def test_nearest_index_refuses_nan(bench):
    s = noise_off(bench, "bit0", "det0", half_range_ghz=1.0)
    with pytest.raises(ConfigError, match="cover detuning nan"):
        s.nearest_indices([math.nan])
    with pytest.raises(ConfigError, match="cover detuning nan"):
        s.nearest_indices([0.0, math.nan])


def test_extract_peaks_refuses_a_nan_modulation_frequency(bench):
    """Not the grid edge's height: the peak is nowhere on the grid."""
    s = noise_off(bench, "bit0", "det0")
    eoms = [SimpleNamespace(label=e.label, alpha=e.alpha,
                            freq_ghz=math.nan if e.label == "C" else e.freq_ghz)
            for e in bench.eoms]
    with pytest.raises(ConfigError, match="cover"):
        extract_peaks(s, eoms)


def test_extract_peaks_refuses_two_positions_on_one_scan_point(bench, monkeypatch):
    """F at E's 2.8 GHz, which a DeviceConfig refuses, passed straight to
    the extraction: refused before any draw, not a singular solve."""
    eoms = [dataclasses.replace(e, freq_ghz=2.8) if e.label == "F" else e
            for e in bench.eoms]
    monkeypatch.setattr(spectral, "point_poisson", None)  # any draw fails
    for s in (noise_off(bench, "calibration", "det0"), noisy_bit1(bench)):
        with pytest.raises(ConfigError, match="2.8 and 2.8 GHz fall on one scan"):
            extract_peaks(s, eoms)


def test_extract_peaks_calibration_gate(bench):
    s = noise_off(bench, "bit0", "det0")
    with pytest.raises(ConfigError, match="lacks labels"):
        extract_peaks(s, bench.eoms, calibration=PeakTable(carrier_height=1.0))
    bad = PeakTable({e.label: None for e in bench.eoms}, carrier_height=0.0)
    with pytest.raises(ConfigError, match="carrier"):
        extract_peaks(s, bench.eoms, calibration=bad)


def test_peak_tables_are_read_only_values(bench):
    """A table keeps a read-only copy of its labels and rebinds no field, so
    its JSON after every attempt equals a fresh table's; a copy made for a
    tuning is read-only too."""
    entries = {"B": PeakEntry(True, 1.0, None)}
    own = PeakTable(entries)
    entries["C"] = PeakEntry(False, 0.0, None)  # still the caller's to write
    assert list(own.labels) == ["B"]
    table = extract_peaks(noise_off(bench, "bit1", "det1"), bench.eoms)
    tuned = dataclasses.replace(table, tuning="bit1")
    for t in (own, table, tuned):
        with pytest.raises(TypeError):
            t.labels["A"] = PeakEntry(True, 1.0, None)
        with pytest.raises(TypeError):
            del t.labels["B"]
        for name, value in [("labels", {}), ("carrier_height", 0.0),
                            ("detector", "det0"), ("tuning", "bit0")]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(t, name, value)
    fresh = extract_peaks(noise_off(bench, "bit1", "det1"), bench.eoms)
    assert table.to_jsonable() == fresh.to_jsonable()
    assert tuned.to_jsonable() == {**fresh.to_jsonable(), "tuning": "bit1"}


def test_peak_table_jsonable_shape(bench):
    table = extract_peaks(noise_off(bench, "bit0", "det0"), bench.eoms)
    out = table.to_jsonable()
    assert set(out) == {"detector", "tuning", "carrier_height", "labels"}
    assert sorted(out["labels"]) == ["A", "B", "C", "E", "F"]
    assert set(out["labels"]["C"]) == {"present", "height",
                                       "height_over_calibration"}
