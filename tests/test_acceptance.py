"""End-to-end acceptance suite.

One test per numbered claim about the simulator; each prints a
``[criterion N] PASS/FAIL`` line so a verbose run reads as a checklist.
"""

import dataclasses
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from cfcomm import circuit as ci
from cfcomm.circuit import (FoldedDevice, build_circuit, detection_probs,
                            expand_folded, overlap, sideband_strengths,
                            solve_tuning, two_state_vector, weak_trace)
from cfcomm.config import load_config, reference_device
from cfcomm.protocol import (Bitmap, model_error_rates, transmit_image,
                             write_pbm)
from cfcomm.spectral import extract_peaks, scan_spectrum, source_filter_cascade

from conftest import as_listing, child_env, listing_walk_gap, oracle_listing

BENCH = reference_device()
FITTED = reference_device(fitted=True)
ASYMMETRIC = load_config(Path(__file__).with_name("data") / "asymmetric-bench.json")

BRIGHT = [("bit0", "det0"), ("bit1", "det1"), ("calibration", "det0")]


def check(num: int, desc: str, ok: bool) -> None:
    print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {desc}")
    assert ok, f"criterion {num}: {desc}"


def noise_off(preset: str, detector: str):
    c = build_circuit(BENCH, preset)
    return scan_spectrum(c, detector, BENCH.scan_etalon, BENCH.eoms, noise=False)


def ratio_table(preset: str, detector: str):
    cal = extract_peaks(noise_off("calibration", "det0"), BENCH.eoms)
    return extract_peaks(noise_off(preset, detector), BENCH.eoms,
                         calibration=cal)


def test_criterion_1_counterfactuality():
    """Sent photons leave no first-order mark on the blockable arms."""
    t0 = time.perf_counter()
    ok = True
    for preset, detector in (("bit0", "det0"), ("bit1", "det1")):
        trace = weak_trace(build_circuit(BENCH, preset, include_eoms=False),
                           detector).values
        ok &= trace[ci.SHUTTER_1] <= 1e-12 and trace[ci.SHUTTER_2] <= 1e-12
        ok &= not ratio_table(preset, detector).labels["A"].present
    cal = ratio_table("calibration", "det0")
    ok &= all(cal.labels[lab].present for lab in "ABCEF")
    elapsed = time.perf_counter() - t0
    check(1, f"shutter-arm traces <= 1e-12, A-peak absent for both bits, "
             f"all five calibration peaks present ({elapsed:.2f}s < 1s)",
          ok and elapsed < 1.0)


def test_criterion_2_doubling_ratio():
    """Twice-traversed modulators read 2.00 in calibration units."""
    table = ratio_table("bit1", "det1")
    b = table.labels["B"].height_over_calibration
    f = table.labels["F"].height_over_calibration
    ok = abs(b - 2.0) <= 1e-6 and abs(f - 2.0) <= 1e-6

    c = build_circuit(BENCH, "bit1")
    noisy = scan_spectrum(c, "det1", BENCH.scan_etalon, BENCH.eoms,
                          photons=1e6, seed=0, noise=True)
    cal_noisy = scan_spectrum(build_circuit(BENCH, "calibration"), "det0",
                              BENCH.scan_etalon, BENCH.eoms,
                              photons=1e6, seed=1, noise=True)
    noisy_table = extract_peaks(noisy, BENCH.eoms,
                                calibration=extract_peaks(cal_noisy, BENCH.eoms))
    bn = noisy_table.labels["B"].height_over_calibration
    fn = noisy_table.labels["F"].height_over_calibration
    ok &= abs(bn - 2.0) <= 0.2 and abs(fn - 2.0) <= 0.2
    check(2, f"noise-off B={b:.8f}, F={f:.8f} (2 +- 1e-6); "
             f"1e6-photon Poisson B={bn:.3f}, F={fn:.3f} (2 +- 0.2)", ok)


def test_criterion_3_ideal_logic():
    """Auto-balance lands the closed-form attenuation and probabilities."""
    tun = solve_tuning(BENCH)
    p_bit0 = detection_probs(build_circuit(BENCH, "bit0", include_eoms=False))
    p_bit1 = detection_probs(build_circuit(BENCH, "bit1", include_eoms=False))
    ok = abs(tun.attenuator_t - 0.25) <= 1e-10
    ok &= p_bit0["det1"] <= 1e-12 and p_bit1["det0"] <= 1e-12
    ok &= abs(p_bit0["det0"] - 1 / 64) <= 1e-12
    ok &= abs(p_bit1["det1"] - 1 / 32) <= 1e-12
    check(3, f"t={tun.attenuator_t:.12f}; wrong-detector probabilities "
             f"{p_bit0['det1']:.2e}/{p_bit1['det0']:.2e}; "
             f"P(det0|bit0)=1/64, P(det1|bit1)=1/32 to 1e-12", ok)


def test_criterion_4_two_state_consistency():
    """Overlap is cut-invariant; spectra equal squared-trace strengths."""
    ok = True
    worst_drift = 0.0
    for preset, detector in BRIGHT:
        for include_eoms in (False, True):
            c = build_circuit(BENCH, preset, include_eoms=include_eoms)
            tsv = two_state_vector(c, detector)
            vals = [overlap(f, b) for f, b in zip(tsv.forward, tsv.backward)]
            drift = max(abs(v - vals[0]) for v in vals)
            worst_drift = max(worst_drift, drift)
            ok &= len(vals) >= 10 and drift <= 1e-12

    worst_gap = 0.0
    for preset, detector in BRIGHT:
        want = sideband_strengths(
            weak_trace(build_circuit(BENCH, preset, include_eoms=False),
                       detector), BENCH)
        table = ratio_table(preset, detector)
        for lab, entry in table.labels.items():
            gap = abs(entry.height_over_calibration - want[lab]) \
                / max(1.0, abs(want[lab]))
            worst_gap = max(worst_gap, gap)
    ok &= worst_gap <= 1e-9
    check(4, f"overlap drift {worst_drift:.2e} <= 1e-12 over >= 10 cuts; "
             f"spectral/trace gap {worst_gap:.2e} <= 1e-9, all tunings", ok)


def test_criterion_5_truncation_error():
    """First-order model sits within 5 alpha^2 of the order-2 expansion."""
    ok = True
    reports = []
    for alpha, tol in ((0.146, 5 * 0.146 ** 2), (0.01, 5e-4)):
        cfg = dataclasses.replace(
            BENCH, eoms=tuple(dataclasses.replace(e, alpha=alpha)
                              for e in BENCH.eoms))
        worst = 0.0
        for preset, _ in BRIGHT:
            c = build_circuit(cfg, preset)
            p1 = detection_probs(c, max_order=1)
            p2 = detection_probs(c, max_order=2)
            worst = max(worst, *(abs(p2[d] - p1[d]) for d in p1))
        ok &= worst <= tol
        reports.append(f"alpha={alpha}: {worst:.2e} <= {tol:.3g}")
    check(5, "; ".join(reports), ok)


def test_criterion_6_source_filter():
    """The etalon pair narrows the source to ~0.3 GHz, side peaks < -20 dB."""
    rep = source_filter_cascade(BENCH.source_etalons,
                                BENCH.source_raw_linewidth_ghz)
    ok = abs(rep.effective_linewidth_ghz - 0.30) <= 0.06
    ok &= rep.sidepeak_suppression_db >= 20.0
    check(6, f"effective linewidth {rep.effective_linewidth_ghz:.4f} GHz "
             f"(0.30 +- 0.06); worst side peak "
             f"-{rep.sidepeak_suppression_db:.2f} dB (<= -20 dB)", ok)


def test_criterion_7_protocol_statistics():
    """Transport statistics reproduce the fitted error model, then a
    145x145 bitmap survives majority voting in >= 99/100 seeds."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(2026)
    bits = rng.integers(0, 2, size=145 * 145, dtype=np.uint8)
    image = Bitmap(145, 145, bits)

    res = transmit_image(FITTED, image, policy="first-click", seed=1)
    err0_t, err1_t = model_error_rates(
        FITTED, FITTED.imperfections.visibility_inner,
        FITTED.imperfections.visibility_outer)
    n0 = int((bits == 0).sum())  # no erasures at 1000 trials per bin
    n1 = int((bits == 1).sum())
    ok = res.erasures == 0
    ok &= abs(res.err0 - err0_t) <= 3 * math.sqrt(err0_t * (1 - err0_t) / n0)
    ok &= abs(res.err1 - err1_t) <= 3 * math.sqrt(err1_t * (1 - err1_t) / n1)

    clean = sum(
        transmit_image(FITTED, image, policy="majority:101",
                       seed=s).pixel_error_rate == 0.0
        for s in range(100))
    elapsed = time.perf_counter() - t0
    ok &= clean >= 99 and elapsed < 60.0
    check(7, f"first-click err0={res.err0:.4f}/err1={res.err1:.4f} within "
             f"3 sigma of ({err0_t:.3f}, {err1_t:.3f}) over 21025 bits; "
             f"majority:101 clean in {clean}/100 seeds ({elapsed:.1f}s < 60s)",
          ok)


def _run_everywhere(tmp_path, tag: str, hashseed: str, threads: str) -> bytes:
    env = child_env(PYTHONHASHSEED=hashseed, OMP_NUM_THREADS=threads,
                    OPENBLAS_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
    work = tmp_path / tag
    work.mkdir()
    write_pbm(work / "in.pbm", Bitmap(8, 8, np.arange(64) % 2))
    blob = b""
    for argv in (
        ["spectrum", "--preset", "bit1", "--detector", "det1",
         "--seed", "5", "--out", "scan.csv"],
        ["trace", "--preset", "bit0", "--detector", "det0"],
        ["--fitted", "send-image", "--image", "in.pbm", "--out", "out.pbm",
         "--stats", "stats.json", "--seed", "7"],
        ["source-filter"],
    ):
        proc = subprocess.run([sys.executable, "-m", "cfcomm", *argv],
                              capture_output=True, cwd=work, env=env)
        assert proc.returncode == 0, proc.stderr.decode()
        blob += proc.stdout
    for name in ("scan.csv", "out.pbm", "stats.json"):
        blob += (work / name).read_bytes()
    return blob


def test_criterion_8_byte_determinism(tmp_path):
    """Every command is byte-stable across hash seeds and thread counts."""
    a = _run_everywhere(tmp_path, "a", hashseed="1", threads="1")
    b = _run_everywhere(tmp_path, "b", hashseed="2", threads="4")
    check(8, "spectrum/trace/send-image/source-filter outputs identical "
             "under PYTHONHASHSEED 1 vs 2 and 1 vs 4 BLAS threads", a == b)


def test_criterion_9_folding_equivalence():
    """The folded bench unrolls to the hand-written listing of ``oracles``,
    element for element, and shares every probability with the listing's
    oracle walk; the asymmetric bench tells the splitters of a pass apart."""
    same, worst = True, 0.0
    for cfg in (BENCH, ASYMMETRIC):
        for preset, _ in BRIGHT:
            want = oracle_listing(cfg, preset)
            for c in (build_circuit(cfg, preset),
                      expand_folded(FoldedDevice.from_config(cfg, preset))):
                same &= as_listing(c) == want
                worst = max(worst, listing_walk_gap(c, want))
    check(9, f"unrolled circuits equal the listing: {same}; probability gap "
             f"{worst:.2e} <= 1e-12 against its walk, for all three tunings "
             "of the reference and asymmetric benches", same and worst <= 1e-12)
