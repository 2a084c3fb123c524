"""Command-line surface: outputs, config resolution, exit codes."""

import json
import subprocess
import sys

import numpy as np
import pytest

from cfcomm.cli import main
from cfcomm.protocol import Bitmap, read_pbm, write_pbm

from conftest import child_env, reference_dict


@pytest.fixture()
def image_path(tmp_path):
    rng = np.random.default_rng(4)
    path = tmp_path / "in.pbm"
    write_pbm(path, Bitmap(12, 9, rng.integers(0, 2, size=108, dtype=np.uint8)))
    return path


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- spectrum ----------------------------------------------------------------

def test_spectrum_writes_csv_and_peak_table(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code, stdout, _ = run(capsys, "spectrum", "--preset", "bit1",
                          "--detector", "det1", "--out", str(out),
                          "--no-noise")
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "detuning_ghz,intensity,stderr"
    assert len(lines) == 162  # 161 grid points on the default +-4 GHz scan
    table = json.loads(stdout)
    assert table["tuning"] == "bit1" and table["detector"] == "det1"
    assert table["labels"]["B"]["present"]
    assert table["labels"]["B"]["height_over_calibration"] == pytest.approx(
        2.0, abs=1e-6)
    assert not table["labels"]["A"]["present"]


def test_noisy_spectrum_draws_each_point_once(tmp_path, capsys, monkeypatch):
    """The CSV reads the whole grid, so it is drawn once, before the peaks,
    which then read the drawn counts: one joint draw of counts and replicas
    over the whole grid."""
    from cfcomm import spectral
    real, drawn = spectral.point_poisson, []

    def counting(seed, points, lam, replicas):
        drawn.append(len(points))
        return real(seed, points, lam, replicas)

    monkeypatch.setattr(spectral, "point_poisson", counting)
    out = tmp_path / "scan.csv"
    code, stdout, _ = run(capsys, "spectrum", "--preset", "bit1",
                          "--detector", "det1", "--out", str(out))
    assert code == 0 and json.loads(stdout)["labels"]["B"]["present"]
    assert drawn == [161]
    assert len(out.read_text().splitlines()) == 162


def test_spectrum_without_a_carrier_leaves_ratios_unset(tmp_path, capsys):
    """Three photons unmix to no positive carrier, so there is no unit to
    express a peak in: every ratio is null, not 0.0 as for an absent peak."""
    code, stdout, _ = run(capsys, "spectrum", "--preset", "bit1",
                          "--detector", "det1", "--out",
                          str(tmp_path / "s.csv"), "--photons", "3")
    assert code == 0
    table = json.loads(stdout)
    assert table["carrier_height"] <= 0.0
    assert sorted(table["labels"]) == ["A", "B", "C", "E", "F"]
    for entry in table["labels"].values():
        assert entry["height_over_calibration"] is None


def test_spectrum_modulator_without_depth_reads_zero(tmp_path, capsys):
    """An ``alpha`` 0 modulator makes no sideband and has no unit of its
    own: with a positive carrier its ratio reads 0.0, not null."""
    doc = reference_dict()
    doc["eoms"]["link"]["alpha"] = 0.0
    cfg = tmp_path / "flat-link.json"
    cfg.write_text(json.dumps(doc))
    code, stdout, _ = run(capsys, "--config", str(cfg), "spectrum",
                          "--preset", "bit1", "--detector", "det1",
                          "--out", str(tmp_path / "s.csv"), "--no-noise")
    assert code == 0
    table = json.loads(stdout)
    assert table["carrier_height"] > 0.0
    assert table["labels"]["F"]["height_over_calibration"] == 0.0
    assert table["labels"]["B"]["height_over_calibration"] > 1.0


def test_spectrum_on_dark_detector_fails_cleanly(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", "--preset", "bit0",
                       "--detector", "det1", "--out", str(tmp_path / "x.csv"))
    assert code == 3
    assert "error:" in err
    assert not (tmp_path / "x.csv").exists()


def test_spectrum_rejects_bad_step(tmp_path, capsys):
    code, _, err = run(capsys, "spectrum", "--preset", "bit1",
                       "--detector", "det1", "--out", str(tmp_path / "x.csv"),
                       "--step", "0.2")
    assert code == 2
    assert "step" in err


SCAN = ("spectrum", "--preset", "bit1", "--detector", "det1",
        "--out", "{tmp}/scan.csv")
BAD_RUNS = {
    "step 0": (*SCAN, "--step", "0"),
    "step -0.05": (*SCAN, "--step", "-0.05"),
    "step nan": (*SCAN, "--step", "nan"),
    "half-range -1": (*SCAN, "--half-range", "-1"),
    "half-range 0": (*SCAN, "--half-range", "0"),
    "half-range 0.01": (*SCAN, "--half-range", "0.01"),
    "half-range nan": (*SCAN, "--half-range", "nan"),
    "half-range inf": (*SCAN, "--half-range", "inf"),
    "half-range 1e300": (*SCAN, "--half-range", "1e300"),
    "step 1e-300": (*SCAN, "--step", "1e-300"),
    "photons nan": (*SCAN, "--photons", "nan"),
    "photons inf": (*SCAN, "--photons", "inf"),
    "photons 1e300": (*SCAN, "--photons", "1e300"),
    "spectrum out": (*SCAN[:-1], "{tmp}/none/scan.csv"),
    "send-image out": ("send-image", "--image", "{image}",
                       "--out", "{tmp}/none/o.pbm"),
    "send-image stats": ("send-image", "--image", "{image}", "--out",
                         "{tmp}/o.pbm", "--stats", "{tmp}/none/stats.json"),
}


@pytest.mark.parametrize("argv", BAD_RUNS.values(), ids=BAD_RUNS)
def test_malformed_flags_and_unwritable_paths_exit_2(tmp_path, capsys,
                                                      image_path, argv):
    """Run in process: an exception escaping ``main`` fails the test."""
    argv = [a.format(tmp=tmp_path, image=image_path) for a in argv]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and err.startswith("error:")


FAILING_RUNS = {
    # the scan stops short of the 3.4 GHz sidebands peak extraction reads
    "spectrum half-range 2": (*SCAN[:-1], "{tmp}/scan.csv", "--half-range", "2"),
    "send-image stats": BAD_RUNS["send-image stats"],
    "send-image quota 1e20": ("send-image", "--image", "{image}", "--out",
                              "{tmp}/o.pbm", "--policy",
                              "majority:100000000000000000000"),
}


@pytest.mark.filterwarnings("ignore:scan range")
@pytest.mark.parametrize("argv", FAILING_RUNS.values(), ids=FAILING_RUNS)
def test_failed_runs_leave_no_output_file(tmp_path, capsys, image_path, argv):
    """Outputs are written only once nothing else can fail."""
    fresh = tmp_path / "fresh"
    fresh.mkdir()
    argv = [a.format(tmp=fresh, image=image_path) for a in argv]
    code, stdout, err = run(capsys, *argv)
    assert code == 2 and stdout == "" and err.startswith("error:")
    assert list(fresh.iterdir()) == []


# -- trace -------------------------------------------------------------------

def test_trace_reports_floored_values(capsys):
    code, stdout, _ = run(capsys, "trace", "--preset", "bit0",
                          "--detector", "det0")
    assert code == 0
    values = json.loads(stdout)
    assert values["reference"] == pytest.approx(1.0, abs=1e-12)
    gone = {arm: v for arm, v in values.items() if arm != "reference"}
    assert set(gone) == {"entry", "shutter_arm_1", "shutter_arm_2",
                         "open_arm_1", "open_arm_2", "link_1", "link_2",
                         "exit"}
    assert all(v == 0.0 for v in gone.values())


def test_trace_bit1_shows_channel_but_not_shutter_arms(capsys):
    code, stdout, _ = run(capsys, "trace", "--preset", "bit1",
                          "--detector", "det1")
    assert code == 0
    values = json.loads(stdout)
    assert values["shutter_arm_1"] == 0.0 and values["shutter_arm_2"] == 0.0
    assert values["open_arm_1"] > 0.9
    assert values["reference"] == 0.0


def test_trace_dark_detector_exit_code(capsys):
    code, _, err = run(capsys, "trace", "--preset", "bit1", "--detector", "det0")
    assert code == 3 and "error:" in err


def test_unknown_preset_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--preset", "bit2", "--detector", "det0"])
    assert exc.value.code == 2


# -- send-image --------------------------------------------------------------

def test_send_image_round_trip_with_stats(tmp_path, capsys, image_path):
    out = tmp_path / "out.pbm"
    stats = tmp_path / "stats.json"
    code, stdout, _ = run(capsys, "send-image", "--image", str(image_path),
                          "--out", str(out), "--stats", str(stats))
    assert code == 0
    assert read_pbm(out) == read_pbm(image_path)  # ideal bench: no errors
    payload = json.loads(stdout)
    assert payload == json.loads(stats.read_text())
    assert payload["pixel_error_rate"] == 0.0
    assert payload["erasures"] == 0


def test_send_image_missing_input(tmp_path, capsys):
    code, _, err = run(capsys, "send-image", "--image",
                       str(tmp_path / "none.pbm"), "--out",
                       str(tmp_path / "o.pbm"))
    assert code == 2
    assert "cannot read" in err


def test_send_image_fitted_bench_makes_errors(tmp_path, capsys, image_path):
    code, stdout, _ = run(capsys, "--fitted", "send-image", "--image",
                          str(image_path), "--out", str(tmp_path / "o.pbm"),
                          "--seed", "12")
    assert code == 0
    assert json.loads(stdout)["pixel_error_rate"] > 0.0


# -- source-filter -----------------------------------------------------------

def test_source_filter_summary(capsys):
    code, stdout, _ = run(capsys, "source-filter")
    assert code == 0
    payload = json.loads(stdout)
    assert set(payload) == {"effective_linewidth_ghz",
                            "sidepeak_suppression_db"}
    assert payload["effective_linewidth_ghz"] == pytest.approx(0.30, abs=0.06)
    assert payload["sidepeak_suppression_db"] >= 20.0


SOURCE_FILTER_OUT_OF_RANGE = {
    "fsr-1.5": ("source_etalons", [{"fsr_ghz": 1.5, "linewidth_ghz": 0.1}]),
    "fsr-2": ("source_etalons", [{"fsr_ghz": 2.0, "linewidth_ghz": 0.1}]),
    "fsr-4200": ("source_etalons", [{"fsr_ghz": 4200.0, "linewidth_ghz": 0.1}]),
    "finesse-1e600": ("source_etalons", [{"fsr_ghz": 1e300, "linewidth_ghz": 1e-300}]),
    "finesse-1e302": ("source_etalons", [{"fsr_ghz": 100.0, "linewidth_ghz": 1e-300}]),
    "raw-1e-300": ("source_raw_linewidth_ghz", 1e-300),
}


@pytest.mark.parametrize("key,value", SOURCE_FILTER_OUT_OF_RANGE.values(),
                         ids=SOURCE_FILTER_OUT_OF_RANGE)
def test_source_filter_out_of_range_exits_2(tmp_path, capsys, key, value):
    """An empty or oversized side-peak window and overflowing line shapes."""
    doc = reference_dict()
    doc[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "--config", str(bad), "source-filter")
    assert code == 2 and stdout == "" and err.startswith("error:")


# -- config resolution --------------------------------------------------------

def test_env_config_is_honoured(tmp_path, capsys, monkeypatch, image_path):
    doc = reference_dict()
    doc["seed"] = 41
    env_cfg = tmp_path / "env.json"
    env_cfg.write_text(json.dumps(doc))
    monkeypatch.setenv("CFCOMM_CONFIG", str(env_cfg))
    _, stdout, _ = run(capsys, "send-image", "--image", str(image_path),
                       "--out", str(tmp_path / "o.pbm"))
    assert json.loads(stdout)["seed"] == 41


def test_config_flag_beats_environment(tmp_path, capsys, monkeypatch, image_path):
    for name, seed in (("env.json", 41), ("flag.json", 17)):
        doc = reference_dict()
        doc["seed"] = seed
        (tmp_path / name).write_text(json.dumps(doc))
    monkeypatch.setenv("CFCOMM_CONFIG", str(tmp_path / "env.json"))
    _, stdout, _ = run(capsys, "--config", str(tmp_path / "flag.json"),
                       "send-image", "--image", str(image_path),
                       "--out", str(tmp_path / "o.pbm"))
    assert json.loads(stdout)["seed"] == 17


def test_malformed_config_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"eoms\": {}}")
    code, _, err = run(capsys, "--config", str(bad), "source-filter")
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("path", [("attenuatr_t",), ("scan_etalon", "centre_offset_ghz")],
                         ids=lambda p: p[-1])
def test_misspelled_config_key_exits_2(tmp_path, capsys, path):
    """A misspelled key would leave its default in place without a word."""
    doc = reference_dict()
    node = doc if len(path) == 1 else doc[path[0]]
    node[path[-1]] = 0.4
    bad = tmp_path / "typo.json"
    bad.write_text(json.dumps(doc))
    code, stdout, err = run(capsys, "--config", str(bad), "trace", "--preset",
                            "bit1", "--detector", "det1")
    assert code == 2 and stdout == "" and path[-1] in err


def test_non_utf8_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "latin1.json"
    bad.write_bytes(json.dumps(reference_dict()).encode()[:-1] + b', "\xff": 1}')
    code, stdout, err = run(capsys, "--config", str(bad), "source-filter")
    assert code == 2 and stdout == "" and "UTF-8" in err


def test_deeply_nested_config_exits_2(tmp_path, capsys):
    """json.load recurses per nesting level: its RecursionError is mapped."""
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    code, stdout, err = run(capsys, "--config", str(deep), "source-filter")
    assert code == 2 and stdout == "" and "nested too deeply" in err
    assert "Traceback" not in err


def test_duplicate_config_key_exits_2(tmp_path, capsys):
    """A repeated key must not fall back silently on the auto balance."""
    doc = reference_dict()
    del doc["attenuator_t"]
    bad = tmp_path / "dup.json"
    bad.write_text(json.dumps(doc)[:-1] + ', "attenuator_t": 0.4, "attenuator_t": "auto"}')
    code, stdout, err = run(capsys, "--config", str(bad), "trace", "--preset",
                            "bit1", "--detector", "det1")
    assert code == 2 and stdout == "" and "'attenuator_t'" in err


def test_raw_bitmap_exits_2(tmp_path, capsys):
    """A raw (P4) bitmap is binary: refused as not plain, never decoded."""
    raw = tmp_path / "raw.pbm"
    raw.write_bytes(b"P4\n2 2\n\xff\xfe")
    code, stdout, err = run(capsys, "send-image", "--image", str(raw),
                            "--out", str(tmp_path / "o.pbm"))
    assert code == 2 and stdout == "" and "not a plain P1 bitmap" in err


def test_non_finite_config_value_exits_2(tmp_path, capsys, image_path):
    doc = reference_dict()
    doc["photon_rate_hz"] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))  # json spells it NaN
    code, _, err = run(capsys, "--config", str(bad), "send-image", "--image",
                       str(image_path), "--out", str(tmp_path / "o.pbm"))
    assert code == 2 and "photon_rate_hz" in err


@pytest.mark.parametrize("digits,field,argv", [
    (401, ("photon_rate_hz",), ("source-filter",)),
    (401, ("eoms", "entry", "alpha"), ("trace", "--preset", "bit1", "--detector", "det1")),
    # more digits than int() converts: json itself refuses the number
    (5001, ("photon_rate_hz",), ("source-filter",)),
], ids=["rate", "alpha", "past-int-digits"])
def test_huge_config_integer_exits_2_without_traceback(tmp_path, digits, field, argv):
    """In a child, where a traceback would reach stderr."""
    doc = reference_dict()
    node = doc if len(field) == 1 else doc[field[0]][field[1]]
    node[field[-1]] = "@huge@"
    (tmp_path / "huge.json").write_text(
        json.dumps(doc).replace('"@huge@"', "1" + "0" * (digits - 1)))
    proc = subprocess.run([sys.executable, "-m", "cfcomm", "--config", "huge.json",
                           *argv], capture_output=True, cwd=tmp_path, env=child_env())
    err = proc.stderr.decode()
    assert proc.returncode == 2 and proc.stdout == b""
    assert err.startswith("error: ") and "Traceback" not in err


def test_trials_used_counts_past_int64(tmp_path, capsys):
    """4e18 trials per bin and 1e-30 heralding: all six pixels erased."""
    doc = reference_dict()
    doc["photon_rate_hz"] = 4e18
    doc["imperfections"]["heralding_efficiency"] = 1e-30
    cfg = tmp_path / "bright.json"
    cfg.write_text(json.dumps(doc))
    image = tmp_path / "in.pbm"
    image.write_text("P1\n3 2\n1 0 1\n0 1 0\n")
    code, stdout, _ = run(capsys, "--config", str(cfg), "send-image", "--image",
                          str(image), "--out", str(tmp_path / "o.pbm"))
    assert code == 0
    assert '"trials_used": 24000000000000000000' in stdout
    assert json.loads(stdout)["erasures"] == 6


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_seed_outside_0_to_2_64_exits_2(tmp_path, capsys, image_path, seed):
    scan = ("spectrum", "--preset", "bit1", "--detector", "det1",
            "--out", str(tmp_path / "scan.csv"), "--seed", seed)
    for argv in (scan, scan + ("--no-noise",),
                 ("send-image", "--image", str(image_path),
                  "--out", str(tmp_path / "o.pbm"), "--seed", seed)):
        code, stdout, err = run(capsys, *argv)
        assert code == 2 and stdout == "" and "seed must be in [0, 2**64)" in err
    assert not (tmp_path / "scan.csv").exists()
    assert not (tmp_path / "o.pbm").exists()


def test_largest_seed_is_reported_as_given(tmp_path, capsys, image_path):
    code, stdout, _ = run(capsys, "send-image", "--image", str(image_path),
                          "--out", str(tmp_path / "o.pbm"),
                          "--seed", str(2**64 - 1))
    assert code == 0 and json.loads(stdout)["seed"] == 2**64 - 1


# -- determinism across interpreter hashing -----------------------------------

def run_cli(tmp_path, hashseed, *argv):
    env = child_env(PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run([sys.executable, "-m", "cfcomm", *argv],
                          capture_output=True, cwd=tmp_path, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


def test_outputs_are_byte_identical_across_hash_seeds(tmp_path):
    args = ("spectrum", "--preset", "bit1", "--detector", "det1",
            "--seed", "5", "--out", "scan.csv")
    first = run_cli(tmp_path, 1, *args)
    csv_first = (tmp_path / "scan.csv").read_bytes()
    second = run_cli(tmp_path, 2, *args)
    assert first == second
    assert csv_first == (tmp_path / "scan.csv").read_bytes()


def test_noisy_spectrum_writes_nothing_to_stderr(tmp_path):
    """In a child, where any warning would reach stderr."""
    argv = ("spectrum", "--preset", "bit1", "--detector", "det1",
            "--seed", str(2**64 - 1), "--photons", "37", "--out", "scan.csv")
    proc = subprocess.run([sys.executable, "-m", "cfcomm", *argv],
                          capture_output=True, cwd=tmp_path, env=child_env())
    assert proc.returncode == 0 and proc.stdout and proc.stderr == b""
