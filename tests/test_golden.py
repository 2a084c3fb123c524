"""Golden outputs: the CLI's bytes on a fixed command set, as SHA-256 digests.

Each command runs in process through ``cli.main`` in a fresh directory.  Its
outputs -- exit code, stdout, stderr (warnings included, as category and
message) and the CSV, PBM and stats files it may write -- are hashed and
compared with ``golden_manifest.json``; a file the run did not write is
recorded as ``null``.  The set runs on both packaged benches and, through
``--config``, on ``data/asymmetric-bench.json``: unequal splitters, unequal
modulation depths, visibilities below 1, dark counts and a heralding
efficiency below 1, where sums that cancel on the 50/50 benches do not.  A
mismatch names the command and the output that changed.  Hash-seed and
thread-count invariance is criterion 8's job.

A change that alters an output on purpose rewrites the manifest with::

    PYTHONPATH=src python tests/test_golden.py

and explains each changed digest.  The test itself never writes it.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

from cfcomm.cli import ENV_CONFIG, main

MANIFEST = Path(__file__).with_name("golden_manifest.json")

#: the asymmetric, imperfect bench, copied into each run's directory
ASYMMETRIC = Path(__file__).with_name("data") / "asymmetric-bench.json"
BENCHES = ((), ("--fitted",), ("--config", ASYMMETRIC.name))

#: output files a command may write, by their manifest name
FILES = {"csv": "scan.csv", "pbm": "out.pbm", "stats": "stats.json"}

#: a 16x12 plain bitmap with both bit values in every row
IMAGE = "P1\n16 12\n" + "".join(
    "".join("1" if (3 * x + 5 * y) % 7 < 3 else "0" for x in range(16)) + "\n"
    for y in range(12))

SEEDS = ("0", "5", str(2**64 - 1))
SPECTRA = (("bit0", "det0"), ("bit1", "det1"), ("calibration", "det0"),
           ("bit0", "det1"))  # the last is dark on a 50/50 bench: exit 3
SCAN = ("spectrum", "--preset", "bit1", "--detector", "det1", "--out", "scan.csv")
IMAGE_RUN = ("send-image", "--image", "in.pbm", "--out", "out.pbm",
             "--stats", "stats.json")
FAILING = (
    (*SCAN, "--step", "0.2"),
    (*SCAN, "--half-range", "2"),
    (*SCAN, "--seed", str(2**64)),
    (*SCAN[:-1], "none/scan.csv"),
    ("spectrum", "--preset", "bit2", "--detector", "det1", "--out", "scan.csv"),
    ("send-image", "--image", "missing.pbm", "--out", "out.pbm"),
    (*IMAGE_RUN[:-1], "none/stats.json"),
    (*IMAGE_RUN, "--policy", "majority:100000000000000000000"),
)


def commands() -> list[tuple[str, ...]]:
    """The command set: every run, on each of the three benches."""
    runs: list[tuple[str, ...]] = []
    for preset, detector in SPECTRA:
        for seed in SEEDS:
            for noise in ((), ("--no-noise",)):
                runs.append(("spectrum", "--preset", preset, "--detector",
                             detector, "--out", "scan.csv", "--seed", seed,
                             *noise))
    for preset in ("bit0", "bit1", "calibration"):
        for detector in ("det0", "det1"):
            runs.append(("trace", "--preset", preset, "--detector", detector))
    runs.append(("source-filter",))
    for policy in ("first-click", "majority:4", "majority:101"):
        for seed in ("7", "123456789"):
            runs.append((*IMAGE_RUN, "--policy", policy, "--seed", seed))
    runs.extend(FAILING)
    return [bench + run for bench in BENCHES for run in runs]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_command(argv: tuple[str, ...]) -> dict[str, str | None]:
    """Digest of every output of one in-process run (cwd: a fresh directory)."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            Path("in.pbm").write_text(IMAGE)
            Path(ASYMMETRIC.name).write_bytes(ASYMMETRIC.read_bytes())
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                    warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(list(argv))
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            for w in caught:
                err.write(f"{w.category.__name__}: {w.message}\n")
            digests = {"exit": _sha(str(code).encode()),
                       "stdout": _sha(out.getvalue().encode()),
                       "stderr": _sha(err.getvalue().encode())}
            for name, path in FILES.items():
                p = Path(path)
                digests[name] = _sha(p.read_bytes()) if p.exists() else None
        finally:
            os.chdir(home)
    return digests


def golden_digests() -> dict[str, dict[str, str | None]]:
    saved = os.environ.pop(ENV_CONFIG, None)  # the benches the commands name
    try:
        return {" ".join(argv): run_command(argv) for argv in commands()}
    finally:
        if saved is not None:
            os.environ[ENV_CONFIG] = saved


def test_outputs_match_golden_manifest():
    expected = json.loads(MANIFEST.read_text())
    got = golden_digests()
    assert sorted(got) == sorted(expected), "command set differs from manifest"
    changed = [f"{cmd}: {name}" for cmd, outputs in got.items()
               for name, digest in outputs.items()
               if expected[cmd].get(name, "missing") != digest]
    assert changed == [], "outputs changed:\n" + "\n".join(changed)


if __name__ == "__main__":
    MANIFEST.write_text(json.dumps(golden_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {MANIFEST}", file=sys.stderr)
