"""Start-up stays scipy-free: only majority sampling loads it.

Each check runs in a child interpreter, because this process has imported
scipy already (``tests/oracles.py`` uses it).
"""

import json
import subprocess
import sys

import pytest

from conftest import child_env

PROBE = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""

CLI = """
from cfcomm.cli import main
if main({argv!r}) != 0:
    sys.exit("cli exited non-zero")
"""


def scipy_modules_after(tmp_path, body: str) -> list[str]:
    """The scipy modules a child holds after running ``body``."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(body=body)],
                          capture_output=True, cwd=tmp_path, env=child_env(),
                          timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    return json.loads(proc.stdout.decode().splitlines()[-1])


def cli_body(tmp_path, argv: list[str]) -> str:
    (tmp_path / "in.pbm").write_text("P1\n3 2\n010\n110\n")
    return CLI.format(argv=argv)


def test_import_loads_no_scipy(tmp_path):
    assert scipy_modules_after(tmp_path, "import cfcomm") == []


@pytest.mark.parametrize("argv", [
    ["trace", "--preset", "bit1", "--detector", "det1"],
    ["source-filter"],
    ["spectrum", "--preset", "bit1", "--detector", "det1", "--no-noise",
     "--out", "scan.csv"],
    ["spectrum", "--preset", "bit0", "--detector", "det0", "--seed", "5",
     "--out", "scan.csv"],
    ["--fitted", "send-image", "--image", "in.pbm", "--out", "out.pbm",
     "--stats", "stats.json", "--seed", "7"],
], ids=["trace", "source-filter", "spectrum-no-noise", "spectrum-noisy",
        "send-image-first-click"])
def test_commands_without_majority_load_no_scipy(tmp_path, argv):
    assert scipy_modules_after(tmp_path, cli_body(tmp_path, argv)) == []


def test_majority_transport_loads_scipy_stats(tmp_path):
    body = cli_body(tmp_path, ["--fitted", "send-image", "--image", "in.pbm",
                               "--out", "out.pbm", "--policy", "majority:5"])
    assert "scipy.stats" in scipy_modules_after(tmp_path, body)
    assert (tmp_path / "out.pbm").read_text().startswith("P1\n3 2\n")


def test_fit_loads_no_scipy(tmp_path):
    body = """
from cfcomm import fit_model, reference_device
from cfcomm.protocol import model_error_rates
cfg = reference_device()
fit = fit_model(cfg, *model_error_rates(cfg, 0.97, 0.98))
if abs(fit.visibility_inner - 0.97) > 1e-9 or abs(fit.visibility_outer - 0.98) > 1e-9:
    sys.exit(f"fit missed: {fit}")
"""
    assert scipy_modules_after(tmp_path, body) == []
