"""Self-test of the benchmark; run from the repository root::

    python3 perfbench/selftest.py

1. A short run of every workload, untraced and traced, must print exactly
   the result keys, and every metric named in BENCHMARK.json with its unit.
2. Every output check must pass on a real result and fail on a corrupted
   one (a flipped pixel, a shifted error rate, a perturbed residual, a bad
   exit code or changed bytes).  A fit that raises is the known defect only
   for its documented cause.  An op that raises, fails a check, or too many
   statistical misses must make a run wrong; the known defect and a rare
   statistical miss must not count as failed ops.
3. Without the package next to it, the benchmark must exit non-zero and
   print no result.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import workloads  # noqa: E402


def run_bench(workload: str, trace: int, cwd: str = ROOT,
              seconds: str = "2") -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, cwd=cwd, timeout=180)


def check_metrics_printed(spec: dict) -> None:
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(w["name"], trace)
            assert proc.returncode == 0, proc.stderr.decode()
            res = json.loads(proc.stdout.decode().strip().splitlines()[-1])
            assert set(res) == {"correct", "attempted", "failed", "metrics"}, res
            assert res["correct"] is True and res["attempted"] >= 1, res
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            assert got == want, (w["name"], trace, set(got) ^ set(want))
            for name, v in res["metrics"].items():
                assert isinstance(v["value"], (int, float)), name
                assert math.isfinite(v["value"]), name
                assert trace or v["value"] > 0, (w["name"], name)
            print(f"ok  {w['name']} trace={trace}: {len(got)} metrics with units")


def expect(fails: list[str], name: str | None) -> None:
    if name is None:
        assert fails == [], fails
    else:
        assert name in fails, (name, fails)


def check_transport_checks() -> None:
    import numpy as np
    from cfcomm import config, protocol
    cfg = config.reference_device(fitted=True)
    rng = np.random.default_rng(5)
    image = protocol.Bitmap(workloads.SIDE, workloads.SIDE,
                            rng.integers(0, 2, size=workloads.SIDE ** 2))
    imp = cfg.imperfections
    rates = protocol.model_error_rates(cfg, imp.visibility_inner,
                                       imp.visibility_outer)

    maj = protocol.transmit_image(cfg, image, policy=workloads.MAJORITY, seed=9)
    expect(workloads.check_majority(maj, image), None)
    flipped = image.bits.copy()
    flipped[17] ^= 1
    bad = dataclasses.replace(maj, image=protocol.Bitmap(image.width,
                                                         image.height, flipped))
    expect(workloads.check_majority(bad, image), "majority_not_clean")
    expect(workloads.check_majority(dataclasses.replace(maj, erasures=1), image),
           "erasures")

    fc = protocol.transmit_image(cfg, image, policy=workloads.FIRST_CLICK, seed=9)
    expect(workloads.check_first_click(fc, image, rates), None)
    expect(workloads.check_first_click(
        dataclasses.replace(fc, err0=fc.err0 + 0.05), image, rates), "err0_3sigma")
    expect(workloads.check_first_click(
        dataclasses.replace(fc, err1=fc.err1 - 0.05), image, rates), "err1_3sigma")
    expect(workloads.check_first_click(
        dataclasses.replace(fc, err0=fc.err0 + 0.05), image, rates), "err0_6sigma")

    for res, policy in ((maj, workloads.MAJORITY), (fc, workloads.FIRST_CLICK)):
        bit = protocol.send_bit(cfg, int(image.bits[17]), 17, policy=policy, seed=9)
        expect(workloads.check_send_bit(bit, res, 17), None)
    expect(workloads.check_send_bit(bit, bad, 17), "send_bit_mismatch")
    print("ok  transport checks fail on a flipped pixel, erasures, shifted rates")


def check_commission_checks() -> None:
    results = [workloads.verify_config(*workloads.draw_config(3, k))[0]
               for k in range(12)]
    infeasible = next(r for r in results if "fit_infeasible" in r)
    res = next(r for r in results if "fit_infeasible" not in r)
    expect(workloads.check_commission(infeasible), "fit_infeasible_known")
    for cause in (dict(infeasible, inner_r2_differ=False),
                  dict(infeasible, fit_infeasible="err1=0.3 exceeds the fully "
                       "dephased outer loop (0.2); no visibility fits")):
        expect(workloads.check_commission(cause), "fit_infeasible")
    expect(workloads.check_commission(dict(infeasible, overlap_drift=1.0)),
           "overlap_drift")
    expect(workloads.check_commission(res), None)
    for name, bound in workloads.COMMISSION_BOUNDS.items():
        expect(workloads.check_commission(dict(res, **{name: res[name] + 10 * bound})),
               name)
    expect(workloads.check_commission(
        dict(res, order2_gap=res["order2_gap"] + res["order2_bound"])), "order2_gap")
    expect(workloads.check_commission(dict(res, fit_error=math.nan)), "fit_error")
    print("ok  commission checks fail on each perturbed residual and on a "
          "fit that raises for another cause than the known defect")


def check_ledger() -> None:
    """Exceptions, failed checks and repeated statistical misses make a run
    wrong; the known defect and a rare statistical miss are not failed ops."""
    from cfcomm.errors import FitInfeasibleError
    from worker import Ledger, Timer

    def raising(exc):
        def op(k, timer):
            raise exc
        return op

    def failing(*names):
        return lambda k, timer: (list(names), {})

    def ledger_after(*ops) -> Ledger:
        ledger = Ledger(0)
        for k, op in enumerate(ops):
            ledger.one(op, k, Timer())
        return ledger

    ok = failing()
    known = ledger_after(ok, failing("fit_infeasible_known"))
    assert known.correct and known.failed == 0, known.reasons
    assert known.known_defects == 1 and known.reasons["fit_infeasible_known"] == 1
    for bad in (raising(FitInfeasibleError("infeasible")),
                raising(ValueError("broken")), failing("fit_infeasible"),
                failing("majority_not_clean"),
                failing("fit_infeasible_known", "overlap_drift")):
        wrong = ledger_after(ok, bad)
        assert not wrong.correct and wrong.failed == 1, wrong.reasons
    rare = ledger_after(*[failing("err0_3sigma")] * workloads.STATISTICAL_FAILS_ALLOWED)
    assert rare.correct and rare.failed == 0
    assert rare.statistical == workloads.STATISTICAL_FAILS_ALLOWED
    assert not ledger_after(
        *[failing("err1_3sigma")] * (workloads.STATISTICAL_FAILS_ALLOWED + 1)).correct
    assert not ledger_after(failing("err0_3sigma", "err0_6sigma")).correct
    print("ok  any exception, failed check, 6-sigma miss or too many 3-sigma "
          "misses make a run wrong; the known defect does not")


def check_cascade_points() -> None:
    """The tracer counts the cascade's own profile evaluations."""
    from cfcomm import config, spectral
    from tracer import Tracer
    cfg = config.reference_device()
    tr = Tracer()
    tr.install()
    try:
        spectral.source_filter_cascade(cfg.source_etalons,
                                       cfg.source_raw_linewidth_ghz)
    finally:
        tr.uninstall()
    calls = tr.counted_under("etalon.transmission", "spectral.cascade")
    n = len(cfg.source_etalons)
    assert calls > 0 and calls % n == 0, (calls, n)
    assert getattr(spectral.Etalon.transmission, "__wrapped__", None) is None
    print(f"ok  cascade points counted from the program: {calls // n}")


def check_cli_checks() -> None:
    work = os.path.join(ROOT, ".perfbench_runs", "selftest-cli")
    os.makedirs(work, exist_ok=True)
    try:
        cli = workloads.Cli(work)
        cli.setup(3)
        for k in range(len(workloads.CLI_COMMANDS)):
            command, argv = cli.argv(k)
            code, stdout = cli.main_in_process(argv)
            expect(cli.outcome(command, argv, code, stdout)[0], None)
            expect(workloads.check_cli(code, stdout, stdout, stdout), None)
            expect(workloads.check_cli(2, stdout, stdout, stdout), "exit_code")
            expect(workloads.check_cli(code, b"error\n", stdout, stdout),
                   "stdout_not_json")
            expect(workloads.check_cli(code, stdout, stdout + b"x", stdout),
                   "bytes_differ")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("ok  cli checks fail on exit code, non-JSON stdout, changed bytes")


def check_fails_without_package() -> None:
    bare = os.path.join(ROOT, ".perfbench_runs", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("transport", 0, cwd=bare)
        assert proc.returncode != 0, proc.stdout
        assert b"{" not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  without ./src/cfcomm the benchmark exits", proc.returncode,
          "and prints no result")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_transport_checks()
    check_commission_checks()
    check_cli_checks()
    check_ledger()
    check_cascade_points()
    check_fails_without_package()
    check_metrics_printed(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
