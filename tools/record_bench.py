"""Record one point of the benchmark trajectory as ``BENCH_<n>.json``.

Run from anywhere, with the record's number::

    python3 tools/record_bench.py 12                      # this checkout
    python3 tools/record_bench.py 11 --repo ../parent --out BENCH_11.json

It runs the three perfbench workloads untraced for ``SECONDS`` each at
``SEED``, then times acceptance criterion 7 and the Tier-1 suite, all in the
checkout given by ``--repo``, and writes their results with the machine
facts of the perfbench report.  Every record uses the same seed and length,
so any two can be compared.  Every figure comes from that checkout's own
``perfbench/run.py`` and tests; only the stdlib is needed here.  A record of
a work tree that differs from its commit also stores the SHA-256 of
``git diff HEAD``, so it still names the code it measured.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import re
import subprocess
import sys
import time

WORKLOADS = ("transport", "commission", "cli")
SEED = 20260
SECONDS = 30.0
CRITERION_7 = "tests/test_acceptance.py::test_criterion_7_protocol_statistics"


def run(argv, cwd, env=None) -> tuple[subprocess.CompletedProcess, float]:
    """Run one child to completion; its result and wall-clock seconds."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True)
    return proc, time.perf_counter() - t0


def workload(repo: str, name: str) -> dict:
    """One untraced perfbench run: its result line and the report's facts."""
    proc, _ = run([sys.executable, "perfbench/run.py", "--workload", name,
                   "--seed", str(SEED), "--seconds", str(SECONDS),
                   "--trace", "0"], repo)
    if proc.returncode != 0:
        sys.exit(f"perfbench {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-2].removeprefix("report: "))
    result = json.loads(lines[-1])
    result["report"] = {key: report.get(key) for key in (
        "digest", "failure_reasons", "known_defect_ops", "statistical_misses",
        "tail_pct")}
    result["machine"] = dict(report["machine"], numpy=report.get("numpy"),
                             scipy=report.get("scipy"))
    return result


def pytest_run(repo: str, args: list[str]) -> dict:
    """Wall-clock seconds and pass/fail counts of one Tier-1 style run."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(repo, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc, wall = run([sys.executable, "-m", "pytest", "-q", "-p",
                      "no:cacheprovider", *args], repo, env)
    summary = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
    counts = {word: int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    return {"wall_s": round(wall, 3), "exit_code": proc.returncode,
            "counts": counts, "summary": summary}


def git_head(repo: str) -> dict:
    """The checkout's commit, whether its work tree differs from it, and if
    so the SHA-256 of that difference."""
    head, _ = run(["git", "rev-parse", "HEAD"], repo)
    diff, _ = run(["git", "diff", "--binary", "HEAD"], repo)
    if head.returncode != 0 or diff.returncode != 0:
        return {"commit": None, "modified": None}
    record = {"commit": head.stdout.strip(), "modified": bool(diff.stdout)}
    if diff.stdout:
        record["diff_sha256"] = hashlib.sha256(diff.stdout.encode()).hexdigest()
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("number", type=int, help="n of BENCH_<n>.json")
    p.add_argument("--repo", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), help="checkout to measure")
    p.add_argument("--out", help="output path (default: BENCH_<n>.json in --repo)")
    args = p.parse_args(argv)
    repo = os.path.abspath(args.repo)
    if not os.path.isfile(os.path.join(repo, "perfbench", "run.py")):
        p.error(f"{repo} holds no perfbench/run.py")

    record = {
        "bench": args.number,
        **git_head(repo),
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
                                         .isoformat(timespec="seconds"),
        "seed": SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for name in WORKLOADS:
        res = workload(repo, name)
        record["machine"] = res.pop("machine")  # the same for every workload
        record["workloads"][name] = res
    record["criterion_7"] = pytest_run(repo, [CRITERION_7])
    record["tier1"] = pytest_run(repo, ["--continue-on-collection-errors"])

    out = args.out or os.path.join(repo, f"BENCH_{args.number}.json")
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
