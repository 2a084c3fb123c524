"""The cfcomm benchmark: one command for every workload and metric.

Run from the repository root::

    python3 perfbench/run.py --workload transport --seed 1 --seconds 30 --trace 0

Workloads (see BENCHMARK.json for why each is there):

* ``transport``  — 145x145 images at ``majority:101`` over the fitted bench,
  with first-click images and ``send_bit`` samples interleaved;
* ``commission`` — one freshly drawn bench per op through tuning, traces,
  spectra, the source filter and the visibility fit;
* ``cli``        — one ``python -m cfcomm`` child per op.

Each workload runs in a fresh single-threaded worker process (``worker.py``)
with the package from ``./src`` on an absolute ``PYTHONPATH``, a fixed hash
seed and every BLAS/OpenMP pool at one thread, in a scratch directory under
``.perfbench_runs/``, all pinned to one core.  In an untraced run, set-up
is timed in four fresh processes (three set-up probes and the worker itself)
and reported as their median.

The last line of stdout is the result: ``correct``, ``attempted``,
``failed`` and the metrics, end-to-end ones with ``--trace 0`` and per-layer
ones with ``--trace 1``.  The line before it is a report with the machine
facts, the child environment, the output digest and the failure reasons; the
same report and the traced spans are kept under ``.perfbench_runs/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 20260
SETUP_SAMPLES = 4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CFCOMM_CONFIG", None)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv, env, cwd, deadline: float) -> subprocess.CompletedProcess:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + " ".join(argv[:3]))
    try:
        proc = subprocess.run(argv, capture_output=True, cwd=cwd, env=env,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(argv[:4])}") from None
    if proc.returncode != 0:
        raise BenchError(f"{' '.join(argv[:4])} exited {proc.returncode}:\n"
                         + proc.stderr.decode(errors="replace")[-2000:])
    return proc


def last_json(proc) -> dict:
    lines = proc.stdout.decode().strip().splitlines()
    if not lines:
        raise BenchError("worker printed nothing")
    return json.loads(lines[-1])


def wall(argv, env, cwd, deadline) -> float:
    t0 = time.perf_counter()
    run_child(argv, env, cwd, deadline)
    return time.perf_counter() - t0


def import_probes(py: str, env, cwd, deadline) -> dict:
    """Start-up cost of the interpreter, numpy, cfcomm and scipy.stats."""
    start = [wall([py, "-c", "import numpy"], env, cwd, deadline) for _ in range(2)]
    timed = ("import time; t = time.perf_counter(); import cfcomm; "
             "print(time.perf_counter() - t)")
    imp = [float(run_child([py, "-c", timed], env, cwd, deadline).stdout)
           for _ in range(2)]
    proc = run_child([py, "-X", "importtime", "-c", "import cfcomm"], env, cwd,
                     deadline)
    return {"cli.python_start_ms": (median(start) * 1e3, "ms"),
            "cli.import_ms": (median(imp) * 1e3, "ms"),
            "cli.import_scipy_stats_ms": (
                subtree_us(proc.stderr.decode(), "scipy.stats") / 1e3, "ms")}


def subtree_us(importtime: str, package: str) -> float:
    """Cumulative ``-X importtime`` microseconds of a package's modules,
    counting each module once: only those not imported by another of them."""
    rows = []
    for line in importtime.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            name = parts[2].rstrip()
            rows.append((len(name) - len(name.lstrip()), name.strip(),
                         int(parts[1])))
    total, name_at = 0, {}
    # the report is post-order (children first, indented two more spaces)
    for depth, name, cumulative in reversed(rows):
        name_at[depth] = name
        parent = name_at.get(depth - 2, "")
        inside = (name == package or name.startswith(package + "."))
        if inside and not (parent == package or parent.startswith(package + ".")):
            total += cumulative
    return float(total)


def machine_facts(env: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "pinned_to_cpu": (sorted(os.sched_getaffinity(0))
                          if hasattr(os, "sched_getaffinity") else None),
        "cpu": cpu or platform.processor(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "child_env": {k: env[k] for k in ("PYTHONHASHSEED", *THREAD_VARS)},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Run one cfcomm benchmark workload.")
    p.add_argument("--workload", choices=("transport", "commission", "cli"),
                   required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    # on SIGTERM, unwind: subprocess.run kills the running child, and the
    # scratch directory is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # one core for this process and every child: the reference then runs
    # where the ops run
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cfcomm", "__init__.py")):
        print("perfbench: no ./src/cfcomm here; run from the repository root",
              file=sys.stderr)
        return 2
    base = os.path.join(root, ".perfbench_runs")
    out = os.path.join(base, "out")
    work = os.path.join(base, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(out, exist_ok=True)
    os.makedirs(work)
    env = child_env(src)
    py = sys.executable
    worker = [py, os.path.join(HERE, "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--workdir", work, "--out", out]
    try:
        # set-up probes only where setup_s is reported: untraced runs
        setups = [last_json(run_child(worker + ["--setup-only"], env, work,
                                      deadline))["setup_s"]
                  for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        res = last_json(run_child(
            worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            env, work, deadline))
        setups.append(res["report"]["setup_s"])
        metrics = res["metrics"]
        if args.trace:
            for k, (v, u) in import_probes(py, env, work, deadline).items():
                metrics[k] = {"value": v, "unit": u}
        else:
            metrics["setup_s"]["value"] = median(setups)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    report = dict(res["report"], setup_samples_s=setups, machine=machine_facts(env))
    with open(os.path.join(out, f"result-{args.workload}-seed{args.seed}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"report": report, "metrics": metrics}, fh, indent=1,
                  sort_keys=True)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
