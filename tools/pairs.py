"""Compare two commits on one perfbench workload by alternating pairs.

Run from anywhere::

    python3 tools/pairs.py PARENT CHANGE --workload commission
    python3 tools/pairs.py HEAD~1 HEAD --workload cli --pairs 10 --seconds 15

It clones both commits from this repository into a temporary directory,
which needs no network, and runs each clone's own, unmodified
``perfbench/run.py`` untraced, ``--pairs`` times each, in ABBA order: pair
``i`` runs the parent first when ``i`` is even and the change first when it
is odd, so a host whose speed drifts over the runs weighs on both alike.  For
every end-to-end metric of ``BENCHMARK.json`` it prints both medians and
quartiles, the pairs the change wins, the exact two-sided sign-test p and
a verdict:

* ``worse``: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
* ``unresolved``: not worse, but the parent's quartiles lie further apart
  than the bound, and not every run of the change is better than every run
  of the parent;
* ``gain``: the change wins at least nine pairs in ten, and its median is
  better by more than the spread between the parent's quartiles;
* ``same``: neither.

After the pairs it runs each side once more with ``--trace 1``, since a
traced run can read ``correct: false`` where the untraced ones do not.  It
then prints every run's ``correct``, ``attempted``, ``failed``, statistical
misses and output digest, the traced runs last, and writes all of it as
JSON to ``--out``.  A run that stopped with an error is reported, and the
others still count.  The exit status is 1 when any run of either side,
traced or untraced, stopped with an error or reads ``correct: false``, and
0 otherwise.  Only the stdlib is needed here.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from statistics import median, quantiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 20260
#: the least share of pairs a change must win for a gain
GAIN_SHARE = 0.9


def abba(pairs: int) -> list[tuple[int, str]]:
    """Run order as (pair, side) in ABBA order: P C, C P, P C, ..."""
    order = []
    for i in range(pairs):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        order += [(i, side) for side in sides]
    return order


def sign_test_p(wins: int, losses: int) -> float:
    """Exact two-sided sign-test p of ``wins`` against ``losses``; ties are
    left out before the call."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, k) for k in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2 ** n)


def compare(parent: list[float], change: list[float], better: str,
            bound: float) -> dict:
    """Paired statistics of one metric; ``parent[i]`` and ``change[i]`` are
    pair ``i``, and ``better`` is ``"lower"`` or ``"higher"``."""
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q_parent = quantiles(parent, n=4, method="inclusive")
    q_change = quantiles(change, n=4, method="inclusive")
    m_parent, m_change = median(parent), median(change)
    diff = sign * (m_change - m_parent)
    worse_by = (diff / abs(m_parent) if m_parent
                else math.copysign(math.inf, diff) if diff else 0.0)
    spread = q_parent[2] - q_parent[0]
    if worse_by > bound:
        verdict = "worse"
    elif (spread > bound * abs(m_parent)
          and not max(sign * c for c in change) < min(sign * p for p in parent)):
        verdict = "unresolved"
    elif (wins >= math.ceil(GAIN_SHARE * len(parent))
          and sign * (m_parent - m_change) > spread):
        verdict = "gain"
    else:
        verdict = "same"
    return {"parent": {"q1": q_parent[0], "median": m_parent, "q3": q_parent[2]},
            "change": {"q1": q_change[0], "median": m_change, "q3": q_change[2]},
            "wins": wins, "losses": losses, "ties": len(parent) - wins - losses,
            "sign_p": sign_test_p(wins, losses), "worse_by": worse_by,
            "bound": bound, "verdict": verdict}


def git(*argv, cwd=ROOT) -> str:
    return subprocess.run(["git", *argv], cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.strip()


def clone(commit: str, where: str) -> str:
    """A checkout of ``commit`` of this repository at ``where``.  A local
    clone copies every object, so a commit that no branch holds works too."""
    git("clone", "--quiet", "--no-checkout", ROOT, where, cwd=None)
    git("checkout", "--quiet", "--detach", commit, cwd=where)
    return where


def bench_run(checkout: str, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """One perfbench run in a checkout, untraced unless ``trace`` is 1: its
    record, or the error that stopped it."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"error": f"exit {proc.returncode}: {proc.stderr[-2000:]}"}
    return read_run(lines)


def read_run(lines: list[str]) -> dict:
    """A run's record from the last two lines perfbench prints: the report,
    then the result."""
    report = json.loads(lines[-2].removeprefix("report: "))
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "statistical_misses": report.get("statistical_misses"),
            "digest": report.get("digest"),
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def describe(run: dict) -> str:
    """One line for a run: its outcome, or the first line of its error."""
    if "error" in run:
        return run["error"].splitlines()[0]
    return (f"correct={run['correct']} failed={run['failed']}"
            f" of {run['attempted']}"
            f" statistical_misses={run['statistical_misses']}"
            f" digest={run['digest']}")


def exit_status(runs: list[dict]) -> int:
    """1 when any run, traced or not, stopped with an error or reads
    ``correct: false``; else 0."""
    return int(any("error" in run or not run["correct"] for run in runs))


def summarize(runs: list[dict], pairs: int, end_to_end: list[dict]) -> dict:
    """Per metric, the paired statistics over the pairs whose two runs both
    finished."""
    by_pair = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run
    whole = [p for i, p in sorted(by_pair.items())
             if all("metrics" in p.get(side, {}) for side in ("parent", "change"))]
    table = {}
    for spec in end_to_end if len(whole) >= 2 else ():
        name = spec["name"]
        table[name] = compare([p["parent"]["metrics"][name] for p in whole],
                              [p["change"]["metrics"][name] for p in whole],
                              spec["better"], spec["bound"])
    return {"pairs": pairs, "complete_pairs": len(whole), "metrics": table}


def print_table(commits: dict, summary: dict, runs: list[dict],
                traced: list[dict]) -> None:
    print(f"parent {commits['parent']}  change {commits['change']}  "
          f"{summary['complete_pairs']} of {summary['pairs']} pairs complete")
    print(f"{'metric':12} {'parent q1/med/q3':>26} {'change q1/med/q3':>26}"
          f" {'wins':>6} {'sign p':>8} {'worse by':>9} {'bound':>6}  verdict")
    for name, s in summary["metrics"].items():
        p, c = s["parent"], s["change"]
        print(f"{name:12} {p['q1']:8.4g} {p['median']:8.4g} {p['q3']:8.4g}"
              f" {c['q1']:8.4g} {c['median']:8.4g} {c['q3']:8.4g}"
              f" {s['wins']:3}/{s['wins'] + s['losses'] + s['ties']:<2}"
              f" {s['sign_p']:8.3g} {s['worse_by']:+9.2%} {s['bound']:6.0%}"
              f"  {s['verdict']}")
    for run in runs:
        print(f"  pair {run['pair']:2} {run['side']:6} {describe(run)}")
    for run in traced:
        print(f"  traced  {run['side']:6} {describe(run)}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="Compare two commits on one workload by ABBA pairs.")
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True,
                   choices=("transport", "commission", "cli"))
    p.add_argument("--seed", type=int, default=SEED)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--out", help="JSON output (default: .perfbench_runs/pairs-"
                                 "<workload>-seed<seed>.json in the repository)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error("--pairs must be at least 2")
    commits = {side: git("rev-parse", "--verify", f"{ref}^{{commit}}")
               for side, ref in (("parent", args.parent), ("change", args.change))}
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        end_to_end = json.load(fh)["end_to_end"]
    runs = []
    with tempfile.TemporaryDirectory(prefix="cfcomm-pairs-") as tmp:
        trees = {side: clone(sha, os.path.join(tmp, side))
                 for side, sha in commits.items()}
        for i, side in abba(args.pairs):
            run = bench_run(trees[side], args.workload, args.seed, args.seconds)
            runs.append(dict(run, pair=i, side=side))
            print(f"pair {i} {side}: " + ("error" if "error" in run else
                                          f"correct={run['correct']}"),
                  file=sys.stderr, flush=True)
        traced = []
        for side in ("parent", "change"):
            run = bench_run(trees[side], args.workload, args.seed, args.seconds,
                            trace=1)
            traced.append(dict(run, side=side))
            print(f"traced {side}: {describe(run)}", file=sys.stderr, flush=True)
    summary = summarize(runs, args.pairs, end_to_end)
    print_table(commits, summary, runs, traced)
    out = args.out or os.path.join(ROOT, ".perfbench_runs",
                                   f"pairs-{args.workload}-seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"commits": commits, "workload": args.workload,
                   "seed": args.seed, "seconds": args.seconds,
                   "summary": summary, "runs": runs, "traced": traced},
                  fh, indent=1)
    print(f"written to {out}")
    return exit_status(runs + traced)


if __name__ == "__main__":
    sys.exit(main())
