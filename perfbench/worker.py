"""One workload in one fresh, single-threaded process.

``run.py`` starts this file with the package on ``PYTHONPATH``.  It times
set-up from before ``import cfcomm``, then runs the workload's operations in
a closed loop (one client, no threads) for the given number of seconds,
checks every output, and prints one JSON object as its last line.

With ``--trace 1`` the first third of the time runs untraced, the rest with
the :mod:`tracer` installed; the per-layer metrics come from those spans and
the gap between the two phases is the tracing overhead.  End-to-end metrics
come only from untraced runs.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

import workloads
from tracer import Tracer

#: tail percentile of each workload: one that keeps at least ten samples
#: beyond it in every 30 s run seen while the benchmark was defined (at least
#: 22 images, 92 configs).  A cli run has only 15 to 17 calls, too few for
#: any percentile above the median, so its tail is the median.
TAIL_PCT = {"transport": 54, "commission": 88, "cli": 50}

CLI_MAIN_REPEATS = 3


class Timer:
    """Named lists of durations in seconds.

    A call is recorded also when it raises, so that each op time stays
    paired with the references timed around it.  An op that raises makes
    the run wrong (:class:`Ledger`), so its short time is never reported as
    a correct result.
    """

    def __init__(self):
        self.samples: dict[str, list[float]] = defaultdict(list)

    def record(self, name: str, seconds: float) -> None:
        self.samples[name].append(seconds)

    def __call__(self, name, fn, *args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(name, time.perf_counter() - t0)


def reference_loop():
    """Fixed in-process work that no change to cfcomm can alter.

    It mixes the package's two idioms: sparse dict updates with complex
    numbers (as the optics layer does) and steps on small numpy arrays (as
    spectral and rand do).
    """
    import numpy as np
    amps: dict = {}
    for i in range(20000):
        key = (i % 97, "arm")
        amps[key] = amps.get(key, 0j) + complex(i, 1) * 0.5
    a = np.arange(2000.0)
    for _ in range(200):
        a = np.sqrt(a + 1.0)
    return amps, a


def reference_child():
    """A fresh interpreter that imports numpy: fixed work of the kind a
    ``python -m cfcomm`` child does, which no change to cfcomm can alter."""
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   capture_output=True, timeout=60)


class Reference(NamedTuple):
    """Fixed work timed before the first op and after every op.

    On a shared host the speed of a core swings by half or more, often
    several times a second, and the reference slows down with the ops next
    to it.  Op times are therefore reported at a reference speed: each
    measured time is multiplied by ``seconds`` (the reference's time at that
    speed) over the mean of the references timed just before and after it.
    """

    run: Callable[[], object]
    seconds: float


#: reference of in-process ops, and of ops that are child processes
LOOP = Reference(reference_loop, 0.010)
CHILD = Reference(reference_child, 0.150)


class Ledger:
    """Attempted and failed ops, failure reasons and the output digest.

    An op fails when it raises or fails a check.  Two outcomes are tallied
    apart instead: a statistical miss (``workloads.STATISTICAL_CHECKS``) and
    a known defect of the program (``workloads.KNOWN_DEFECTS``); both are in
    the reasons and the report.  The run is correct when no op failed and no
    more ops than chance allows missed a statistical check.
    """

    def __init__(self, digest_ops: int):
        self.attempted = self.failed = self.statistical = self.known_defects = 0
        self.reasons: Counter = Counter()
        self.tracebacks: dict[str, str] = {}
        self.digest = workloads.Digest(digest_ops)

    def run(self, op, k0: int, seconds: float, timer: Timer, ref: Reference,
            before=None) -> int:
        """Ops ``k0, k0+1, ...`` until ``seconds`` have passed; at least one.
        The reference is timed before the first op and after each."""
        deadline = time.perf_counter() + seconds
        timer("ref", ref.run)
        k = k0
        while k == k0 or time.perf_counter() < deadline:
            if before is not None:
                before(k)
            self.one(op, k, timer)
            timer("ref", ref.run)
            k += 1
        return k

    def one(self, op, k: int, timer: Timer) -> None:
        self.attempted += 1
        try:
            fails, out = op(k, timer)
        except Exception as exc:  # a failed op is counted, never fatal
            name = type(exc).__name__
            self.failed += 1
            self.reasons[name] += 1
            self.tracebacks.setdefault(name, traceback.format_exc())
            self.digest.add(k, {"error": name})
            return
        self.digest.add(k, out)
        self.reasons.update(fails)
        fails = set(fails)
        if fails & workloads.STATISTICAL_CHECKS:
            self.statistical += 1
        if fails & workloads.KNOWN_DEFECTS:
            self.known_defects += 1
        if fails - workloads.STATISTICAL_CHECKS - workloads.KNOWN_DEFECTS:
            self.failed += 1

    @property
    def correct(self) -> bool:
        return (self.failed == 0
                and self.statistical <= workloads.STATISTICAL_FAILS_ALLOWED)


def percentile(values, q: float) -> float:
    import numpy as np
    return float(np.percentile(values, q)) if len(values) else 0.0


def median(values) -> float:
    return percentile(values, 50)


def make_workload(name: str, workdir: str):
    if name == "transport":
        return workloads.Transport()
    if name == "commission":
        return workloads.Commission()
    return workloads.Cli(workdir)


def reference_speed(timer: Timer, ref: Reference) -> list[float]:
    """Op durations in seconds at the reference speed."""
    refs = timer.samples["ref"]
    return [2.0 * ref.seconds * t / (a + b)
            for t, a, b in zip(timer.samples["op"], refs, refs[1:])]


def end_to_end(name: str, timer: Timer, setup_s: float, ref: Reference) -> dict:
    op = reference_speed(timer, ref)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (usage.ru_maxrss / 1024.0, "MB"),
        "op_ms.p50": (median(op) * 1e3, "ms"),
        "op_ms.tail": (percentile(op, TAIL_PCT[name]) * 1e3, "ms"),
        "ops_per_s": (len(op) / sum(op), "1/s"),
    }


def wall_clock(name: str, timer: Timer) -> dict:
    """The same timings as measured, without the speed correction."""
    op = timer.samples["op"]
    return {"op_ms.p50": median(op) * 1e3,
            "op_ms.tail": percentile(op, TAIL_PCT[name]) * 1e3,
            "ops_per_s": len(op) / sum(op),
            "ref_ms.p50": median(timer.samples["ref"]) * 1e3,
            "ref_ms": [round(v * 1e3, 3) for v in timer.samples["ref"]]}


def result_caches() -> dict:
    """The package's ``lru_cache``'d functions, by the name of the ratio."""
    from cfcomm import circuit, protocol
    return {"tuning": circuit.solve_tuning,
            "calibration": circuit.calibration_tuning,
            "sector_probs": protocol.sector_probs}


class CacheCounter:
    """Hits and misses of the package's result caches between ``begin`` and
    ``end``, summed over segments so that clearing the caches loses nothing."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self._start = self._now()
        self.totals = {key: (0, 0) for key in self._start}

    @staticmethod
    def _now() -> dict[str, tuple[int, int]]:
        return {key: fn.cache_info()[:2] for key, fn in result_caches().items()}

    def begin(self) -> None:
        self._start = self._now()

    def end(self) -> None:
        now = self._now()
        self.totals = {k: (self.totals[k][0] + now[k][0] - self._start[k][0],
                           self.totals[k][1] + now[k][1] - self._start[k][1])
                       for k in now}
        self._start = now

    def clear_caches(self) -> None:
        """Drop the caches, as a fresh interpreter has them."""
        self.end()
        for fn in result_caches().values():
            fn.cache_clear()
        self.begin()


def cli_main_op(cli: workloads.Cli, caches: CacheCounter):
    """Op ``k`` of the cli workload run through ``cli.main`` in process."""
    def op(k: int, timer: Timer):
        command, argv = cli.argv(k)
        cli.remove_outputs(command)
        caches.clear_caches()
        t0 = time.perf_counter()
        try:
            code, stdout = cli.main_in_process(argv)
        finally:
            seconds = time.perf_counter() - t0
            timer.record("op", seconds)
            timer.record(command, seconds)
        return cli.outcome(command, argv, code, stdout)
    return op


def layer_metrics(tr: Tracer, n_ops: int, caches: dict) -> dict:
    """Per-layer metrics of the traced phase, per op unless the unit says."""
    table = tr.layer_table()

    def calls(*names):
        return sum(table.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(table.get(n, (0, 0.0))[1] for n in names)

    def per_op_ms(*names):
        return (self_s(*names) * 1e3 / n_ops, "ms")

    def per_op(value):
        return (value / n_ops, "count")

    def ratio(key):
        hits, misses = caches[key]
        return (hits / (hits + misses) if hits + misses else 0.0, "ratio")

    # propagations split by the span they run under
    _, self_t = tr.self_times()
    ctx = tr.contexts(("protocol.sector_probs", "circuit.solve_tuning",
                       "circuit.calibration_tuning"))
    by_ctx: dict[str, list] = defaultdict(lambda: [0, 0.0])
    prop_ids = {i for i, n in enumerate(tr.names) if n.startswith("circuit.propagate.")}
    for i, (nid, c) in enumerate(zip(tr.name, ctx)):
        if nid in prop_ids:
            where = ("in_sector_probs" if c >= 0 and tr.names[c] == "protocol.sector_probs"
                     else "in_tuning" if c >= 0 else "in_chain")
            by_ctx[where][0] += 1
            by_ctx[where][1] += float(self_t[i])

    # profile points the cascade evaluated: Etalon.transmission calls made
    # directly in it, over the etalons of each call
    cascades = calls("spectral.cascade")
    etalons = tr.counters["spectral.cascade.etalons"] / cascades if cascades else 1.0
    cascade_points = tr.counted_under("etalon.transmission", "spectral.cascade") / etalons

    uniforms = tr.counters["rand.uniforms"]
    bit_u = self_s("rand.bit_uniforms")
    elements = calls("optics.apply_element", "optics.apply_adjoint")
    sp_hits, sp_misses = caches["sector_probs"]
    tun = [a + b for a, b in zip(caches["tuning"], caches["calibration"])]
    m = {
        "rand.bit_uniforms.calls": per_op(calls("rand.bit_uniforms")),
        "rand.uniforms": per_op(uniforms),
        "rand.bit_uniforms.self_ms": per_op_ms("rand.bit_uniforms"),
        "rand.ns_per_uniform": (bit_u * 1e9 / uniforms if uniforms else 0.0, "ns"),
        "rand.substream.calls": per_op(calls("rand.substream")),
        "rand.substream.self_ms": per_op_ms("rand.substream"),
        "protocol.decode.self_ms.majority": per_op_ms(
            "protocol.transmit_image.majority", "protocol.send_bit.majority"),
        "protocol.decode.self_ms.first_click": per_op_ms(
            "protocol.transmit_image.first_click", "protocol.send_bit.first_click"),
        "protocol.sector_probs.calls": per_op(calls("protocol.sector_probs")),
        "protocol.sector_probs.self_ms": per_op_ms("protocol.sector_probs"),
        "protocol.sector_probs.hit_ratio": ratio("sector_probs"),
        "protocol.sector_probs.propagations": (
            by_ctx["in_sector_probs"][0] / sp_misses if sp_misses else 0.0, "count"),
        "protocol.fit_model.self_ms": per_op_ms("protocol.fit_model"),
        "circuit.solve_tuning.self_ms": per_op_ms("circuit.solve_tuning"),
        "circuit.calibration_tuning.self_ms": per_op_ms("circuit.calibration_tuning"),
        "circuit.tuning.hit_ratio": (tun[0] / sum(tun) if sum(tun) else 0.0, "ratio"),
        "circuit.build_circuit.calls": per_op(calls("circuit.build_circuit")),
        "circuit.build_circuit.self_ms": per_op_ms("circuit.build_circuit"),
        "circuit.propagate.o1.calls": per_op(calls("circuit.propagate.o1")),
        "circuit.propagate.o1.self_ms": per_op_ms("circuit.propagate.o1"),
        "circuit.propagate.o2.calls": per_op(calls("circuit.propagate.o2")),
        "circuit.propagate.o2.self_ms": per_op_ms("circuit.propagate.o2"),
        "circuit.backward_cuts.self_ms": per_op_ms("circuit.backward_cuts"),
        "circuit.weak_trace.self_ms": per_op_ms("circuit.weak_trace"),
        "optics.apply_element.calls": per_op(calls("optics.apply_element")),
        "optics.apply_adjoint.calls": per_op(calls("optics.apply_adjoint")),
        "optics.element_us": (
            self_s("optics.apply_element", "optics.apply_adjoint") * 1e6 / elements
            if elements else 0.0, "us"),
        "optics.amps_in": per_op(tr.counters["optics.amps_in"]),
        "spectral.scan.noisy.self_ms": per_op_ms("spectral.scan.noisy"),
        "spectral.scan.noise_free.self_ms": per_op_ms("spectral.scan.noise_free"),
        "spectral.scan.points": per_op(tr.counters["spectral.scan.points"]),
        "spectral.extract_peaks.self_ms": per_op_ms("spectral.extract_peaks"),
        "spectral.cascade.self_ms": per_op_ms("spectral.cascade"),
        "spectral.cascade.points": per_op(cascade_points),
        "config.load.self_ms": per_op_ms("config.load"),
        "cli.main.self_ms": per_op_ms("cli.main"),
        "trace.spans": per_op(len(tr)),
    }
    for where in ("in_sector_probs", "in_tuning", "in_chain"):
        n, s = by_ctx[where]
        m[f"circuit.propagate.{where}.calls"] = per_op(n)
        m[f"circuit.propagate.{where}.self_ms"] = (s * 1e3 / n_ops, "ms")
    return m


def traced_run(args, wl, ledger: Ledger, report: dict) -> dict:
    untraced, traced = Timer(), Timer()
    cli = wl if args.workload == "cli" else workloads.Cli(args.workdir)
    if cli is not wl:
        cli.setup(args.seed)
    caches = CacheCounter()
    main_op = cli_main_op(cli, caches)
    op = main_op if args.workload == "cli" else wl.op

    k = ledger.run(op, 0, args.seconds / 3.0, untraced, LOOP)
    caches.reset()
    tr = Tracer()

    def enter(k):
        tr.op = k

    tr.install()
    try:
        k_end = ledger.run(op, k, args.seconds * 2.0 / 3.0, traced, LOOP,
                           before=enter)
    finally:
        tr.uninstall()
    caches.end()
    metrics = layer_metrics(tr, k_end - k, caches.totals)
    # share of the workload's ops (both phases) that met the known fit defect
    metrics["protocol.fit_model.infeasible_share"] = (
        ledger.known_defects / ledger.attempted, "ratio")

    # cli.main of every command, in process and untraced, with cold caches
    probe = Timer()
    for r in range(CLI_MAIN_REPEATS * len(workloads.CLI_COMMANDS)):
        try:
            fails, _ = main_op(r, probe)
        except Exception as exc:
            fails = [type(exc).__name__]
        ledger.attempted += 1
        if fails:
            ledger.failed += 1
            ledger.reasons.update("cli_main." + f for f in fails)
    for command in workloads.CLI_COMMANDS:
        metrics[f"cli.main_ms.{command}"] = (median(probe.samples[command]) * 1e3, "ms")

    def cost(timer: Timer, k0: int) -> float:
        """Typical op time of a phase at the reference speed; on cli the sum
        over the commands of each one's median."""
        ratios = reference_speed(timer, LOOP)
        if args.workload != "cli":
            return median(ratios)
        n = len(workloads.CLI_COMMANDS)
        return sum(median(ratios[(c - k0) % n::n]) for c in range(n))

    metrics["trace.overhead_pct"] = (
        (cost(traced, k) / cost(untraced, 0) - 1.0) * 100.0, "%")
    metrics["protocol.first_click_ms.p50"] = (
        median(untraced.samples["first_click"]) * 1e3, "ms")
    metrics["protocol.send_bit_us.p50"] = (
        median(untraced.samples["send_bit"]) * 1e6, "us")

    spans = os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.npz")
    tr.save(spans)
    report.update(spans_file=os.path.relpath(spans), spans=len(tr),
                  traced_ops=k_end - k, untraced_ops=k)
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=("transport", "commission", "cli"),
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    t0 = time.perf_counter()
    import cfcomm  # noqa: F401  (importing the package is part of set-up)
    wl = make_workload(args.workload, args.workdir)
    wl.setup(args.seed)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    ledger = Ledger(wl.digest_ops)
    report: dict = {"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "tail_pct": TAIL_PCT[args.workload]}
    if args.trace:
        metrics = traced_run(args, wl, ledger, report)
    else:
        timer = Timer()
        ref = CHILD if args.workload == "cli" else LOOP
        ledger.run(wl.op, 0, args.seconds, timer, ref)
        metrics = end_to_end(args.workload, timer, setup_s, ref)
        report["samples"] = {k: len(v) for k, v in sorted(timer.samples.items())}
        report["wall_clock"] = wall_clock(args.workload, timer)
        report["op_ms"] = [round(v * 1e3, 3) for v in timer.samples["op"]]

    import numpy
    import scipy
    report.update(
        setup_s=setup_s, digest=ledger.digest.hexdigest(),
        digest_ops=ledger.digest.ops, failure_reasons=dict(ledger.reasons),
        statistical_misses=ledger.statistical,
        known_defect_ops=ledger.known_defects,
        tracebacks=ledger.tracebacks,
        numpy=numpy.__version__, scipy=scipy.__version__,
        python=sys.version.split()[0])
    print(json.dumps({
        "correct": ledger.correct, "attempted": ledger.attempted,
        "failed": ledger.failed, "report": report,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
