"""Span tracing from outside the package.

While installed, a :class:`Tracer` rebinds every module-level name in
``cfcomm.*`` that refers to one of the traced functions (for example
``cfcomm.protocol.bit_uniforms`` or ``cfcomm.circuit.apply_element``) to a
wrapper that records one span per call: name, start, end, parent span and
operation id.  Calls inside a module go through its globals, so they are
caught too.  Methods listed in ``COUNTED`` get a call counter instead of
a span.  Spans stay in flat arrays in memory until :meth:`Tracer.save`;
:meth:`Tracer.layer_table` turns them into calls and self time per name.
A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict


def _policy(args, kwargs) -> str:
    return "majority" if kwargs.get("policy", "first-click").startswith(
        "majority") else "first_click"


def _order(args, kwargs) -> str:
    return "o%d" % kwargs.get("max_order", args[1] if len(args) > 1 else 1)


def _noise(args, kwargs) -> str:
    return "noisy" if kwargs.get("noise", True) else "noise_free"


#: (module, function) -> (span name, label hook, counter hook).  A label hook
#: maps the call's arguments to a suffix of the span name; a counter hook maps
#: (args, kwargs, result) to a (counter, amount) pair.
TRACED = {
    ("cfcomm.rand", "bit_uniforms"): (
        "rand.bit_uniforms", None,
        lambda a, kw, r: ("rand.uniforms", r.size)),
    ("cfcomm.rand", "substream"): ("rand.substream", None, None),
    ("cfcomm.protocol", "transmit_image"): (
        "protocol.transmit_image", _policy, None),
    ("cfcomm.protocol", "send_bit"): ("protocol.send_bit", _policy, None),
    ("cfcomm.protocol", "sector_probs"): ("protocol.sector_probs", None, None),
    ("cfcomm.protocol", "fit_model"): ("protocol.fit_model", None, None),
    ("cfcomm.circuit", "solve_tuning"): ("circuit.solve_tuning", None, None),
    ("cfcomm.circuit", "calibration_tuning"): (
        "circuit.calibration_tuning", None, None),
    ("cfcomm.circuit", "build_circuit"): ("circuit.build_circuit", None, None),
    ("cfcomm.circuit", "propagate"): ("circuit.propagate", _order, None),
    ("cfcomm.circuit", "propagate_cuts"): ("circuit.propagate", _order, None),
    ("cfcomm.circuit", "backward_cuts"): ("circuit.backward_cuts", None, None),
    ("cfcomm.circuit", "weak_trace"): ("circuit.weak_trace", None, None),
    ("cfcomm.optics", "apply_element"): (
        "optics.apply_element", None,
        lambda a, kw, r: ("optics.amps_in", len(a[0].amps))),
    ("cfcomm.optics", "apply_adjoint"): (
        "optics.apply_adjoint", None,
        lambda a, kw, r: ("optics.amps_in", len(a[0].amps))),
    ("cfcomm.spectral", "scan_spectrum"): (
        "spectral.scan", _noise,
        lambda a, kw, r: ("spectral.scan.points", len(r.detuning_ghz))),
    ("cfcomm.spectral", "extract_peaks"): ("spectral.extract_peaks", None, None),
    ("cfcomm.spectral", "source_filter_cascade"): (
        "spectral.cascade", None,
        lambda a, kw, r: ("spectral.cascade.etalons", len(a[0]))),
    ("cfcomm.config", "reference_device"): ("config.load", None, None),
    ("cfcomm.config", "load_config"): ("config.load", None, None),
    ("cfcomm.config", "config_from_dict"): ("config.load", None, None),
    ("cfcomm.cli", "main"): ("cli.main", None, None),
}


#: (module, class, method) -> counter.  Calls of these methods get no span;
#: they are counted against the innermost open span, which
#: :meth:`Tracer.counted_under` sums by span name.  Each cascade profile
#: point calls ``Etalon.transmission`` once per etalon.
COUNTED = {("cfcomm.spectral", "Etalon", "transmission"): "etalon.transmission"}


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        # counter -> span index -> calls of a COUNTED method under that span
        self.counted: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrap(self, fn, name, label, count):
        fixed = None if label else self._id(name)
        ids, stack, counters = self._id, self._stack, self.counters
        add_name, add_parent = self.name.append, self.parent.append
        add_op, add_start, add_end = self.op_id.append, self.start.append, self.end.append
        end, now = self.end, time.perf_counter

        def traced(*args, **kwargs):
            i = len(end)
            add_name(fixed if label is None else ids(name + "." + label(args, kwargs)))
            add_parent(stack[-1])
            add_op(self.op)
            add_end(0.0)
            stack.append(i)
            add_start(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()
            if count is not None:
                key, amount = count(args, kwargs, result)
                counters[key] += amount
            return result

        traced.__wrapped__ = fn
        for attr in ("cache_info", "cache_clear"):  # lru_cache'd functions
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def _count(self, fn, key):
        per_span, stack = self.counted[key], self._stack

        def counted(*args, **kwargs):
            per_span[stack[-1]] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Rebind every cfcomm module name that refers to a traced function,
        and every counted method."""
        for (modname, clsname, attr), key in COUNTED.items():
            cls = getattr(importlib.import_module(modname), clsname)
            value = vars(cls)[attr]
            self._undo.append((cls, attr, value))
            setattr(cls, attr, self._count(value, key))
        targets = {}
        for (modname, attr), spec in TRACED.items():
            targets[id(getattr(importlib.import_module(modname), attr))] = spec
        wrappers: dict[int, object] = {}
        for modname, mod in list(sys.modules.items()):
            if modname != "cfcomm" and not modname.startswith("cfcomm."):
                continue
            for attr, value in list(vars(mod).items()):
                spec = targets.get(id(value))
                if spec is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, *spec)
                self._undo.append((mod, attr, value))
                setattr(mod, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._undo):
            setattr(mod, attr, value)
        self._undo.clear()

    def __len__(self) -> int:
        return len(self.end)

    def self_times(self):
        """Per-span (duration, self time) arrays, in seconds."""
        import numpy as np
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        has = parent >= 0
        covered = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
        return dur, dur - covered

    def contexts(self, context_names) -> list[int]:
        """For each span, the nearest enclosing span (itself included) whose
        name is in ``context_names``, as a name id; -1 where there is none."""
        wanted = {self._ids[n] for n in context_names if n in self._ids}
        ctx = [-1] * len(self)
        for i, (nid, p) in enumerate(zip(self.name, self.parent)):
            ctx[i] = nid if nid in wanted else (ctx[p] if p >= 0 else -1)
        return ctx

    def counted_under(self, key: str, span_name: str) -> int:
        """Calls counted as ``key`` directly under spans named ``span_name``."""
        nid = self._ids.get(span_name)
        return sum(n for i, n in self.counted[key].items()
                   if i >= 0 and self.name[i] == nid)

    def layer_table(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        import numpy as np
        _, self_t = self.self_times()
        names = np.frombuffer(self.name, dtype=np.int32)
        calls = np.bincount(names, minlength=len(self.names))
        selfs = np.bincount(names, weights=self_t, minlength=len(self.names))
        return {n: (int(calls[i]), float(selfs[i])) for i, n in enumerate(self.names)}

    def save(self, path: str) -> None:
        """Write every span (and the name table) to a compressed ``.npz``."""
        import numpy as np
        np.savez_compressed(
            path, names=np.array(self.names), name=np.frombuffer(self.name, np.int32),
            parent=np.frombuffer(self.parent, np.int32),
            op=np.frombuffer(self.op_id, np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
