"""Spans and counters around curvelog's public callables, for the traced run.

A module that does ``from .iterint import integrate_h_words`` holds its own
reference to the function, so a wrapper is installed at every binding of the
callable in the ``curvelog`` package and its modules, and every binding is
restored afterwards.  The benchmark calls curvelog through the package's
attributes, so it sees the wrappers too.

Spans are kept in flat arrays in memory until the end of the run; a span's
self time is its duration minus the durations of its direct children.
Counters only count calls, because the callables they wrap (scalar
arithmetic, shuffles of two words) run millions of times.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

ROOT_SPAN = "bench.op"

# (span name, module, attribute path, per-call measurement or None)
SPANS = (
    ("iterint.integrate", "curvelog.iterint", "integrate_h_words", "integrate"),
    ("iterint.integrate", "curvelog.iterint", "integrate_words", "integrate"),
    ("iterint.plan_path", "curvelog.iterint", "plan_path", None),
    ("hyperlog.eval_L", "curvelog.hyperlog", "eval_L", None),
    ("hyperlog.regularize", "curvelog.hyperlog", "regularize", None),
    ("monodromy.pairing", "curvelog.monodromy", "pairing", None),
    ("monodromy.monodromy_operator", "curvelog.monodromy",
     "monodromy_operator", "operator"),
    ("monodromy.matmul", "curvelog.monodromy",
     "MonodromyOperator.__matmul__", None),
    ("monodromy.act", "curvelog.monodromy", "MonodromyOperator.act", None),
    ("monodromy.unipotence_check", "curvelog.monodromy", "unipotence_check",
     None),
    ("reduce.normal_form", "curvelog.reduce", "normal_form", "normal_form"),
    ("reduce.decompose_subker", "curvelog.reduce", "decompose_subker", None),
    ("reduce.kernel_member", "curvelog.reduce", "kernel_member", None),
    ("curve_genus0.RationalFunction.mul", "curvelog.curve_genus0",
     "RationalFunction.__mul__", None),
    ("curve_genus0.decompose", "curvelog.curve_genus0", "decompose", None),
)

# (counter name, module, attribute path)
COUNTERS = (
    ("scalars.QI.mul", "curvelog.scalars", "QI.__mul__"),
    ("scalars.QI.add", "curvelog.scalars", "QI.__add__"),
    ("shuffle_core.shuffle_words", "curvelog.shuffle_core", "shuffle_words"),
)

# Spans whose call count per operation is reported besides their self time.
CALL_COUNTS = ("iterint.integrate", "hyperlog.regularize",
               "curve_genus0.RationalFunction.mul")

# Quantities summed over calls, reported per operation with their units.
QUANTITIES = {
    "iterint.integrate.words": "count",
    "iterint.integrate.segments": "count",
    "monodromy.basis_words": "count",
    "monodromy.matrix_mb": "MB",
    "reduce.normal_form.terms_out": "count",
}


def _measure_integrate(sums, args, kwargs, result):
    # the value map covers the whole prefix closure, the integrated system
    path = args[0] if args else kwargs["path"]
    sums["iterint.integrate.words"] += len(result[0])
    sums["iterint.integrate.segments"] += len(path.segments)


def _measure_operator(sums, args, kwargs, result):
    n = len(result.basis)
    sums["monodromy.basis_words"] += n
    sums["monodromy.matrix_mb"] += n * n * 16 / 1e6


def _measure_normal_form(sums, args, kwargs, result):
    sums["reduce.normal_form.terms_out"] += len(result.terms)


_MEASURES = {"integrate": _measure_integrate, "operator": _measure_operator,
             "normal_form": _measure_normal_form}


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name)
    return owner, owner.__dict__[attr]


class Tracer:
    def __init__(self):
        self.span_names: list = []
        self._span_ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.counts: dict = {}
        self.sums = {name: 0.0 for name in QUANTITIES}
        self._restore: list = []

    def _sid(self, name: str) -> int:
        if name not in self._span_ids:
            self._span_ids[name] = len(self.span_names)
            self.span_names.append(name)
        return self._span_ids[name]

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._sid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name, fn, measure):
        sums = self.sums
        opened, closed = self.open, self.close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = opened(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                closed(idx)
            if measure is not None:
                measure(sums, args, kwargs, result)
            return result

        return traced

    def _counter_wrapper(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        """Wrap every binding of the traced callables."""
        for name, _, _, _ in SPANS:
            self._sid(name)
        wrappers = []
        for name, module, path, measure in SPANS:
            owner, fn = _resolve(module, path)
            wrappers.append((owner, fn, self._span_wrapper(
                name, fn, _MEASURES.get(measure))))
        for name, module, path in COUNTERS:
            owner, fn = _resolve(module, path)
            wrappers.append((owner, fn, self._counter_wrapper(name, fn)))
        namespaces = [m for key, m in sys.modules.items()
                      if key == "curvelog" or key.startswith("curvelog.")]
        for owner, fn, wrapper in wrappers:
            # class attributes: every alias in the defining class, such as
            # __rmul__ = __mul__; module functions: every module binding
            targets = [owner] if isinstance(owner, type) else namespaces
            for ns in targets:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, attr, wrapper)
                        self._restore.append((ns, attr, fn))

    def uninstall(self):
        for ns, attr, fn in reversed(self._restore):
            setattr(ns, attr, fn)
        self._restore.clear()

    def self_times(self) -> dict:
        """Total self time and call count of each span name, in seconds."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        totals = {name: [0.0, 0] for name in self.span_names}
        for i in range(n):
            entry = totals[self.span_names[self.name_id[i]]]
            entry[0] += self.end[i] - self.start[i] - child[i]
            entry[1] += 1
        return totals

    def per_layer(self, n_ops: int) -> dict:
        """Per-operation metrics: self time in ms for each span, calls for
        some, counter calls, and summed quantities."""
        out = {}
        for name, (self_s, calls) in self.self_times().items():
            if name == ROOT_SPAN:
                continue
            out[f"{name}.self_ms"] = (self_s * 1e3 / n_ops, "ms")
            if name in CALL_COUNTS:
                out[f"{name}.calls"] = (calls / n_ops, "count")
        for name, cell in self.counts.items():
            out[f"{name}.calls"] = (cell[0] / n_ops, "count")
        for name, unit in QUANTITIES.items():
            out[name] = (self.sums[name] / n_ops, unit)
        return out
