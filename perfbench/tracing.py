"""Spans around folprin's public functions, for the traced run.

`Tracer.install()` wraps every public module-level function of the eight
folprin modules, and the Jet methods `__mul__` (with its alias `__rmul__`)
and `substitute`.  Every module attribute in the process that refers to a
wrapped original is rebound to its wrapper, so the `from .x import f`
aliases in `invariant`, `driver` and `__init__` (and the benchmark's own
imports) are covered; `unpatched()` re-scans and lists any binding that was
missed.

Each call records one span: name, start, end, parent span and task id.
Spans live in flat arrays until `write()` saves them once, at exit.  Self
time is derived from the span tree: a span's duration minus the durations
of its child spans.  A few boundaries also record counters (system sizes,
"no" answers and content keys) after the call, inside a bookkeeping span
so that the time they take is not charged to the caller.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

MODULES = ("kernel", "foliation", "rees", "rectify", "invariant", "blowup",
           "monres", "driver")
# Jet methods wrapped besides the module functions: attribute -> span name.
JET_METHODS = {"__mul__": "kernel.Jet.__mul__",
               "__rmul__": "kernel.Jet.__mul__",
               "substitute": "kernel.Jet.substitute"}
BOOKKEEPING = "trace.bookkeeping"


def _linsolve_key(columns, rhs, nrows):
    return hash((nrows, tuple(frozenset(c.items()) for c in columns),
                 frozenset(rhs.items())))


def _f_order_key(F, I, budget=None):
    return hash((tuple(F.generators), I, budget))


def _inv_key(inst):
    return hash((inst.context, inst.rees, tuple(inst.foliation.generators)))


class Tracer:
    def __init__(self):
        self.names = []                 # span name per name id
        self._ids = {}
        self.name_of = array("i")       # per span
        self.parent = array("i")
        self.task = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.current_task = -1
        self.enabled = False
        self.counters = {"linsolve.cells": 0, "linsolve.no": 0,
                         "driver.steps": 0}
        self.keys = {"linsolve": set(), "f_order_at": set(), "inv_at": set()}
        self._originals = {}            # id(original) -> (original, wrapper)

    # recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.name_of)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.task.append(self.current_task)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self._stack.append(i)
        return i

    def _close(self, i):
        self.end[i] = perf_counter()
        self._stack.pop()

    def close_open_spans(self):
        """After a task was interrupted: end every span still open."""
        while len(self._stack) > 1:
            self._close(self._stack[-1])

    def _wrap(self, fn, name, after=None, name_for=None):
        nid = self._name_id(name)
        keep = self._name_id(BOOKKEEPING)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            i = self._open(name_for(*args) if name_for else nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                j = self._open(keep)
                after(result, *args, **kwargs)
                self._close(j)
            return result

        self._originals[id(fn)] = (fn, wrapper)
        return wrapper

    # counters at boundaries --------------------------------------------

    def _after_linsolve(self, result, columns, rhs, nrows):
        self.counters["linsolve.cells"] += nrows * len(columns)
        self.counters["linsolve.no"] += result is None
        self.keys["linsolve"].add(_linsolve_key(columns, rhs, nrows))

    def _after_f_order(self, result, *args, **kwargs):
        self.keys["f_order_at"].add(_f_order_key(*args, **kwargs))

    def _after_inv(self, result, inst):
        self.keys["inv_at"].add(_inv_key(inst))

    def _after_principalize(self, result, *args):
        self.counters["driver.steps"] += len(result)

    # patching ----------------------------------------------------------

    def install(self):
        """Wrap and rebind; call before building the inputs to trace, since
        objects built earlier may hold the originals."""
        from folprin.foliation import Derivation
        from folprin.kernel import Jet
        membership = self._name_id("foliation.membership")
        module_membership = self._name_id("foliation.module_membership")
        special = {
            "kernel.linsolve": dict(after=self._after_linsolve),
            "foliation.f_order_at": dict(after=self._after_f_order),
            "invariant.inv_at": dict(after=self._after_inv),
            "driver.principalize": dict(after=self._after_principalize),
            "foliation.jet_module_coeffs": dict(
                name_for=lambda target, *rest: (
                    module_membership if isinstance(target, Derivation)
                    else membership)),
        }
        for short in MODULES:
            mod = sys.modules["folprin." + short]
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    name = "%s.%s" % (short, attr)
                    self._wrap(fn, name, **special.get(name, {}))
        for attr, name in JET_METHODS.items():
            fn = vars(Jet)[attr]
            if id(fn) not in self._originals:
                self._wrap(fn, name)
        self._rebind()

    def _bindings(self):
        """(owner, attribute, value) for every module attribute in the
        process and every class attribute of folprin's classes."""
        for mod in list(sys.modules.values()):
            scope = getattr(mod, "__dict__", None)
            if scope is None:
                continue
            for attr, value in list(scope.items()):
                yield mod, attr, value
                if (inspect.isclass(value) and mod.__name__.startswith("folprin")
                        and value.__module__ == mod.__name__):
                    for cattr, cvalue in list(vars(value).items()):
                        yield value, cattr, cvalue

    def _rebind(self):
        for owner, attr, value in self._bindings():
            hit = self._originals.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])

    def uninstall(self):
        """Rebind every wrapper to its original again."""
        back = {id(w): (w, f) for f, w in self._originals.values()}
        for owner, attr, value in self._bindings():
            hit = back.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(owner, attr, hit[1])

    def unpatched(self):
        """Bindings that still refer to an unwrapped original."""
        return sorted({"%s.%s" % (getattr(owner, "__name__", owner), attr)
                       for owner, attr, value in self._bindings()
                       if id(value) in self._originals
                       and self._originals[id(value)][0] is value})

    # derived metrics ---------------------------------------------------

    def _tree(self, scale=None):
        """(calls, self seconds, inclusive seconds) per span name; the
        inclusive time counts only spans with no same-name ancestor.  With
        `scale`, a span's duration is multiplied by `scale[task id]`."""
        n = len(self.name_of)
        durs = [self.end[i] - self.start[i] for i in range(n)]
        if scale is not None:
            durs = [d * scale[t] for d, t in zip(durs, self.task)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += durs[i]
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for i in range(n):
            nid = self.name_of[i]
            dur = durs[i]
            s = stats[self.names[nid]]
            s[0] += 1
            s[1] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.name_of[p] != nid:
                p = self.parent[p]
            if p < 0:
                s[2] += dur
        return stats

    def layer_metrics(self, wall_s, overhead_frac, scale=None):
        """Every per-layer metric; `wall_s` is the traced tasks' time,
        `overhead_frac` the traced/untraced ratio minus one, and `scale`
        the per-task factor applied to span times (see `_tree`)."""
        stats = self._tree(scale)

        def get(span, k):
            return stats.get(span, [0, 0.0, 0.0])[k]

        def calls(span):
            return get(span, 0)

        def frac(num, den):
            return num / den if den else 0.0

        out = {}

        def put(name, unit, value):
            out[name] = {"value": value, "unit": unit}

        for metric, span in (("kernel.linsolve", "kernel.linsolve"),
                             ("kernel.jet_mul", "kernel.Jet.__mul__"),
                             ("kernel.substitute", "kernel.Jet.substitute")):
            put(metric + ".calls", "count", calls(span))
            put(metric + ".self_s", "s", get(span, 1))
            if metric == "kernel.linsolve":
                put(metric + ".cells", "count",
                    self.counters["linsolve.cells"])
                put(metric + ".no_frac", "ratio",
                    frac(self.counters["linsolve.no"], calls(span)))
                put(metric + ".distinct_frac", "ratio",
                    frac(len(self.keys["linsolve"]), calls(span)))
        for metric in ("foliation.membership", "foliation.module_membership"):
            put(metric + ".calls", "count", calls(metric))
            put(metric + ".self_s", "s", get(metric, 1))
        put("foliation.f_order_at.calls", "count",
            calls("foliation.f_order_at"))
        put("foliation.f_order_at.incl_s", "s",
            get("foliation.f_order_at", 2))
        put("foliation.f_order_at.distinct_frac", "ratio",
            frac(len(self.keys["f_order_at"]), calls("foliation.f_order_at")))
        put("foliation.f_infty.incl_s", "s", get("foliation.f_infty", 2))
        put("rees.coefficient_rees.incl_s", "s",
            get("rees.coefficient_rees", 2))
        put("rees.is_admissible.calls", "count", calls("rees.is_admissible"))
        put("rectify.rectify_coordinate.incl_s", "s",
            get("rectify.rectify_coordinate", 2))
        put("rectify.split_foliation.incl_s", "s",
            get("rectify.split_foliation", 2))
        put("rectify.invert_jet_map.calls", "count",
            calls("rectify.invert_jet_map"))
        put("rectify.invert_jet_map.incl_s", "s",
            get("rectify.invert_jet_map", 2))
        put("invariant.inv_at.calls", "count", calls("invariant.inv_at"))
        put("invariant.inv_at.incl_s", "s", get("invariant.inv_at", 2))
        put("invariant.inv_at.self_s", "s", get("invariant.inv_at", 1))
        put("invariant.inv_at.distinct_frac", "ratio",
            frac(len(self.keys["inv_at"]), calls("invariant.inv_at")))
        put("invariant.find_maximal_contact.incl_s", "s",
            get("invariant.find_maximal_contact", 2))
        put("blowup.transform_rees.incl_s", "s",
            get("blowup.transform_rees", 2))
        put("blowup.transform_foliation.incl_s", "s",
            get("blowup.transform_foliation", 2))
        put("blowup.etale_chart.calls", "count", calls("blowup.etale_chart"))
        put("monres.monomial_resolve.calls", "count",
            calls("monres.monomial_resolve"))
        put("monres.monomial_resolve.incl_s", "s",
            get("monres.monomial_resolve", 2))
        put("driver.principalize.self_s", "s",
            get("driver.principalize", 1))
        put("driver.steps", "count", self.counters["driver.steps"])
        put("trace.spans", "count", len(self.name_of))
        put("trace.wall_s", "s", wall_s)
        put("trace.overhead_frac", "ratio", overhead_frac)
        return out

    # output ------------------------------------------------------------

    def write(self, stem: Path):
        """Save the spans: `<stem>.json` names the columns and spans,
        `<stem>.bin` holds the five arrays back to back."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = [("name", self.name_of), ("parent", self.parent),
                   ("task", self.task), ("start", self.start),
                   ("end", self.end)]
        with open(str(stem) + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {"spans": len(self.name_of), "names": self.names,
                  "columns": [[c, col.typecode, col.itemsize]
                              for c, col in columns]}
        with open(str(stem) + ".json", "w") as fh:
            json.dump(header, fh, indent=1)
