"""Spans around the public functions of haantjeskit, recorded from outside.

:meth:`Tracer.install` wraps every public function and public method (and
``__call__``) defined in a traced module, and puts each wrapper in every
``haantjeskit`` namespace that holds the original, because modules bind
names with ``from ... import``.  The entries of ``suites._SUITES`` get one
span each, named after the suite.  Jet constructions are counted, not
spanned, because a span costs more than a jet.

A span records its name, start, end and parent in flat arrays kept in
memory; :meth:`Tracer.dump` writes them out.  Self time is a span's
duration minus the time its child spans cover.  The program is
single-threaded, so spans nest strictly.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

PACKAGE = "haantjeskit"
LAYERS = {
    "haantjeskit.cli": "cli",
    "haantjeskit.report": "report",
    "haantjeskit.suites": "suites",
    "haantjeskit.sampling": "sampling",
    "haantjeskit.charts": "charts",
    "haantjeskit.torsion": "torsion",
    "haantjeskit.algebra": "algebra",
    "haantjeskit.poisson": "poisson",
    "haantjeskit.lagrange.flow": "lagrange.flow",
}
# The rest of the Lagrange-top case study: chart, field and operator
# constructors, and the few checks that live beside them.
MODEL_LAYER = "lagrange.model"


def layer_of(module: str):
    if module in LAYERS:
        return LAYERS[module]
    if module.startswith(PACKAGE + ".lagrange."):
        return MODEL_LAYER
    return None


def _package_modules():
    return [m for n, m in sorted(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def _targets():
    """``(layer, qualified name, function, owning class or None)`` for every
    function the tracer wraps."""
    for mod in _package_modules():
        layer = layer_of(mod.__name__)
        if layer is None:
            continue
        for name, obj in sorted(vars(mod).items()):
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not name.startswith("_"):
                yield layer, name, obj, None
            elif inspect.isclass(obj):
                for mname, fn in sorted(vars(obj).items()):
                    if inspect.isfunction(fn) and (
                            mname == "__call__" or not mname.startswith("_")):
                        yield layer, f"{obj.__name__}.{mname}", fn, obj


class Tracer:

    def __init__(self):
        self.names = []
        self.layers = []
        self._ids = {}
        self._name = array("q")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = [-1]
        self._undo = []
        self.jets = 0
        self.points = 0

    def _intern(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
        return self._ids[name]

    def _wrap(self, name: str, layer: str, fn, count_points: bool = False):
        nid = self._intern(name, layer)
        names, parents = self._name, self._parent
        starts, ends, stack = self._start, self._end, self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if count_points:
                    tracer.points += len(result)
                return result
            finally:
                ends[idx] = perf_counter()
                stack.pop()

        return span

    def _replace(self, holder, key, new) -> None:
        """Set ``holder[key]`` (a namespace dict) or ``holder.key`` (a
        class), remembering the original for :meth:`uninstall`."""
        if isinstance(holder, dict):
            self._undo.append((holder, key, holder[key]))
            holder[key] = new
        else:
            self._undo.append((holder, key, vars(holder)[key]))
            setattr(holder, key, new)

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for layer, qual, fn, cls in _targets():
            if inspect.isgeneratorfunction(fn):
                continue  # a span would close before the caller iterates
            span = self._wrap(f"{layer}:{qual}", layer, fn,
                              count_points=(layer == "sampling"))
            if cls is None:
                wrappers[id(fn)] = (fn, span)
            else:
                self._replace(cls, qual.rsplit(".", 1)[1], span)
        for mod in _package_modules():
            ns = vars(mod)
            for key, value in list(ns.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._replace(ns, key, hit[1])
        suites = sys.modules[PACKAGE + ".suites"]._SUITES
        for key, fn in list(suites.items()):
            self._replace(suites, key, self._wrap(f"suites:{key}", "suites",
                                                  fn))
        jet = sys.modules[PACKAGE + ".jets"].Jet
        init = jet.__init__

        def counting_init(obj, val, grad):
            self.jets += 1
            init(obj, val, grad)

        self._replace(jet, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._undo:
            holder, key, original = self._undo.pop()
            if isinstance(holder, dict):
                holder[key] = original
            else:
                setattr(holder, key, original)

    # -- analysis -----------------------------------------------------------

    def arrays(self):
        name = np.frombuffer(self._name, dtype=np.int64)
        parent = np.frombuffer(self._parent, dtype=np.int64)
        start = np.frombuffer(self._start, dtype=np.float64)
        end = np.frombuffer(self._end, dtype=np.float64)
        return name, parent, start, end

    def per_name(self) -> dict:
        """Per span name: ``(layer, count, total seconds, self seconds)``."""
        name, parent, start, end = self.arrays()
        dur = end - start
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=dur[nested],
                              minlength=len(dur))
        k = len(self.names)
        counts = np.bincount(name, minlength=k)
        totals = np.bincount(name, weights=dur, minlength=k)
        selfs = np.bincount(name, weights=dur - covered, minlength=k)
        return {n: (self.layers[i], int(counts[i]), float(totals[i]),
                    float(selfs[i]))
                for i, n in enumerate(self.names)}

    def dump(self, path) -> None:
        name, parent, start, end = self.arrays()
        np.savez_compressed(path, names=np.array(self.names),
                            layers=np.array(self.layers), name=name,
                            parent=parent, start=start, end=end)
