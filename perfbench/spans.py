"""Span tracer for the benchmark's traced run.

`Tracer.install` replaces every public function of the layers quadrature,
wavepacket, kernels and decoherence, plus `cli.main`, with a wrapper that
records one span per call (name, start, end, parent span, op index) and
per-function counters.  Nothing in the program changes: the wrappers are
swapped into the module namespaces that hold the original functions, so
calls between modules and inside a module both pass through them.

Counters, per function:

- calls, total_s (outermost calls of that function only, so recursion is
  not counted twice) and self_s (span time minus the time of child spans);
- quadrature functions: evals, the program-reported
  `IntegrationResult.evaluations` of calls made from outside the quadrature
  module; a call the module makes to itself is already inside its caller's
  count.  `pv_integrate_1d` reports fewer evaluations than its integrand
  sees (folded shells count once, the excision probes not at all), so these
  are the program's counts, not the integrand's;
- quadrature functions: converged and nonconverged results;
- `cylinder_F`: points, counted here as the broadcast size of its arguments;
- `kappa_bruteforce_oracle`: samples, read from its arguments.

Spans are kept in flat arrays and written out by `write_spans`.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("quadrature", "wavepacket", "kernels", "decoherence")
QUADRATURE = "edecoh.quadrature"
INTEGRATORS = ("quadrature.integrate_1d", "quadrature.pv_integrate_1d", "quadrature.integrate_nd")


class Stat:
    __slots__ = ("calls", "active", "total_s", "self_s", "evals", "converged", "nonconverged", "counted")

    def __init__(self) -> None:
        self.calls = self.active = self.evals = self.converged = self.nonconverged = self.counted = 0
        self.total_s = self.self_s = 0.0


def _points(args, kwargs) -> int:
    return np.broadcast(*args[:3]).size


def _samples(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs) -> int:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["samples"])

    return count


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.stats: dict[str, Stat] = {}
        self.op = 0
        self._name = array("i")
        self._parent = array("i")
        self._op = array("i")
        self._start = array("d")
        self._end = array("d")
        self._stack: list[list] = []  # [span index, time covered by child spans]

    def _wrap(self, name: str, fn, counter=None):
        name_id = len(self.names)
        self.names.append(name)
        stat = self.stats[name] = Stat()
        quadrature = name in INTEGRATORS
        stack, starts, ends = self._stack, self._start, self._end
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if counter is not None:
                stat.counted += counter(args, kwargs)
            external = quadrature and sys._getframe(1).f_globals.get("__name__") != QUADRATURE
            index = len(starts)
            self._name.append(name_id)
            self._parent.append(stack[-1][0] if stack else -1)
            self._op.append(self.op)
            ends.append(0.0)
            frame = [index, 0.0]
            stack.append(frame)
            stat.active += 1
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[index] = end
                stack.pop()
                stat.active -= 1
                duration = end - start
                stat.calls += 1
                stat.self_s += duration - frame[1]
                if not stat.active:
                    stat.total_s += duration
                if stack:
                    stack[-1][1] += duration
            if quadrature:
                if result.converged:
                    stat.converged += 1
                else:
                    stat.nonconverged += 1
                if external:
                    stat.evals += result.evaluations
            return result

        return traced

    def install(self) -> None:
        targets = []
        for layer in LAYERS:
            module = importlib.import_module(f"edecoh.{layer}")
            targets += [(layer, n, getattr(module, n)) for n in module.__all__]
        targets.append(("cli", "main", importlib.import_module("edecoh.cli").main))
        modules = [m for n, m in sys.modules.items() if n == "edecoh" or n.startswith("edecoh.")]
        for layer, fname, fn in targets:
            if not inspect.isfunction(fn):
                continue
            counter = None
            if fname == "cylinder_F":
                counter = _points
            elif fname == "kappa_bruteforce_oracle":
                counter = _samples(fn)
            traced = self._wrap(f"{layer}.{fname}", fn, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, traced)

    @property
    def spans(self) -> int:
        return len(self._start)

    def write_spans(self, path) -> None:
        """gzip CSV, one span per line; times in seconds from the first span."""
        t0 = self._start[0] if self._start else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span,op,name,parent,start_s,end_s\n")
            for i in range(len(self._start)):
                fh.write(
                    f"{i},{self._op[i]},{self.names[self._name[i]]},{self._parent[i]},"
                    f"{self._start[i] - t0:.9f},{self._end[i] - t0:.9f}\n"
                )

    def metrics(self) -> dict[str, float]:
        """Every counter as `<layer>.<function>.<stat>`, plus quadrature.converged_frac."""
        out: dict[str, float] = {}
        calls = converged = 0
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.total_s"] = st.total_s
            out[f"{name}.self_s"] = st.self_s
            if name in INTEGRATORS:
                out[f"{name}.evals"] = st.evals
                out[f"{name}.nonconverged"] = st.nonconverged
                calls += st.calls
                converged += st.converged
            if name == "wavepacket.cylinder_F":
                out[f"{name}.points"] = st.counted
            if name == "wavepacket.kappa_bruteforce_oracle":
                out[f"{name}.samples"] = st.counted
        out["quadrature.converged_frac"] = converged / calls if calls else 1.0
        return out
