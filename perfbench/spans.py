"""Spans around the calls into each layer of lps, recorded from outside.

`Tracer.install()` replaces functions at the module attributes through which
the program calls them; `Tracer.remove()` puts the originals back.  Each
call records a span (name, start, end, parent) in memory.  Nothing inside
`src/lps` changes.

Layers and their hooks:

  pnorm      every public function of lps.pnorm
  linalg     scipy.linalg.cho_factor / cho_solve / null_space and
             numpy.linalg.solve / lstsq, as reached from lps.solvers
  solvers    the public solve_* functions, solve_instance and kkt_residual,
             at lps.solvers and at the names lps.analysis imports
  path       lps.solvers._rr_core beneath solve_bpdn_eps / solve_bpdn_eta
             (the inner rr solves of the Pareto-path root-find); beneath
             solve_rr it counts as solvers
  ensembles  the names lps.analysis imports from lps.ensembles
  analysis   run_genericity_experiment and certify_nonzero at lps.analysis
  pool       ProcessPoolExecutor as lps.analysis names it: submitted tasks
"""

from __future__ import annotations

import concurrent.futures
import functools
import types
from time import perf_counter_ns

import numpy
import scipy.linalg

import lps.analysis
import lps.ensembles
import lps.pnorm
import lps.solvers

PATH_HOOK = "_rr_core"
BPDN = ("solve_bpdn_eps", "solve_bpdn_eta")
LAYERS = ("pnorm", "linalg", "solvers", "path", "ensembles", "analysis")


def _module_copy(mod, **overrides):
    """A module object holding mod's names, with some replaced."""
    copy = types.ModuleType(mod.__name__)
    copy.__dict__.update(mod.__dict__)
    copy.__dict__.update(overrides)
    return copy


class Tracer:
    def __init__(self):
        self.names = []   # span name id -> (layer, name)
        self.spans = []   # (name id, start ns, end ns, parent index or -1)
        self.stack = []
        self.tasks = 0
        self._patches = []

    def _wrap(self, layer, name, fn):
        ident = len(self.names)
        self.names.append((layer, name))
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (ident, start, end, stack[-1] if stack else -1)

        return functools.wraps(fn)(traced) if isinstance(fn, types.FunctionType) else traced

    def _patch(self, obj, attr, value):
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _hook(self, obj, attr, layer):
        self._patch(obj, attr, self._wrap(layer, attr, getattr(obj, attr)))

    def install(self):
        if not callable(getattr(lps.solvers, PATH_HOOK, None)):
            raise RuntimeError(f"lps.solvers.{PATH_HOOK} is gone: the traced run cannot "
                               "count the inner rr solves of the bpdn path")
        for name in dir(lps.pnorm):
            fn = getattr(lps.pnorm, name)
            if not name.startswith("_") and isinstance(fn, types.FunctionType) \
                    and fn.__module__ == lps.pnorm.__name__:
                self._hook(lps.pnorm, name, "pnorm")
        sp_linalg = _module_copy(scipy.linalg, **{
            n: self._wrap("linalg", f"scipy.linalg.{n}", getattr(scipy.linalg, n))
            for n in ("cho_factor", "cho_solve", "null_space")})
        np_linalg = _module_copy(numpy.linalg, **{
            n: self._wrap("linalg", f"numpy.linalg.{n}", getattr(numpy.linalg, n))
            for n in ("solve", "lstsq")})
        self._patch(lps.solvers, "scipy", _module_copy(lps.solvers.scipy, linalg=sp_linalg))
        self._patch(lps.solvers, "np", _module_copy(lps.solvers.np, linalg=np_linalg))
        for name in lps.solvers.__all__:
            if name.startswith("solve_") or name == "kkt_residual":
                self._hook(lps.solvers, name, "solvers")
        self._hook(lps.solvers, PATH_HOOK, "path")
        for name in ("solve_instance", "solve_bp", "solve_bp_l1", "kkt_residual"):
            self._hook(lps.analysis, name, "solvers")
        for name in ("EnsembleSpec", "derive_seed", "gen_gaussian_instance",
                     "gen_sparse_measured", "rng_for"):
            self._hook(lps.analysis, name, "ensembles")
        for name in ("run_genericity_experiment", "certify_nonzero"):
            self._hook(lps.analysis, name, "analysis")
        tracer = self

        class CountingPool(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                tracer.tasks += 1
                return super().submit(fn, *args, **kwargs)

        self._patch(lps.analysis, "ProcessPoolExecutor", CountingPool)

    def remove(self):
        while self._patches:
            obj, attr, value = self._patches.pop()
            setattr(obj, attr, value)

    def calls(self, name):
        """Number of spans of one hooked name."""
        idents = {i for i, (_, n) in enumerate(self.names) if n == name}
        return sum(span[0] in idents for span in self.spans)

    def layer_totals(self):
        """Per layer: [calls, self time ns, inclusive time ns]."""
        names, spans = self.names, self.spans
        child_ns = [0] * len(spans)
        for ident, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        under_bpdn = [False] * len(spans)
        for i, (ident, start, end, parent) in enumerate(spans):  # parents precede children
            if parent >= 0:
                under_bpdn[i] = under_bpdn[parent] or names[spans[parent][0]][1] in BPDN
        totals = {layer: [0, 0, 0] for layer in LAYERS}
        for i, (ident, start, end, parent) in enumerate(spans):
            layer = names[ident][0]
            if layer == "path" and not under_bpdn[i]:
                layer = "solvers"
            t = totals[layer]
            t[0] += 1
            t[1] += end - start - child_ns[i]
            t[2] += end - start
        return totals

    def write(self, path):
        """Write the spans as CSV lines: index, layer, name, start ns, end ns, parent."""
        with open(path, "w") as fh:
            fh.write("index,layer,name,start_ns,end_ns,parent\n")
            for i, (ident, start, end, parent) in enumerate(self.spans):
                layer, name = self.names[ident]
                fh.write(f"{i},{layer},{name},{start},{end},{parent}\n")
