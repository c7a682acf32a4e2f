"""The benchmark's tracer (perfbench/spans.py) still finds every name it hooks in lps.

The traced benchmark run prints no result when a hooked name is gone, so a
rename inside lps.solvers (_rr_core, its np or scipy module names) shows here.
"""

import importlib.util
import pathlib

import numpy as np

import lps.analysis
import lps.solvers

SPANS = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_removes():
    hooked = ("_rr_core", "np", "scipy", "solve_bpdn_eps", "solve_en")
    before = {name: getattr(lps.solvers, name) for name in hooked}
    pool = lps.analysis.ProcessPoolExecutor
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert all(getattr(lps.solvers, name) is not before[name] for name in hooked)
        rng = np.random.default_rng(1)
        A, y = rng.normal(size=(8, 20)), rng.normal(size=8)
        assert lps.solvers.solve_bpdn_eps(A, y, 1.5, 0.1 * np.linalg.norm(y)).converged
        assert tracer.calls("_rr_core") >= 1 and tracer.calls("solve_bpdn_eps") == 1
        assert tracer.layer_totals()["path"][0] == tracer.calls("_rr_core")
    finally:
        tracer.remove()
    assert all(getattr(lps.solvers, name) is before[name] for name in hooked)
    assert lps.analysis.ProcessPoolExecutor is pool
