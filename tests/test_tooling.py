"""The benchmark (perfbench/) still runs on lps and accepts its answers.

The traced benchmark run prints no result when a hooked name is gone, so a
rename inside lps.solvers (_rr_core, its np or scipy module names) shows here,
and so does a certificate that lps.analysis no longer calls by its module name.
One round of the mc-path and solve-mixed workloads goes through the
benchmark's own checks, so an answer the benchmark would reject fails here.
"""

import importlib
import importlib.util
import pathlib

import numpy as np
import pytest

import lps.analysis
import lps.ensembles
import lps.solvers

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def test_certificate_counts_one_span():
    # criterion 8's trial 77 (bp, p = 1.5) has a coordinate under 1e-6, so
    # certifying it calls certify_nonzero once, through lps.analysis
    seed = lps.ensembles.derive_seed(20260816, 0, 77)
    A, y, _, _ = lps.ensembles.gen_sparse_measured(
        lps.ensembles.EnsembleSpec(m=8, N=21, seed=seed, sparsity=2))
    inst = lps.solvers.ProblemInstance(A, y, "bp", p=1.5)
    res = lps.solvers.solve_instance(inst)
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert lps.analysis.certified_full_support(inst, res)
        assert tracer.calls("certify_nonzero") == 1
    finally:
        tracer.remove()


@pytest.mark.parametrize("workload", ["mc-path", "solve-mixed"])
def test_workload_round_passes_its_checks(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # workloads imports checks by that path
    workloads = importlib.import_module("workloads")
    wl = workloads.build(workload, 61803, str(tmp_path), 0)
    problems, failed = wl.check([call() for call in wl.calls])
    assert problems == []
    assert failed == 0
