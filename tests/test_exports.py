import importlib
import os
import pathlib
import subprocess
import sys

import pytest

MODULES = ["lps", "lps.solvers", "lps.analysis", "lps.pnorm", "lps.linalg",
           "lps.ensembles", "lps.io_text"]


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves_without_repeats(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(set(exported)) == len(exported), [n for n in exported if exported.count(n) > 1]
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, missing


def _run_fresh(code):
    src_dir = pathlib.Path(importlib.import_module("lps").__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


LOADED = "print(sorted(m for m in sys.modules if m.startswith(('scipy.optimize', 'scipy.linalg'))))"


def test_import_leaves_scipy_optimize_out():
    # importing scipy.optimize costs 0.16-0.21 s of every process's start-up,
    # and scipy.linalg 0.18-0.29 s; neither is needed before a solver runs
    assert _run_fresh("import sys, lps, lps.cli, lps.analysis; " + LOADED) == ["[]"]


SOLVES = """
import sys
import numpy as np
import lps.solvers as s
from lps import pnorm

rng = np.random.default_rng(8)
A, y = rng.normal(size=(8, 20)), rng.normal(size=8)
runs = []
for p in (1.5, 3.0):
    bp = s.solve_bp(A, y, p)
    runs += [bp, s.solve_rr(A, y, p, 0.1), s.solve_en(A, y, p, 2.0, 0.1, 0.1),
             s.solve_bpdn_eps(A, y, p, 0.5 * np.linalg.norm(y)),
             s.solve_bpdn_eta(A, y, p, 0.5 * pnorm.pnorm(bp.x, p))]
runs += [s.solve_rr_irls(A, y, 0.5, 0.1), s.solve_bp_l1(A, y)]
A, y = rng.normal(size=(2, 64, 70)), rng.normal(size=(2, 64))
for p in (1.5, 3.0):
    bp = s.solve_stack("bp", A, y, p)
    runs += bp + s.solve_stack("rr", A, y, p, lam=0.1)
    runs += s.solve_stack("en", A, y, p, r=2.0, lam1=0.1, lam2=0.1)
    runs += s.solve_stack("bpdn_eps", A, y, p, eps=0.5 * np.linalg.norm(y, axis=1))
    runs += s.solve_stack("bpdn_eta", A, y, p, eta=[0.5 * pnorm.pnorm(r.x, p) for r in bp])
print(sorted({r.status for r in runs}))
""" + LOADED


def test_solves_leave_scipy_linalg_out():
    # every Newton, warm-start, path-slope and IRLS system is solved by
    # numpy.linalg, at orders below and above 64 alike
    assert _run_fresh(SOLVES) == ["['converged']", "[]"]
