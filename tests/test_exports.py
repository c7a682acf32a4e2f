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


def test_import_leaves_scipy_optimize_out():
    # importing scipy.optimize costs 0.16-0.21 s of every process's start-up
    src_dir = pathlib.Path(importlib.import_module("lps").__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
    code = "import sys, lps, lps.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.optimize')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
