import importlib

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
