"""Each check of the benchmark accepts a solver's answer and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import lps.analysis  # noqa: E402
import lps.cli  # noqa: E402
import lps.solvers  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402

M, N = 8, 20
A, Y = checks.gaussian_instance(7, M, N)
X0 = np.zeros(N)
X0[[3, 11]] = [1.0, -1.0]

CASES = [
    ("bp", A, Y, {"p": 1.5}),
    ("bp", A, Y, {"p": 2.0}),
    ("bp", A, Y, {"p": 3.0}),
    ("rr", A, Y, {"p": 1.2, "lam": 0.1}),
    ("rr", A, Y, {"p": 2.0, "lam": 0.1}),
    ("rr", A, Y, {"p": 4.5, "lam": 0.1}),
    ("en", A, Y, {"p": 1.5, "r": 1.0, "lam1": 0.1, "lam2": 0.1}),
    ("en", A, Y, {"p": 3.0, "r": 1.0, "lam1": 0.1, "lam2": 0.1}),
    ("bpdn_eps", A, Y, {"p": 1.5, "eps": 0.1 * np.linalg.norm(Y)}),
    ("bpdn_eta", A, Y, {"p": 3.0, "eta": 0.5 * workloads._pq_bound(A, Y, 3.0)}),
    ("bp_l1", A, A @ X0, {}),
    ("rr_irls", A, A @ X0, {"p": 0.5, "lam": 0.1}),
]
IDS = [f"{c[0]}-p{c[3].get('p')}" for c in CASES]


def _solve(family, A, y, params):
    res = getattr(lps.solvers, "solve_" + family)(A, y, **params)
    assert res.status == "converged"
    return res


def _check_params(family, params):
    return {"x0": X0} if family == "bp_l1" else params


@pytest.mark.parametrize("family,A,y,params", CASES, ids=IDS)
def test_solver_answer_passes(family, A, y, params):
    res = _solve(family, A, y, params)
    assert checks.solution(family, A, y, _check_params(family, params), res.x, res.multiplier) == []


@pytest.mark.parametrize("family,A,y,params", CASES, ids=IDS)
def test_nudged_answer_fails(family, A, y, params):
    res = _solve(family, A, y, params)
    signs = np.where(np.arange(N) % 2, 1.0, -1.0)
    nudged = res.x + 1e-6 * np.abs(res.x).max() * signs
    assert checks.solution(family, A, y, _check_params(family, params), nudged, res.multiplier)


@pytest.mark.parametrize("family,params", [
    ("bpdn_eps", {"p": 1.5, "eps": 0.1 * np.linalg.norm(Y)}),
    ("bpdn_eta", {"p": 3.0, "eta": 0.5 * workloads._pq_bound(A, Y, 3.0)}),
])
def test_bpdn_multiplier_of_wrong_sign_fails(family, params):
    res = _solve(family, A, Y, params)
    assert res.multiplier > 0
    assert checks.solution(family, A, Y, params, res.x, -res.multiplier)


@pytest.mark.parametrize("family,params", [
    ("bp", {"p": 1.5}),
    ("rr", {"p": 1.5, "lam": 0.1}),
    ("bpdn_eps", {"p": 1.5, "eps": 0.1 * np.linalg.norm(Y)}),
])
def test_objective_check_rejects_a_worse_point(family, params):
    res = _solve(family, A, Y, params)
    assert checks.objective_vs_scipy(family, A, Y, params, res.x) == []
    # a feasible point further along the null space: same constraint, worse objective
    worse = res.x + 0.05 * np.linalg.svd(A)[2][-1] * np.abs(res.x).max()
    assert checks.objective_vs_scipy(family, A, Y, params, worse)


def _experiment_csv(tmp_path):
    cfg = {"family": "bp", "m": M, "N": N, "p_grid": [1.5, 3.0], "trials": 3, "master_seed": 5}
    (tmp_path / "cfg.json").write_text(json.dumps(cfg))
    out = tmp_path / "out.csv"
    rc = lps.cli.main(["experiment", "--kind", "genericity", "--config", str(tmp_path / "cfg.json"),
                       "--out", str(out), "--workers", "1"])
    assert rc == 0
    return out.read_text()


def test_csv_passes_and_low_support_row_fails(tmp_path):
    text = _experiment_csv(tmp_path)
    assert checks.experiment_csv(text, M, N, 3, (1.5, 3.0))[0] == []
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[6] = str(N - M)  # support_size below N - m + 1
    lines[1] = ",".join(fields)
    problems, _ = checks.experiment_csv("\n".join(lines), M, N, 3, (1.5, 3.0))
    assert any("support" in p for p in problems)


def test_records_reject_unconverged_and_uncertified_trials():
    cfg = lps.analysis.ExperimentConfig(family="bp", m=M, N=N, trials=4, master_seed=3,
                                        p_grid=(1.5,))
    recs = lps.analysis.run_genericity_experiment(cfg).trials
    assert checks.records(recs, M, N) == []
    recs[0].full_support_certified = False
    assert checks.records(recs, M, N)
    recs[0].full_support_certified = True
    recs[1].status = "max_iter"
    assert checks.records(recs, M, N)


def test_records_reject_bpdn_multiplier_of_wrong_sign():
    cfg = lps.analysis.ExperimentConfig(family="bpdn_eps", m=M, N=N, trials=2, master_seed=3,
                                        p_grid=(1.5,))
    recs = lps.analysis.run_genericity_experiment(cfg).trials
    assert checks.records(recs, M, N) == []
    recs[0].multiplier_value = -recs[0].multiplier_value
    assert checks.records(recs, M, N)


def test_kept_failures_fail_their_checks():
    for op in workloads.fault_ops():
        assert workloads.op_problems(op, workloads._solve(op)), op.fault
