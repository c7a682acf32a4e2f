import dataclasses
import os
import pathlib
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from lps import analysis, ensembles, pnorm, solvers
from lps.analysis import ExperimentConfig, SupportReport, support
from lps.errors import InvalidInputError
from lps.solvers import (
    ProblemInstance,
    SolverConfig,
    solve_bp,
    solve_bpdn_eps,
    solve_instance,
    solve_rr,
)


class TestSupport:
    def test_zero_vector(self):
        rep = support([0.0, 0.0], 1e-6)
        assert rep.size == 0
        assert rep.indices == ()
        assert rep.min_rel_magnitude == 0.0

    def test_threshold(self):
        rep = support([1e-12, 0.5, -0.3], 1e-6)
        assert rep.indices == (1, 2)
        assert rep.size == 2
        assert rep.min_rel_magnitude == pytest.approx(0.6)

    def test_zero_tol_counts_everything(self):
        rep = support([1.0, 1.0, 1.0], 0.0)
        assert rep.size == 3
        assert rep.min_rel_magnitude == 1.0

    def test_rejects_bad_tol(self):
        with pytest.raises(InvalidInputError):
            support([1.0], 1.0)
        with pytest.raises(InvalidInputError):
            support([1.0], -0.1)


class TestLowerBound:
    def test_cases(self):
        mk = lambda size: SupportReport((), size, 0.5, 1e-6)
        assert analysis.check_lower_bound(mk(20), 8, 20)
        assert analysis.check_lower_bound(mk(13), 8, 20)
        assert not analysis.check_lower_bound(mk(12), 8, 20)


class TestGenericityExperiment:
    def test_bp_small_run(self):
        cfg = ExperimentConfig(
            family="bp", m=3, N=8, trials=10, master_seed=7, p_grid=(1.5, 3.0)
        )
        stats = analysis.run_genericity_experiment(cfg)
        assert len(stats.cells) == 2
        for cell in stats.cells:
            assert cell.trials_run == 10
            assert cell.failures == 0
            assert cell.full_support_fraction == 1.0
            assert cell.min_support_seen >= 8 - 3 + 1
            assert cell.kkt_residual_max <= 1e-8
        assert len(stats.trials) == 20

    def test_deterministic_and_worker_independent(self):
        cfg = ExperimentConfig(
            family="rr", m=2, N=5, trials=6, master_seed=11, p_grid=(1.5,)
        )
        a = analysis.run_genericity_experiment(cfg)
        b = analysis.run_genericity_experiment(cfg)
        c = analysis.run_genericity_experiment(cfg, workers=2)
        for other in (b, c):
            for ra, rb in zip(a.trials, other.trials):
                assert ra.seed == rb.seed
                assert ra.support_size == rb.support_size
                assert ra.kkt_residual == rb.kkt_residual
                assert ra.min_rel_magnitude == rb.min_rel_magnitude

    def test_bpdn_families_record_constraints(self):
        for family in ("bpdn_eps", "bpdn_eta"):
            cfg = ExperimentConfig(
                family=family, m=2, N=6, trials=4, master_seed=3, p_grid=(2.0,)
            )
            stats = analysis.run_genericity_experiment(cfg)
            for rec in stats.trials:
                assert rec.status == "converged"
                assert rec.constraint_target is not None
                assert rec.constraint_value == pytest.approx(
                    rec.constraint_target, rel=1e-6
                )
                assert rec.multiplier_value > 0

    def test_sparse_measured_instances(self):
        cfg = ExperimentConfig(
            family="bp", m=3, N=9, trials=5, master_seed=5, p_grid=(2.0,), sparsity=2
        )
        stats = analysis.run_genericity_experiment(cfg)
        assert stats.cells[0].full_support_fraction == 1.0

    def test_sparse_measured_p2_full_support_at_scale(self):
        # 2-sparse measurements still yield fully dense p=2 solutions
        cfg = ExperimentConfig(
            family="bp", m=8, N=21, trials=200, master_seed=6, p_grid=(2.0,), sparsity=2
        )
        stats = analysis.run_genericity_experiment(cfg)
        assert stats.cells[0].full_support_fraction >= 0.99

    @pytest.mark.parametrize("field,value", [
        ("m", 3.0), ("N", 8.5), ("trials", 2.5), ("master_seed", 1.0), ("sparsity", 2.5),
        ("master_seed", -1), ("master_seed", 2 ** 64), ("trials", True), ("sparsity", False),
        ("p_grid", ("x",)), ("p_grid", (2.0, None)), ("p_grid", 2.0), ("support_tol", "x"),
        ("support_tol", None), ("epsilon_fraction", "0.1"), ("eta_fraction", True)])
    def test_rejects_bad_integer_fields(self, field, value):
        fields = dict(family="bp", m=3, N=8, trials=2, master_seed=1, p_grid=(2.0,))
        ExperimentConfig(**dict(fields, master_seed=2 ** 64 - 1, trials=np.int64(2), sparsity=2))
        with pytest.raises(InvalidInputError, match=field):
            ExperimentConfig(**dict(fields, **{field: value}))

    def test_validates_hypotheses(self):
        with pytest.raises(InvalidInputError):
            analysis.run_genericity_experiment(
                ExperimentConfig(family="bp", m=5, N=8, trials=1, master_seed=1, p_grid=(2.0,))
            )
        with pytest.raises(InvalidInputError):
            analysis.run_genericity_experiment(
                ExperimentConfig(family="rr", m=2, N=5, trials=1, master_seed=1, p_grid=(1.0,))
            )
        with pytest.raises(InvalidInputError):
            analysis.run_genericity_experiment(
                ExperimentConfig(family="bp_l1", m=2, N=5, trials=1, master_seed=1)
            )


def _fields(rec):
    d = dict(vars(rec))
    d.pop("wall_time_ms")
    return d


class TestTrialFailures:
    """A trial that raises gets its own error record; its chunk is otherwise unchanged."""

    @pytest.mark.parametrize("family", ["bp", "rr", "bpdn_eps", "bpdn_eta"])
    @pytest.mark.parametrize("stage", ["gen_gaussian_instance", "_certified"])
    def test_failure_isolated(self, monkeypatch, family, stage):
        # a fault in the Gaussian draw (draw_instance, the body that
        # gen_gaussian_instance shares with the harness), or in the
        # measurement that runs on every trial
        cfg = ExperimentConfig(family=family, m=4, N=9, trials=6, master_seed=21, p_grid=(1.5,))
        clean = analysis.run_genericity_experiment(cfg).trials
        bad_seed = clean[3].seed
        bad_y = analysis.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=9, seed=bad_seed))[1]
        target = "draw_instance" if stage == "gen_gaussian_instance" else stage
        inner = getattr(analysis, target)

        def faulty(*args):
            out = inner(*args)
            if np.array_equal(out[1] if stage == "gen_gaussian_instance" else args[0].y, bad_y):
                raise ZeroDivisionError("boom")
            return out

        monkeypatch.setattr(analysis, target, faulty)
        stats = analysis.run_genericity_experiment(cfg)
        for rec, ref in zip(stats.trials, clean):
            if rec.seed == bad_seed:
                assert rec.status == "error"
                assert rec.error == "ZeroDivisionError: boom"
            else:
                assert _fields(rec) == _fields(ref)
        assert stats.cells[0].failures == 1

    @pytest.mark.parametrize("family,status", [("bp", "infeasible"), ("bpdn_eps", "degenerate"),
                                               ("bpdn_eta", "degenerate")])
    def test_result_without_multiplier_recorded(self, monkeypatch, family, status):
        # an infeasible bp or degenerate bpdn result carries no multiplier; its
        # trial is a failure with the solver's residual, and the run goes on
        cfg = ExperimentConfig(family=family, m=4, N=9, trials=6, master_seed=21, p_grid=(1.5,))
        clean = analysis.run_genericity_experiment(cfg).trials
        bad_seed = clean[3].seed
        bad_y = analysis.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=9, seed=bad_seed))[1]
        inner = solvers.solve_stack

        def faulty(fam, A, y, *rest, **params):
            out = inner(fam, A, y, *rest, **params)
            if fam == family:
                out = [solvers.SolveResult(np.zeros(9), None, 0.0, np.inf, 0, status)
                       if np.array_equal(yk, bad_y) else r for yk, r in zip(y, out)]
            return out

        monkeypatch.setattr(solvers, "solve_stack", faulty)
        stats = analysis.run_genericity_experiment(cfg)
        for rec, ref in zip(stats.trials, clean):
            if rec.seed == bad_seed:
                assert (rec.status, rec.kkt_residual, rec.error) == (status, np.inf, None)
                assert rec.multiplier_value is None
            else:
                assert _fields(rec) == _fields(ref)
        assert stats.cells[0].failures == 1

    def test_bp_target_failure_isolated(self, monkeypatch):
        # a bpdn_eta trial's target comes from its chunk's bp stack
        cfg = ExperimentConfig(family="bpdn_eta", m=4, N=9, trials=6, master_seed=21,
                               p_grid=(1.5,))
        clean = analysis.run_genericity_experiment(cfg).trials
        bad_seed = clean[3].seed
        bad_y = analysis.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=9, seed=bad_seed))[1]
        inner = solvers.solve_stack

        def faulty(family, A, y, *rest, **params):
            out = inner(family, A, y, *rest, **params)
            if family == "bp":
                out = [ZeroDivisionError("boom") if np.array_equal(yk, bad_y) else r
                       for yk, r in zip(y, out)]
            return out

        monkeypatch.setattr(solvers, "solve_stack", faulty)
        stats = analysis.run_genericity_experiment(cfg)
        for rec, ref in zip(stats.trials, clean):
            if rec.seed == bad_seed:
                assert rec.status == "error"
                assert rec.error == "ZeroDivisionError: boom"
                assert rec.constraint_target is None
            else:
                assert _fields(rec) == _fields(ref)
        assert stats.cells[0].failures == 1

    @pytest.mark.parametrize("family,p", [("bp_l1", 1.0), ("rr_irls", 0.5)])
    @pytest.mark.parametrize("stage", ["solve_instance", "_support"])
    def test_recovery_failure_isolated(self, monkeypatch, family, p, stage):
        # a recovery trial is solved alone; a fault in its solve or its
        # measurement (_record, which reads the trial's row of the chunk's
        # support measurement) stays in that trial
        cfg = ExperimentConfig(family=family, m=4, N=9, trials=6, master_seed=21, p_grid=(p,),
                               sparsity=2)
        clean = analysis.run_recovery_comparison(cfg)
        target = "_record" if stage == "_support" else stage
        inner = getattr(analysis, target)
        calls = []

        def faulty(*args):
            calls.append(args)
            if len(calls) == 4:  # trial 3: one call per trial, in trial order
                raise ZeroDivisionError("boom")
            return inner(*args)

        monkeypatch.setattr(analysis, target, faulty)
        stats = analysis.run_recovery_comparison(cfg)
        assert len(calls) == cfg.trials
        for rec, ref in zip(stats.trials, clean.trials):
            if rec.trial == 3:
                assert (rec.status, rec.error) == ("error", "ZeroDivisionError: boom")
                assert rec.recovered is None
            else:
                assert _fields(rec) == _fields(ref)
        assert stats.cells[0].failures == clean.cells[0].failures + 1


def _scalar_measure(x, tol):
    """One vector's support indices, min_rel_magnitude and min_rel_nonzero,
    computed on their own (rel = |x| / max|x|, or |x| where max|x| is 0 or NaN)."""
    a = np.abs(np.asarray(x, dtype=float))
    amax = a.max(initial=0.0)
    with np.errstate(invalid="ignore"):  # inf / inf
        rel = a / amax if amax > 0.0 else a
    idx = np.flatnonzero(rel > tol)
    nonzero = rel[rel > 0.0]
    return (tuple(idx.tolist()), float(rel[idx].min()) if idx.size else 0.0,
            float(nonzero.min()) if nonzero.size else 0.0)


class TestArrayRecord:
    """A chunk's records come from one array measurement of its solutions."""

    EDGE = [
        [0.0, 0.0, 0.0, 0.0, 0.0],                # x = 0
        [0.0, 2.0, 0.0, -1e-9, 0.5],              # exact zeros and a sub-threshold entry
        [1.0, np.nan, 3.0, 0.0, 2.0],             # a failed solve: NaN
        [np.inf, 1.0, 0.0, -2.0, 1e-12],          # +inf
        [1.0, -np.inf, 0.0, 2.0, 3.0],            # -inf
        [np.nan, np.inf, 1.0, 0.0, 1e-9],         # both
        [-0.7, 0.7, 0.7, -0.7, 0.7],              # all |x_i| equal
        [5e-324, 1.0, -1e-300, 3.0, 4e-6],        # subnormal, tiny and just over 1e-6 * max
    ]

    @pytest.mark.parametrize("tol", [1e-6, 0.0])
    def test_rows_match_support(self, tol):
        X = np.array(self.EDGE)
        above, size, magnitude, smallest = analysis._measure(X, tol)
        for k, x in enumerate(X):
            indices, mag, nonzero = _scalar_measure(x, tol)
            rep = support(x, tol)
            assert rep == SupportReport(indices, len(indices), mag, tol), k
            assert tuple(np.flatnonzero(above[k]).tolist()) == indices, k
            assert (size[k], magnitude[k], smallest[k]) == (len(indices), mag, nonzero), k

    @pytest.mark.parametrize("tol", [1e-6, 0.0])
    @pytest.mark.parametrize("family", ["bp", "rr", "bpdn_eps"])
    def test_edge_solutions_recorded_as_per_trial(self, monkeypatch, family, tol):
        # the solutions of some trials replaced by edge vectors (converged for
        # the finite ones, so their certificate runs): every record equals the
        # one support() and certified_full_support() give for that trial alone
        cfg = ExperimentConfig(family=family, m=3, N=5, trials=12, master_seed=2 ** 40 + 3,
                               p_grid=(1.5,), support_tol=tol)
        edge = {2 + k: np.array(x) for k, x in enumerate(self.EDGE)}
        inner = solvers.solve_stack
        seen = {}

        def with_edges(fam, A, y, *rest, **params):
            out = inner(fam, A, y, *rest, **params)
            if fam != family:
                return out
            for k, x in edge.items():
                status = "converged" if np.isfinite(x).all() else "max_iter"
                out[k] = dataclasses.replace(out[k], x=x, status=status)
                seen[k] = (A[k], y[k], params, out[k])
            return out

        monkeypatch.setattr(solvers, "solve_stack", with_edges)
        stats = analysis.run_genericity_experiment(cfg)
        for k, (A, y, params, res) in seen.items():
            rec = stats.trials[k]
            rep = support(res.x, tol)
            inst = ProblemInstance(A, y, family, p=1.5, lam=params.get("lam"),
                                   eps=params["eps"][k] if "eps" in params else None)
            assert (rec.status, rec.support_size, rec.min_rel_magnitude, rec.full_support) == (
                res.status, rep.size, rep.min_rel_magnitude, rep.size == cfg.N), k
            assert rec.min_rel_nonzero == _scalar_measure(res.x, tol)[2], k
            assert rec.full_support_certified == analysis.certified_full_support(inst, res, tol), k
        assert len(seen) == len(edge)


def _rebuilt(cfg: ExperimentConfig) -> list:
    """cfg's trial records rebuilt one trial at a time from the public seed rule,
    generators, solvers and support measures."""
    recovery = cfg.family in analysis.RECOVERY_FAMILIES
    names = solvers.FAMILIES[cfg.family].params
    out = []
    for p_index, p in enumerate(cfg.p_grid):
        for trial in range(cfg.trials):
            seed = ensembles.derive_seed(cfg.master_seed, p_index, trial)
            spec = ensembles.EnsembleSpec(m=cfg.m, N=cfg.N, seed=seed, sparsity=cfg.sparsity,
                                          signal_values=cfg.signal_values)
            if cfg.sparsity is None:
                (A, y), x0 = ensembles.gen_gaussian_instance(spec), None
            else:
                A, y, x0, _ = ensembles.gen_sparse_measured(spec)
            params = {k: getattr(cfg, k, None) for k in names}
            if cfg.family == "bpdn_eps":
                params["eps"] = 0.1 * float(np.linalg.norm(y))
            if cfg.family == "bpdn_eta":
                params["eta"] = 0.5 * pnorm.pnorm(solvers.solve_bp(A, y, p).x, p)
            inst = ProblemInstance(A, y, cfg.family, p=p, **params)
            if recovery:
                res = solve_instance(inst)
            else:
                res = solvers.solve_stack(cfg.family, A[None], y[None], p, **params)[0]
            rep = support(res.x, cfg.support_tol)
            rec = analysis.TrialRecord(
                trial=trial, seed=seed, m=cfg.m, N=cfg.N, p=p, family=cfg.family,
                support_size=rep.size, min_rel_magnitude=rep.min_rel_magnitude,
                kkt_residual=res.kkt_residual, iterations=res.iterations, status=res.status,
                wall_time_ms=0.0, full_support=rep.size == cfg.N,
                min_rel_nonzero=_scalar_measure(res.x, cfg.support_tol)[2])
            if recovery:
                rec.recovered = bool(np.abs(res.x - x0).max() <= analysis.RECOVERY_TOL)
            else:
                rec.full_support_certified = analysis.certified_full_support(
                    inst, res, cfg.support_tol)
            if cfg.family == "bpdn_eps":
                rec.constraint_target = params["eps"]
                rec.constraint_value = float(np.linalg.norm(A @ res.x - y))
            elif cfg.family == "bpdn_eta":
                rec.constraint_target, rec.constraint_value = params["eta"], pnorm.pnorm(res.x, p)
            if rec.constraint_target is not None and res.multiplier is not None:
                rec.multiplier_value = float(res.multiplier)
            out.append(rec)
    return out


@pytest.mark.parametrize("family,p_grid,extra", [
    ("bp", (1.5, 3.0), {}),
    ("bp", (2.0,), {"sparsity": 2, "signal_values": "gaussian"}),
    ("rr", (1.2, 4.5), {}),
    ("en", (1.5, 3.0), {"r": 2.0}),
    ("bpdn_eps", (1.5, 3.0), {}),
    ("bpdn_eta", (1.5, 3.0), {}),
    ("bp_l1", (1.0,), {"sparsity": 2}),
    ("rr_irls", (0.5,), {"sparsity": 2}),
])
def test_records_equal_per_trial_rebuild(family, p_grid, extra):
    # 70 trials: two chunks per p; a master seed of two 32-bit words
    cfg = ExperimentConfig(family=family, m=4, N=9, trials=70, master_seed=2 ** 63 + 12345,
                           p_grid=p_grid, **extra)
    run = (analysis.run_recovery_comparison if family in analysis.RECOVERY_FAMILIES
           else analysis.run_genericity_experiment)
    got = run(cfg).trials
    assert [_fields(r) for r in got] == [_fields(r) for r in _rebuilt(cfg)]


class TestRecoveryComparison:
    def test_l1_recovery(self):
        cfg = ExperimentConfig(
            family="bp_l1", m=8, N=16, trials=8, master_seed=2,
            p_grid=(1.0,), sparsity=2,
        )
        stats = analysis.run_recovery_comparison(cfg)
        cell = stats.cells[0]
        assert cell.recovered_count == 8
        assert cell.recovery_fraction == 1.0
        for rec in stats.trials:
            assert rec.support_size == 2

    def test_irls_support_bound(self):
        cfg = ExperimentConfig(
            family="rr_irls", m=4, N=12, trials=6, master_seed=9,
            p_grid=(0.5,), sparsity=2, lam=0.1,
        )
        stats = analysis.run_recovery_comparison(cfg)
        cell = stats.cells[0]
        assert cell.support_le_m_count == 6

    def test_square_system_boundary(self):
        # s = m = N: the planted signal is the unique solution of a square system
        cfg = ExperimentConfig(
            family="bp_l1", m=4, N=4, trials=5, master_seed=13,
            p_grid=(1.0,), sparsity=4,
        )
        stats = analysis.run_recovery_comparison(cfg)
        assert stats.cells[0].recovery_fraction == 1.0

    def test_requires_sparsity(self):
        with pytest.raises(InvalidInputError):
            analysis.run_recovery_comparison(
                ExperimentConfig(family="bp_l1", m=4, N=8, trials=2, master_seed=1, p_grid=(1.0,))
            )


def _records(stats):
    """The trial records with wall_time_ms, the one field that may differ, zeroed."""
    return [dataclasses.replace(r, wall_time_ms=0.0) for r in stats.trials]


def _alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _kill_own_worker(cfg, p_index, lo, hi):
    os.kill(os.getpid(), signal.SIGKILL)


def _raise_in_worker(cfg, p_index, lo, hi):
    raise ValueError(f"chunk {lo}")


class TestSharedPool:
    # 130 trials: three chunks per p
    CFG = ExperimentConfig(family="bp", m=3, N=8, trials=130, master_seed=5, p_grid=(1.5, 3.0))

    @pytest.fixture(autouse=True)
    def fresh_pool(self):
        analysis._drop_pool()
        yield
        analysis._drop_pool()

    def test_one_pool_across_calls(self, monkeypatch):
        made = []

        class Counting(analysis.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                made.append(self)
                super().__init__(*args, **kwargs)

        serial = _records(analysis.run_genericity_experiment(self.CFG))
        analysis.run_genericity_experiment(self.CFG, workers=2)
        monkeypatch.setattr(analysis, "ProcessPoolExecutor", Counting)
        for _ in range(3):
            assert _records(analysis.run_genericity_experiment(self.CFG, workers=2)) == serial
        assert len(made) == 1 and analysis._pool is made[0]
        monkeypatch.undo()  # the pool's type is no longer the name's: replaced
        analysis.run_genericity_experiment(self.CFG, workers=2)
        assert type(analysis._pool) is analysis.ProcessPoolExecutor

    def test_worker_count_change_replaces_pool(self):
        analysis.run_genericity_experiment(self.CFG, workers=2)
        first = analysis._pool
        old = list(first._processes)
        analysis.run_genericity_experiment(self.CFG, workers=3)
        assert analysis._pool is not first
        assert len(analysis._pool._processes) == 3
        assert len(old) == 2 and not any(_alive(pid) for pid in old)

    def test_chunk_error_keeps_pool(self):
        serial = _records(analysis.run_genericity_experiment(self.CFG))
        analysis.run_genericity_experiment(self.CFG, workers=2)
        pool = analysis._pool
        with pytest.raises(ValueError, match="chunk 0"):
            analysis._run_trials(_raise_in_worker, self.CFG, 2)
        assert _records(analysis.run_genericity_experiment(self.CFG, workers=2)) == serial
        assert analysis._pool is pool

    def test_killed_workers(self):
        serial = _records(analysis.run_genericity_experiment(self.CFG))
        # killed during a call: the call raises, the next gets a new pool
        with pytest.raises(BrokenProcessPool):
            analysis._run_trials(_kill_own_worker, self.CFG, 2)
        assert analysis._pool is None
        assert _records(analysis.run_genericity_experiment(self.CFG, workers=2)) == serial
        # killed between calls: the broken pool is replaced
        pool = analysis._pool
        for pid in list(pool._processes):
            os.kill(pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while not pool._broken and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pool._broken
        assert _records(analysis.run_genericity_experiment(self.CFG, workers=2)) == serial
        assert analysis._pool is not pool

    def test_threads_take_turns(self):
        # three threads whose calls alternate between 2 and 3 workers, so
        # that most calls replace the pool another thread's call used
        serial = _records(analysis.run_genericity_experiment(self.CFG))
        with ThreadPoolExecutor(max_workers=3) as threads:
            runs = [threads.submit(analysis.run_genericity_experiment, self.CFG, workers=2 + k % 2)
                    for k in range(6)]
            assert all(_records(r.result(timeout=120)) == serial for r in runs)

    def test_recovery_workers(self):
        cfg = ExperimentConfig(family="bp_l1", m=8, N=16, trials=8, master_seed=2,
                               p_grid=(1.0,), sparsity=2)
        serial = _records(analysis.run_recovery_comparison(cfg))
        assert _records(analysis.run_recovery_comparison(cfg, workers=2)) == serial

    def test_clean_exit(self):
        code = (
            "from lps import analysis\n"
            "cfg = analysis.ExperimentConfig(family='bp', m=3, N=8, trials=20, master_seed=5,"
            " p_grid=(1.5,))\n"
            "analysis.run_genericity_experiment(cfg, workers=2)\n"
            "print(*analysis._pool._processes)\n"
        )
        src_dir = pathlib.Path(analysis.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src_dir) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        pids = [int(t) for t in proc.stdout.split()]
        assert len(pids) == 2 and not any(_alive(pid) for pid in pids)


class TestPerturbationRobustness:
    def test_zero_delta_matches_baseline(self):
        rng = ensembles.rng_for(17)
        A = rng.standard_normal((8, 16))
        rows = analysis.perturbation_robustness(A, s=2, trials=6, delta_grid=[0.0, 0.0, 1e-6], seed=21)
        assert rows[0]["recovery_fraction"] == rows[1]["recovery_fraction"]
        assert rows[0]["recovery_fraction"] == 1.0
        assert rows[2]["recovery_fraction"] == 1.0

    def test_large_delta_breaks_recovery(self):
        rng = ensembles.rng_for(18)
        A = rng.standard_normal((8, 16))
        rows = analysis.perturbation_robustness(A, s=2, trials=6, delta_grid=[10.0], seed=22)
        assert rows[0]["recovery_fraction"] < 0.5


class TestDualJacobian:
    def test_identity_p2(self):
        res = solve_bp(np.eye(2), [1.0, 1.0], 2)
        val = analysis.check_dual_jacobian_spd(np.eye(2), [1.0, 1.0], 2, res)
        assert val == pytest.approx(0.5, abs=1e-10)

    def test_row_p2(self):
        A = np.array([[1.0, 1.0]])
        res = solve_bp(A, [2.0], 2)
        val = analysis.check_dual_jacobian_spd(A, [2.0], 2, res)
        assert val == pytest.approx(1.0, abs=1e-10)

    def test_random_low_p_positive(self):
        rng = ensembles.rng_for(19)
        for _ in range(5):
            A = rng.standard_normal((2, 4))
            y = rng.standard_normal(2)
            res = solve_bp(A, y, 1.5)
            assert res.converged
            assert analysis.check_dual_jacobian_spd(A, y, 1.5, res) > 0

    def test_rejects_high_p(self):
        res = solve_bp(np.eye(2), [1.0, 1.0], 3)
        with pytest.raises(InvalidInputError):
            analysis.check_dual_jacobian_spd(np.eye(2), [1.0, 1.0], 3, res)


class TestCertifiedSupport:
    """The nonzero certificate proves small coordinates and refuses true zeros."""

    @staticmethod
    def _integer_matrix_orthogonal_first_column(rng, w):
        # small-integer A whose first column is exactly orthogonal to w (w[0] == 1)
        A = rng.integers(-3, 4, size=(8, 20)).astype(float)
        A[0, 0] = 0.0
        A[0, 0] = -(A[:, 0] @ w)
        return A

    def test_bp_refuses_exact_zero(self):
        # nu = 1.5 * nu_int with a_1^T nu = 0 gives x = h(A^T nu) = sgn(k) k^2,
        # k = A^T nu_int: an integer solution with x_1 = 0, and y = A x exactly
        rng = ensembles.rng_for(31)
        nu_int = rng.integers(-2, 3, size=8).astype(float)
        nu_int[0] = 1.0
        A = self._integer_matrix_orthogonal_first_column(rng, nu_int)
        k = A.T @ nu_int
        x_exact = np.sign(k) * k * k
        y = A @ x_exact
        assert k[0] == 0.0 and np.count_nonzero(k) >= 15
        inst = ProblemInstance(A, y, "bp", p=1.5)
        res = solve_instance(inst)
        assert res.converged
        mask = analysis.certify_nonzero(inst, res)
        np.testing.assert_array_equal(mask, k != 0.0)
        assert not analysis.certified_full_support(inst, res, 1e-6)

    def _integer_dual_with_zero(self):
        # an integer theta_int of norm 5 and an integer A whose first column is
        # orthogonal to it: k = A^T theta_int is an integer vector with k_1 = 0
        rng = ensembles.rng_for(32)
        theta_int = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0]) * rng.choice([-1.0, 1.0], 8)
        theta_int[0] = 1.0
        A = self._integer_matrix_orthogonal_first_column(rng, theta_int)
        k = A.T @ theta_int
        assert k[0] == 0.0 and np.count_nonzero(k) >= 15
        return A, theta_int, k

    def _rr_instance_with_zero(self):
        # theta = lam * 1.5 * theta_int with a_1^T theta = 0, x = h(A^T theta / lam)
        # = sgn(k) k^2 and y = A x + theta solve rr exactly with x_1 = 0;
        # theta_int has norm 5, so eps = ||theta|| is exact as well
        lam = 0.5
        A, theta_int, k = self._integer_dual_with_zero()
        x_exact = np.sign(k) * k * k
        theta = lam * 1.5 * theta_int
        y = A @ x_exact + theta
        return A, y, lam, k, float(lam * 1.5 * 5.0)

    def test_rr_refuses_exact_zero(self):
        A, y, lam, k, _ = self._rr_instance_with_zero()
        inst = ProblemInstance(A, y, "rr", p=1.5, lam=lam)
        res = solve_rr(A, y, 1.5, lam)
        assert res.converged
        mask = analysis.certify_nonzero(inst, res)
        np.testing.assert_array_equal(mask, k != 0.0)
        assert not analysis.certified_full_support(inst, res, 1e-6)

    def test_bpdn_eps_refuses_exact_zero(self):
        # the same x solves bpdn_eps at eps = ||y - A x|| with mu = 1 / (2 lam)
        A, y, lam, k, eps = self._rr_instance_with_zero()
        inst = ProblemInstance(A, y, "bpdn_eps", p=1.5, eps=eps)
        res = solve_bpdn_eps(A, y, 1.5, eps)
        assert res.converged
        assert res.multiplier == pytest.approx(1.0 / (2.0 * lam), rel=1e-6)
        mask = analysis.certify_nonzero(inst, res)
        np.testing.assert_array_equal(mask, k != 0.0)
        assert not analysis.certified_full_support(inst, res, 1e-6)

    def test_en_refuses_exact_zero(self):
        # at p = r = 2 and lam1 = lam2 = 0.25 en's stationarity is
        # A^T (y - A x) = x, so x = A^T theta (an integer vector with x_1 = 0)
        # and y = A x + theta solve en exactly
        A, theta, x_exact = self._integer_dual_with_zero()
        y = A @ x_exact + theta
        inst = ProblemInstance(A, y, "en", p=2.0, r=2.0, lam1=0.25, lam2=0.25)
        res = solve_instance(inst)
        assert res.converged
        mask = analysis.certify_nonzero(inst, res)
        np.testing.assert_array_equal(mask, x_exact != 0.0)
        assert not analysis.certified_full_support(inst, res, 1e-6)

    @staticmethod
    def _en_rows_certified(A, y, p, r):
        """An en stack whose 48 rows converge with a coordinate under 1e-6:
        each is certified full support, as rr on (A*, y*)."""
        rows = solvers.solve_stack("en", A, y, p, r=r, lam1=0.1, lam2=0.1)
        for k, res in enumerate(rows):
            assert res.converged and support(res.x, 1e-6).size < 20, k
            inst = ProblemInstance(A[k], y[k], "en", p=p, r=r, lam1=0.1, lam2=0.1)
            assert analysis.certified_full_support(inst, res, 1e-6), k

    @pytest.mark.parametrize("p", [1.02, 1.05])
    @pytest.mark.parametrize("r", [1.0, 2.0])
    def test_en_near_one_certified(self, p, r):
        # the baseline set of 48 Gaussian 8x20 instances
        rng = np.random.default_rng(11)
        self._en_rows_certified(rng.normal(size=(48, 8, 20)), rng.normal(size=(48, 8)), p, r)

    def test_en_column_scaled_certified(self):
        # columns of A scaled by 10^U(-3, 3)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((48, 8, 20)) * 10.0 ** rng.uniform(-3, 3, (48, 1, 20))
        self._en_rows_certified(A, rng.standard_normal((48, 8)), 1.2, 1.0)

    def test_reduced_bpdn_eta_certifies_nothing(self):
        # eta above ||x_bp||_p: every x with A x = y and ||x||_p <= eta is a
        # minimizer, the multiplier is 0 and no coordinate is proven nonzero
        A, y = ensembles.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=10, seed=34))
        eta = 2.0 * pnorm.pnorm(solve_bp(A, y, 1.5).x, 1.5)
        inst = ProblemInstance(A, y, "bpdn_eta", p=1.5, eta=eta)
        res = solve_instance(inst)
        assert res.converged and res.reduced_to_bp and res.multiplier == 0.0
        assert not analysis.certify_nonzero(inst, res).any()

    @pytest.mark.parametrize("params", [{}, {"lam": -0.1}])
    def test_rejects_invalid_instance(self, params):
        # validated as kkt_residual validates: no lam, or lam <= 0, proves nothing
        A, y = ensembles.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=10, seed=34))
        res = solve_rr(A, y, 1.5, 0.1)
        with pytest.raises(InvalidInputError):
            analysis.certify_nonzero(ProblemInstance(A, y, "rr", p=1.5, **params), res)

    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e-6])
    def test_recorded_subthreshold_trial_certified(self, scale):
        # criterion 8 (bp, m=8, N=21, 2-sparse measurements, master seed
        # 20260816): trial 77 at p = 1.5 has a coordinate at 5e-10 of ||x||_inf
        seed = ensembles.derive_seed(20260816, 0, 77)
        A, y, _, _ = ensembles.gen_sparse_measured(
            ensembles.EnsembleSpec(m=8, N=21, seed=seed, sparsity=2)
        )
        A, y = scale * A, scale * y
        inst = ProblemInstance(A, y, "bp", p=1.5)
        res = solve_instance(inst)
        assert res.converged
        assert support(res.x, 1e-6).size < 21
        assert analysis.certify_nonzero(inst, res).all()
        assert analysis.certified_full_support(inst, res, 1e-6)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_generic_instances_certified(self, p):
        A, y = ensembles.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=10, seed=33))
        insts = [
            ProblemInstance(A, y, "bp", p=p),
            ProblemInstance(A, y, "rr", p=p, lam=0.1),
            ProblemInstance(A, y, "en", p=p, r=1.0, lam1=0.1, lam2=0.1),
            ProblemInstance(A, y, "bpdn_eps", p=p, eps=0.1 * np.linalg.norm(y)),
            ProblemInstance(A, y, "bpdn_eta", p=p, eta=0.5 * pnorm.pnorm(solve_bp(A, y, p).x, p)),
        ]
        for inst in insts:
            res = solve_instance(inst)
            assert res.converged
            assert analysis.certify_nonzero(inst, res).all(), inst.family

    def test_zero_multiplier_certifies_nothing(self):
        A, y = ensembles.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=10, seed=34))
        eps = 2.0 * np.linalg.norm(y)  # x = 0 is feasible, multiplier 0
        inst = ProblemInstance(A, y, "bpdn_eps", p=1.5, eps=eps)
        res = solve_instance(inst)
        assert not analysis.certify_nonzero(inst, res).any()
        assert not analysis.certified_full_support(inst, res, 1e-6)

    def test_experiment_counts_certified_trials(self):
        cfg = ExperimentConfig(
            family="bp", m=8, N=21, trials=80, master_seed=20260816, p_grid=(1.5,), sparsity=2
        )
        cell = analysis.run_genericity_experiment(cfg).cells[0]
        assert cell.full_support_fraction < 1.0  # trials 18 and 77 sit under 1e-6
        assert cell.full_support_certified_count == cell.trials_run - cell.failures
        assert cell.full_support_fraction_certified == 1.0

    def test_rejects_recovery_family(self):
        A, y = ensembles.gen_gaussian_instance(ensembles.EnsembleSpec(m=2, N=4, seed=35))
        inst = ProblemInstance(A, y, "bp_l1")
        with pytest.raises(InvalidInputError):
            analysis.certify_nonzero(inst, solve_instance(inst))
