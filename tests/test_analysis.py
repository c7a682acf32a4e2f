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


class TestTrialFailures:
    """A trial that raises gets its own error record; its chunk is otherwise unchanged."""

    @staticmethod
    def _fields(rec):
        d = dict(vars(rec))
        d.pop("wall_time_ms")
        return d

    @pytest.mark.parametrize("family", ["bp", "rr", "bpdn_eps", "bpdn_eta"])
    @pytest.mark.parametrize("stage", ["gen_gaussian_instance", "kkt_residual"])
    def test_failure_isolated(self, monkeypatch, family, stage):
        cfg = ExperimentConfig(family=family, m=4, N=9, trials=6, master_seed=21, p_grid=(1.5,))
        clean = analysis.run_genericity_experiment(cfg).trials
        bad_seed = clean[3].seed
        bad_y = analysis.gen_gaussian_instance(ensembles.EnsembleSpec(m=4, N=9, seed=bad_seed))[1]
        inner = getattr(analysis, stage)

        def faulty(arg, *rest):
            if stage == "gen_gaussian_instance":
                hit = arg.seed == bad_seed
            else:
                hit = np.array_equal(arg.y, bad_y)
            if hit:
                raise ZeroDivisionError("boom")
            return inner(arg, *rest)

        monkeypatch.setattr(analysis, stage, faulty)
        stats = analysis.run_genericity_experiment(cfg)
        for rec, ref in zip(stats.trials, clean):
            if rec.seed == bad_seed:
                assert rec.status == "error"
                assert rec.error == "ZeroDivisionError: boom"
            else:
                assert self._fields(rec) == self._fields(ref)
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
                assert self._fields(rec) == self._fields(ref)
        assert stats.cells[0].failures == 1


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

    def _rr_instance_with_zero(self):
        # theta = lam * 1.5 * theta_int with a_1^T theta = 0, x = h(A^T theta / lam)
        # = sgn(k) k^2 and y = A x + theta solve rr exactly with x_1 = 0;
        # theta_int has norm 5, so eps = ||theta|| is exact as well
        lam = 0.5
        rng = ensembles.rng_for(32)
        theta_int = np.array([1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 0.0]) * rng.choice([-1.0, 1.0], 8)
        theta_int[0] = 1.0
        A = self._integer_matrix_orthogonal_first_column(rng, theta_int)
        k = A.T @ theta_int
        x_exact = np.sign(k) * k * k
        theta = lam * 1.5 * theta_int
        y = A @ x_exact + theta
        assert k[0] == 0.0 and np.count_nonzero(k) >= 15
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
