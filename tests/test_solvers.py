import numpy as np
import pytest

from oracles import golden_section, grid_min_1d, grid_min_2d, l1_min_objective

import lps.solvers
from lps import analysis, linalg, pnorm
from lps.ensembles import EnsembleSpec, gen_gaussian_instance
from lps.errors import InvalidInputError, RankDeficientError
from lps.solvers import (
    ProblemInstance,
    SolverConfig,
    kkt_residual,
    smoothed_irls_objective,
    solve_bp,
    solve_bp_l1,
    solve_bpdn_eps,
    solve_bpdn_eta,
    solve_en,
    solve_instance,
    solve_rr,
    solve_rr_irls,
    solve_stack,
)


def random_instance(rng, m, n):
    return rng.normal(size=(m, n)), rng.normal(size=m)


class TestSolveBP:
    def test_symmetric_line(self):
        res = solve_bp([[1.0, 1.0]], [2.0], 4)
        assert res.converged
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-9)

    def test_p2_matches_least_norm(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        res = solve_bp(A, [1.0, 1.0], 2)
        np.testing.assert_allclose(res.x, [1 / 3, 1 / 3, 2 / 3], atol=1e-10)

    def test_p3_closed_form_and_grid(self):
        A = np.array([[1.0, 2.0]])
        res = solve_bp(A, [5.0], 3)
        t = 5.0 / (1.0 + 2.0 * np.sqrt(2.0))
        np.testing.assert_allclose(res.x, [t, np.sqrt(2.0) * t], rtol=1e-8)
        # cross-check against a 1-d grid over x1 (x2 determined by the constraint)
        obj = lambda x1: abs(x1) ** 3 + abs((5.0 - x1) / 2.0) ** 3
        xs = np.arange(0.0, 5.0, 1e-4)
        x1c = xs[np.argmin([obj(v) for v in xs])]
        xs = np.arange(x1c - 2e-4, x1c + 2e-4, 1e-6)
        x1f = xs[np.argmin([obj(v) for v in xs])]
        assert res.x[0] == pytest.approx(x1f, abs=2e-6)

    def test_random_p2_against_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            m = int(rng.integers(1, 6))
            n = int(rng.integers(m, 12))
            A, y = random_instance(rng, m, n)
            res = solve_bp(A, y, 2)
            x_ref = linalg.least_norm_solution(A, y)
            assert res.converged
            np.testing.assert_allclose(res.x, x_ref, rtol=1e-8, atol=1e-10)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
    def test_kkt_postconditions(self, p):
        rng = np.random.default_rng(int(p * 100))
        cfg = SolverConfig()
        for _ in range(10):
            A, y = random_instance(rng, 3, 9)
            res = solve_bp(A, y, p, cfg)
            assert res.converged
            grad = pnorm.pnorm_grad(res.x, p)
            nu = np.asarray(res.multiplier)
            assert np.abs(A @ res.x - y).max() <= 1e-9 * (1 + np.linalg.norm(y))
            assert np.abs(grad - A.T @ nu).max() <= 1e-8 * (1 + np.abs(grad).max())

    def test_zero_rhs(self):
        res = solve_bp(np.ones((2, 4)), np.zeros(2), 3)
        assert res.converged
        assert not np.any(res.x)

    def test_infeasible_status(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        res = solve_bp(A, [1.0, 0.0], 2)
        assert res.status == "infeasible"

    def test_rank_deficient_feasible_raises(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        with pytest.raises(RankDeficientError):
            solve_bp(A, [1.0, 2.0], 2)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_scaling_consistency(self, p):
        rng = np.random.default_rng(33)
        A, y = random_instance(rng, 3, 8)
        c = 3.7
        x1 = solve_bp(A, y, p).x
        x2 = solve_bp(A, c * y, p).x
        np.testing.assert_allclose(x2, c * x1, rtol=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_objective_dominance(self, p):
        rng = np.random.default_rng(44)
        A, y = random_instance(rng, 3, 8)
        res = solve_bp(A, y, p)
        fstar = pnorm.pnorm_pow(res.x, p)
        for _ in range(20):
            z = rng.normal(size=8)
            xf = linalg.affine_project(A, y, z)
            assert fstar <= pnorm.pnorm_pow(xf, p) + 1e-8

    def test_uniqueness_probe_low_p(self):
        rng = np.random.default_rng(55)
        A, y = random_instance(rng, 3, 8)
        a = solve_bp(A, y, 1.8, SolverConfig(algorithm="dual_newton"))
        b = solve_bp(A, y, 1.8, SolverConfig(algorithm="projected_gradient"))
        assert a.converged and b.converged
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_uniqueness_probe_high_p(self):
        rng = np.random.default_rng(56)
        A, y = random_instance(rng, 3, 8)
        a = solve_bp(A, y, 3.0, SolverConfig(algorithm="primal_dual_newton"))
        b = solve_bp(A, y, 3.0, SolverConfig(algorithm="projected_gradient"))
        assert a.converged and b.converged
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidInputError):
            solve_bp(np.eye(2), [1.0, 1.0], 1.0)
        with pytest.raises(InvalidInputError):
            solve_bp(np.eye(2), [1.0, 1.0], 0.5)


class TestSolveRR:
    def test_zero_rhs(self):
        res = solve_rr(np.ones((2, 3)), np.zeros(2), 3, 0.2)
        assert res.converged
        assert not np.any(res.x)

    def test_identity_p2(self):
        res = solve_rr(np.eye(2), [1.0, 2.0], 2, 0.5)
        np.testing.assert_allclose(res.x, [0.5, 1.0], atol=1e-10)

    def test_scalar_p15(self):
        res = solve_rr([[1.0]], [1.0], 1.5, 1.0)
        assert res.x[0] == pytest.approx(0.25, abs=1e-10)
        obj = lambda x: 0.5 * (x - 1.0) ** 2 + abs(x) ** 1.5
        xg, _ = golden_section(obj, -1.0, 2.0)
        assert res.x[0] == pytest.approx(xg, abs=1e-6)

    def test_random_p2_closed_form(self):
        rng = np.random.default_rng(60)
        for _ in range(20):
            m, n = 4, 9
            A, y = random_instance(rng, m, n)
            lam = 0.05 + rng.random()
            res = solve_rr(A, y, 2, lam)
            x_ref = np.linalg.solve(A.T @ A + 2 * lam * np.eye(n), A.T @ y)
            np.testing.assert_allclose(res.x, x_ref, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
    def test_stationarity(self, p):
        rng = np.random.default_rng(int(10 * p))
        for _ in range(10):
            A, y = random_instance(rng, 3, 8)
            res = solve_rr(A, y, p, 0.1)
            assert res.converged
            station = A.T @ (A @ res.x - y) + 0.1 * pnorm.pnorm_grad(res.x, p)
            assert np.abs(station).max() <= 1e-8 * (1 + np.abs(A.T @ y).max())

    def test_algorithms_agree(self):
        rng = np.random.default_rng(61)
        A, y = random_instance(rng, 3, 7)
        a = solve_rr(A, y, 1.5, 0.3, SolverConfig(algorithm="fixed_point"))
        b = solve_rr(A, y, 1.5, 0.3, SolverConfig(algorithm="projected_gradient"))
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_rejects_bad_lambda(self):
        with pytest.raises(InvalidInputError):
            solve_rr(np.eye(2), [1.0, 1.0], 2, -1.0)


class TestSolveEN:
    def test_zero_rhs(self):
        res = solve_en(np.ones((2, 3)), np.zeros(2), 2, 2, 0.1, 0.1)
        assert res.converged and not np.any(res.x)

    def test_identity_closed_form(self):
        res = solve_en(np.eye(2), [2.0, 4.0], 2, 2, 0.25, 0.25)
        np.testing.assert_allclose(res.x, [1.0, 2.0], atol=1e-9)

    def test_random_p2_closed_form(self):
        rng = np.random.default_rng(70)
        for _ in range(20):
            m, n = 3, 7
            A, y = random_instance(rng, m, n)
            l1 = 0.05 + rng.random()
            l2 = 0.05 + rng.random()
            res = solve_en(A, y, 2, 2, l1, l2)
            x_ref = np.linalg.solve(A.T @ A + 2 * (l1 + l2) * np.eye(n), A.T @ y)
            np.testing.assert_allclose(res.x, x_ref, rtol=1e-8, atol=1e-12)

    @pytest.mark.parametrize("p,r", [(1.5, 1.0), (1.5, 2.0), (3.0, 1.0), (3.0, 2.0)])
    def test_stationarity(self, p, r):
        rng = np.random.default_rng(int(10 * p + r))
        for _ in range(8):
            A, y = random_instance(rng, 3, 7)
            res = solve_en(A, y, p, r, 0.1, 0.1)
            assert res.converged
            fpow = pnorm.pnorm_pow(res.x, p)
            station = (
                A.T @ (A @ res.x - y)
                + (r * 0.1 / p) * fpow ** ((r - p) / p) * pnorm.pnorm_grad(res.x, p)
                + 2 * 0.1 * res.x
            )
            assert np.abs(station).max() <= 1e-8 * (1 + np.abs(A.T @ y).max())

    def test_r1_zero_solution_below_threshold(self):
        A = np.eye(2)
        y = np.array([0.05, 0.02])
        # ||A^T y||_q = ||y||_2 < lam1 for p = q = 2
        res = solve_en(A, y, 2, 1, 0.5, 0.1)
        assert res.converged
        assert not np.any(res.x)

    def test_p3_r1_against_first_order_oracle(self):
        rng = np.random.default_rng(71)
        A, y = random_instance(rng, 2, 3)
        p, r, l1, l2 = 3.0, 1.0, 0.1, 0.1
        res = solve_en(A, y, p, r, l1, l2)

        def obj(x):
            return (
                0.5 * np.sum((A @ x - y) ** 2)
                + l1 * pnorm.pnorm(x, p) ** r
                + l2 * x @ x
            )

        def grad(x):
            fpow = pnorm.pnorm_pow(x, p)
            extra = (r * l1 / p) * fpow ** ((r - p) / p) * pnorm.pnorm_grad(x, p) if fpow else 0.0
            return A.T @ (A @ x - y) + extra + 2 * l2 * x

        # plain projected-gradient descent from a different start
        x = np.full(3, 0.7)
        t = 1e-2
        fx = obj(x)
        for _ in range(200000):
            g = grad(x)
            if np.abs(g).max() < 1e-11:
                break
            while t > 1e-18 and obj(x - t * g) > fx - 1e-4 * t * (g @ g):
                t *= 0.5
            x = x - t * g
            fx = obj(x)
            t *= 2.0
        assert res.objective == pytest.approx(fx, abs=1e-6)

    @pytest.mark.parametrize("p,algo", [(1.5, "fixed_point"), (3.0, "primal_dual_newton")])
    def test_uniqueness_probe(self, p, algo):
        rng = np.random.default_rng(72)
        A, y = random_instance(rng, 3, 7)
        a = solve_en(A, y, p, 1.0, 0.1, 0.1, SolverConfig(algorithm=algo))
        b = solve_en(A, y, p, 1.0, 0.1, 0.1, SolverConfig(algorithm="projected_gradient"))
        assert a.converged and b.converged
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            solve_en(np.eye(2), [1.0, 1.0], 2, 0.5, 0.1, 0.1)
        with pytest.raises(InvalidInputError):
            solve_en(np.eye(2), [1.0, 1.0], 2, 1, -0.1, 0.1)
        with pytest.raises(InvalidInputError):
            solve_en(np.eye(2), [1.0, 1.0], 2, 1, 0.1, 0.0)


class TestSolveBpdnEps:
    def test_slack_gives_zero(self):
        A = np.array([[1.0, 0.5]])
        y = np.array([2.0])
        res = solve_bpdn_eps(A, y, 2, np.linalg.norm(y) + 1.0)
        assert res.converged
        assert not np.any(res.x)
        assert res.multiplier == 0.0

    def test_scalar_active(self):
        res = solve_bpdn_eps([[1.0]], [2.0], 2, 1.0)
        assert res.x[0] == pytest.approx(1.0, abs=1e-8)
        assert res.multiplier > 0

    def test_random_consistency_with_rr_path(self):
        rng = np.random.default_rng(80)
        A, y = random_instance(rng, 2, 4)
        eps = 0.1 * np.linalg.norm(y)
        res = solve_bpdn_eps(A, y, 1.5, eps)
        assert res.converged
        resid = np.linalg.norm(A @ res.x - y)
        assert resid == pytest.approx(eps, rel=1e-6)
        assert res.multiplier > 0
        lam = 1.0 / (2.0 * res.multiplier)
        x_rr = solve_rr(A, y, 1.5, lam).x
        np.testing.assert_allclose(x_rr, res.x, atol=1e-8)
        # independent fine bisection on the same scalar equation
        lo, hi = 1e-12, 1.0
        while np.linalg.norm(A @ solve_rr(A, y, 1.5, hi).x - y) < eps:
            hi *= 2
        for _ in range(200):
            mid = np.sqrt(lo * hi)
            r = np.linalg.norm(A @ solve_rr(A, y, 1.5, mid).x - y)
            if abs(r - eps) < 1e-9 * np.linalg.norm(y):
                break
            if r >= eps:
                hi = mid
            else:
                lo = mid
        np.testing.assert_allclose(solve_rr(A, y, 1.5, mid).x, res.x, atol=1e-6)

    def test_residual_path_monotone(self):
        rng = np.random.default_rng(81)
        A, y = random_instance(rng, 2, 5)
        resids = [
            np.linalg.norm(A @ solve_rr(A, y, 1.7, lam).x - y)
            for lam in np.geomspace(1e-6, 10.0, 25)
        ]
        assert all(b >= a - 1e-10 for a, b in zip(resids, resids[1:]))

    def test_rejects_bad_eps(self):
        with pytest.raises(InvalidInputError):
            solve_bpdn_eps(np.eye(2), [1.0, 1.0], 2, 0.0)


class TestSolveBpdnEta:
    def test_scalar_active(self):
        res = solve_bpdn_eta([[1.0]], [2.0], 2, 1.0)
        assert res.x[0] == pytest.approx(1.0, abs=1e-8)
        assert res.multiplier > 0
        assert not res.reduced_to_bp

    def test_reduces_to_bp_when_slack(self):
        res = solve_bpdn_eta([[1.0, 1.0]], [2.0], 2, np.sqrt(2.0) + 0.1)
        assert res.reduced_to_bp
        assert res.multiplier == 0.0
        np.testing.assert_allclose(res.x, [1.0, 1.0], atol=1e-8)

    def test_random_postconditions(self):
        rng = np.random.default_rng(90)
        A, y = random_instance(rng, 2, 4)
        bp = solve_bp(A, y, 3)
        eta = 0.5 * pnorm.pnorm(bp.x, 3)
        res = solve_bpdn_eta(A, y, 3, eta)
        assert res.converged
        assert pnorm.pnorm(res.x, 3) == pytest.approx(eta, rel=1e-8)
        resid = np.linalg.norm(A @ res.x - y)
        assert 0.0 < resid < np.linalg.norm(y)
        assert res.multiplier > 0

    def test_tiny_instance_against_grid(self):
        rng = np.random.default_rng(91)
        A = rng.normal(size=(1, 2))
        y = rng.normal(size=1)
        p = 3.0
        bp = solve_bp(A, y, p)
        eta = 0.5 * pnorm.pnorm(bp.x, p)
        res = solve_bpdn_eta(A, y, p, eta)

        def f(P):
            return np.abs(P @ A.T - y).ravel()

        def feasible(P):
            return (np.abs(P) ** p).sum(axis=1) <= eta ** p

        _, v = grid_min_2d(f, feasible, [0.0, 0.0], eta + 0.5)
        assert res.objective == pytest.approx(v, abs=1e-4)

    def test_rr_algorithm_names_accepted(self):
        rng = np.random.default_rng(92)
        A, y = random_instance(rng, 2, 4)
        eta = 0.5 * pnorm.pnorm(solve_bp(A, y, 1.5).x, 1.5)
        res = solve_bpdn_eta(A, y, 1.5, eta, SolverConfig(algorithm="fixed_point"))
        assert res.converged

    def test_rejects_bad_eta(self):
        with pytest.raises(InvalidInputError):
            solve_bpdn_eta(np.eye(2), [1.0, 1.0], 2, -1.0)


class TestPathRootFind:
    """The bpdn forms: scale-free stopping tests and the Newton path count."""

    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
    def test_scale_invariance(self, p):
        # (A, y) -> c (A, y) leaves the bp, bpdn_eps (eps -> c eps), bpdn_eta,
        # rr (lam -> c^2 lam) and en (lam1, lam2 -> c^2 lam1, c^2 lam2)
        # solutions unchanged; y -> c y takes the bp solution x to c x
        A, y = random_instance(np.random.default_rng(int(p * 10)), 8, 20)
        eps = 0.1 * np.linalg.norm(y)
        eta = 0.5 * pnorm.pnorm(solve_bp(A, y, p).x, p)
        solves = {
            "bp": lambda c: solve_bp(c * A, c * y, p),
            "bp, y -> c y": lambda c: solve_bp(A, c * y, p),
            "rr": lambda c: solve_rr(c * A, c * y, p, 0.1 * c * c),
            "en": lambda c: solve_en(c * A, c * y, p, 1.0, 0.1 * c * c, 0.1 * c * c),
            "bpdn_eps": lambda c: solve_bpdn_eps(c * A, c * y, p, c * eps),
            "bpdn_eta": lambda c: solve_bpdn_eta(c * A, c * y, p, eta),
        }
        for family, solve in solves.items():
            ref = solve(1.0)
            assert ref.converged, family
            for c in (1e-6, 1e6):
                res = solve(c)
                x = res.x / c if family == "bp, y -> c y" else res.x
                assert res.converged, (family, c)
                assert np.abs(x - ref.x).max() <= 1e-8 * np.abs(ref.x).max(), (family, c)

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_newton_path_rr_solve_count(self, monkeypatch, family, p):
        # the criterion-7 shape with the experiment harness's targets; each
        # call of _rr_core solves a stack, so its rows are counted
        calls = []
        rr_core = lps.solvers._rr_core

        def counted(*args):
            calls.append(len(args[3]))
            return rr_core(*args)

        monkeypatch.setattr(lps.solvers, "_rr_core", counted)
        trials = 24
        for trial in range(trials):
            A, y = gen_gaussian_instance(EnsembleSpec(m=8, N=20, seed=1000 + trial))
            if family == "bpdn_eps":
                target = 0.1 * np.linalg.norm(y)
            else:
                target = 0.5 * pnorm.pnorm(solve_bp(A, y, p).x, p)
            res = getattr(lps.solvers, "solve_" + family)(A, y, p, target)
            assert res.converged and res.multiplier > 0
        assert calls, "the path root-find must call lps.solvers._rr_core"
        assert sum(calls) / trials <= 8.0
        # the same bound through the experiment harness, which solves its trials as stacks
        calls.clear()
        cfg = analysis.ExperimentConfig(family=family, m=8, N=20, trials=trials,
                                        master_seed=1000, p_grid=(p,))
        stats = analysis.run_genericity_experiment(cfg)
        assert stats.cells[0].failures == 0
        assert max(calls) > 1
        assert sum(calls) / trials <= 8.0


class TestSolveStack:
    """A stack solve gives each instance the bytes of its own public solve."""

    PARAMS = {"bp": {}, "rr": {"lam": 0.1}, "en": {"r": 1.0, "lam1": 0.1, "lam2": 0.1}}

    @staticmethod
    def _assert_same(a, b):
        assert a.x.tobytes() == b.x.tobytes()
        if a.multiplier is None:
            assert b.multiplier is None
        else:
            assert np.asarray(a.multiplier).tobytes() == np.asarray(b.multiplier).tobytes()
        assert (a.objective, a.kkt_residual, a.iterations, a.status) == \
            (b.objective, b.kkt_residual, b.iterations, b.status)

    def _check(self, family, A, y, p, cfg=None):
        solve = getattr(lps.solvers, "solve_" + family)
        singles = [solve(A[k], y[k], p, cfg=cfg, **self.PARAMS[family]) for k in range(len(A))]
        for lo, hi in ((3, 4), (5, 12), (0, len(A))):
            batch = solve_stack(family, A[lo:hi], y[lo:hi], p, cfg, **self.PARAMS[family])
            assert len(batch) == hi - lo
            for a, b in zip(singles[lo:hi], batch):
                self._assert_same(a, b)
        return singles

    @pytest.mark.parametrize("family", ["bp", "rr", "en"])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
    def test_batch_matches_batch_of_one(self, family, p):
        rng = np.random.default_rng(int(p * 100))
        self._check(family, rng.normal(size=(48, 8, 20)), rng.normal(size=(48, 8)), p)

    def test_stalled_instances(self):
        # en near p = 1 leaves by the stall guard on most instances
        rng = np.random.default_rng(11)
        singles = self._check("en", rng.normal(size=(12, 8, 20)), rng.normal(size=(12, 8)), 1.02)
        assert any(r.status == "max_iter" and r.iterations < 500 for r in singles)
        assert any(r.converged for r in singles)

    def test_first_order_fallback(self, monkeypatch):
        # bp at p = 1.05: some instances leave the stack for projected gradient
        fallbacks = []
        inner = lps.solvers._bp_projected_gradient

        def counted(one, *args):
            fallbacks.append(one.p)
            return inner(one, *args)

        monkeypatch.setattr(lps.solvers, "_bp_projected_gradient", counted)
        rng = np.random.default_rng(11)
        A, y = rng.normal(size=(48, 8, 20)), rng.normal(size=(48, 8))
        self._check("bp", A, y, 1.05, SolverConfig(max_iter_first_order=300))
        assert fallbacks

    def test_failing_instance_stays_apart(self):
        rng = np.random.default_rng(3)
        A, y = rng.normal(size=(6, 3, 7)), rng.normal(size=(6, 3))
        A[2, 2] = A[2, 0]  # rank deficient and feasible
        y[2] = A[2] @ rng.normal(size=7)
        A[4, 0, 0] = np.nan
        batch = solve_stack("bp", A, y, 1.5)
        assert isinstance(batch[2], RankDeficientError)
        assert isinstance(batch[4], InvalidInputError)
        for k in (0, 1, 3, 5):
            self._assert_same(batch[k], solve_bp(A[k], y[k], 1.5))

    def test_no_repeated_line_search_failure(self, monkeypatch):
        # a failed line search moves nothing, so a second try from the same
        # state would search the same direction again
        failures = []
        inner = lps.solvers._line_search

        def spied(br, st, d, slope, failed):
            moved = inner(br, st, d, slope, failed)
            failures.extend((br.p, int(st["row"][j]), st["nu" if "nu" in st else "x"][j].tobytes(),
                             d[j].tobytes()) for j in np.flatnonzero(~moved))
            return moved

        monkeypatch.setattr(lps.solvers, "_line_search", spied)
        rng = np.random.default_rng(11)
        A, y = rng.normal(size=(48, 8, 20)), rng.normal(size=(48, 8))
        for p in (1.02, 1.05):
            solve_stack("bp", A, y, p, SolverConfig(max_iter_first_order=300))
        assert failures
        assert len(set(failures)) == len(failures), "a row failed twice from one state"

    def test_rejects_bad_shapes_and_params(self):
        with pytest.raises(InvalidInputError):
            solve_stack("bp", np.ones((2, 3)), np.ones(2), 1.5)
        with pytest.raises(InvalidInputError):
            solve_stack("rr", np.ones((1, 2, 3)), np.ones((1, 2)), 1.5, lam=0.0)
        with pytest.raises(InvalidInputError):
            solve_stack("bpdn_eps", np.ones((1, 2, 3)), np.ones((1, 2)), 1.5)
        with pytest.raises(InvalidInputError):
            solve_stack("bpdn_eps", np.ones((2, 2, 3)), np.ones((2, 2)), 1.5, eps=[0.1, 0.0])
        with pytest.raises(InvalidInputError):
            solve_stack("bpdn_eta", np.ones((2, 2, 3)), np.ones((2, 2)), 1.5, eta=[0.1, 0.2, 0.3])


class TestBpdnStack:
    """A bpdn stack gives each row the bytes, or the exception, of its own solve_bpdn_* call."""

    @staticmethod
    def _assert_same(a, b):
        if isinstance(a, Exception):
            assert (type(a), str(a)) == (type(b), str(b))
            return
        TestSolveStack._assert_same(a, b)
        assert a.reduced_to_bp == b.reduced_to_bp

    def _check(self, family, A, y, p, targets, cfg=None):
        solve = getattr(lps.solvers, "solve_" + family)
        singles = []
        for k in range(len(A)):
            try:
                singles.append(solve(A[k], y[k], p, targets[k], cfg))
            except Exception as exc:
                singles.append(exc)
        half = len(A) // 2
        for lo, hi in ((half, half + 1), (0, min(7, len(A))), (0, len(A))):
            batch = solve_stack(family, A[lo:hi], y[lo:hi], p, cfg, **{family[5:]: targets[lo:hi]})
            assert len(batch) == hi - lo
            for a, b in zip(singles[lo:hi], batch):
                self._assert_same(a, b)
        return singles

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
    def test_batch_matches_batch_of_one(self, family, p):
        # B = 1, 7 and 24 at the experiment harness's targets
        rng = np.random.default_rng(int(p * 1000))
        A, y = rng.normal(size=(24, 8, 20)), rng.normal(size=(24, 8))
        if family == "bpdn_eps":
            targets = 0.1 * np.linalg.norm(y, axis=1)
        else:
            targets = np.array([0.5 * pnorm.pnorm(r.x, p) for r in solve_stack("bp", A, y, p)])
        singles = self._check(family, A, y, p, targets)
        assert all(r.converged and r.multiplier > 0 for r in singles)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_edge_rows(self, p):
        rng = np.random.default_rng(17)
        A, y = rng.normal(size=(8, 8, 20)), rng.normal(size=(8, 8))
        A[2, 3] = A[2, 0]  # rank deficient
        y[3, 1] = np.nan
        for k, c in ((4, 1e-6), (5, 1e6)):
            A[k], y[k] = c * A[0], c * y[0]
        ny = np.linalg.norm(y, axis=1)
        eps = 0.1 * ny
        eps[1] = 2.0 * ny[1]  # eps >= ||y||: x = 0
        eps[3] = 1.0
        rows = self._check("bpdn_eps", A, y, p, eps)
        assert rows[1].converged and not rows[1].x.any() and rows[1].multiplier == 0.0
        assert isinstance(rows[2], RankDeficientError)
        assert isinstance(rows[3], InvalidInputError)
        for k in (0, 4, 5, 6, 7):
            assert rows[k].converged and rows[k].multiplier > 0

        finite = [k for k in range(8) if k not in (2, 3)]
        bp_norm = np.ones(8)
        bp_norm[finite] = [pnorm.pnorm(r.x, p) for r in solve_stack("bp", A[finite], y[finite], p)]
        eta = 0.5 * bp_norm
        eta[1] = bp_norm[1]  # at the bp optimum: reduced to bp
        x_ls = linalg.least_norm_solution(A[6], y[6])
        eta[6] = 0.9 * float(x_ls @ x_ls) / pnorm.pnorm(x_ls, p / (p - 1.0))  # below the Hoelder bound
        rows = self._check("bpdn_eta", A, y, p, eta)
        assert rows[1].reduced_to_bp and rows[1].multiplier == 0.0
        assert isinstance(rows[2], RankDeficientError)
        assert isinstance(rows[3], InvalidInputError)
        for k in (0, 4, 5, 6, 7):
            assert rows[k].converged and rows[k].multiplier > 0 and not rows[k].reduced_to_bp

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    def test_wide_rows(self, family):
        # N >= 64 at p >= 2: _path_dx solves its systems slice by slice; row 1
        # needs no path (x = 0 or reduced to bp), and in the last stack no row does
        rng = np.random.default_rng(23)
        A, y = rng.normal(size=(3, 6, 70)), rng.normal(size=(3, 6))
        if family == "bpdn_eps":
            full = np.linalg.norm(y, axis=1)
        else:
            full = np.array([pnorm.pnorm(r.x, 3.0) for r in solve_stack("bp", A, y, 3.0)])
        targets = 0.5 * full
        targets[1] = full[1]
        rows = self._check(family, A, y, 3.0, targets)
        assert rows[0].multiplier > 0 and rows[1].multiplier == 0.0
        self._check(family, A, y, 3.0, full)

    def test_degenerate_row(self):
        # bp falls back and stops short on row 13 at p = 1.05 (see
        # test_first_order_fallback), so a target just under its ||x_bp||_p
        # lies past the whole path
        rng = np.random.default_rng(11)
        A, y = rng.normal(size=(48, 8, 20))[12:15], rng.normal(size=(48, 8))[12:15]
        cfg = SolverConfig(max_iter_first_order=300)
        eta = np.array([0.999 * pnorm.pnorm(r.x, 1.05) for r in solve_stack("bp", A, y, 1.05, cfg)])
        rows = self._check("bpdn_eta", A, y, 1.05, eta, cfg)
        assert rows[1].status == "degenerate" and rows[1].multiplier is None


class TestBpdnEtaDualBound:
    def _instance(self):
        return random_instance(np.random.default_rng(140), 8, 20)

    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 4.5])
    def test_no_bp_below_bound(self, monkeypatch, p):
        A, y = self._instance()
        x_ls = linalg.least_norm_solution(A, y)
        bound = float(x_ls @ x_ls) / pnorm.pnorm(x_ls, p / (p - 1.0))
        bp_norm = pnorm.pnorm(solve_bp(A, y, p).x, p)
        assert bound <= bp_norm * (1.0 + 1e-12)

        inner = lps.solvers.solve_stack

        def guarded(family, *args, **kwargs):
            if family == "bp":
                raise AssertionError("bp solved below the dual bound")
            return inner(family, *args, **kwargs)

        monkeypatch.setattr(lps.solvers, "solve_stack", guarded)
        res = solve_bpdn_eta(A, y, p, 0.9 * bound)
        assert res.converged and res.multiplier > 0
        assert not res.reduced_to_bp
        assert pnorm.pnorm(res.x, p) == pytest.approx(0.9 * bound, rel=1e-8)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_reduces_to_bp_at_bp_norm(self, p):
        A, y = self._instance()
        bp = solve_bp(A, y, p)
        res = solve_bpdn_eta(A, y, p, pnorm.pnorm(bp.x, p))
        assert res.reduced_to_bp and res.converged
        assert res.multiplier == 0.0
        np.testing.assert_array_equal(res.x, bp.x)


class TestSolveBpL1:
    def test_degenerate_face_objective(self):
        res = solve_bp_l1([[1.0, 1.0]], [2.0])
        assert res.objective == pytest.approx(2.0, abs=1e-8)

    def test_tiny_vertex_oracle(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        res = solve_bp_l1(A, [1.0, 1.0])
        assert res.objective == pytest.approx(1.0, abs=1e-7)
        np.testing.assert_allclose(res.x, [0.0, 0.0, 1.0], atol=1e-6)

    def test_random_tiny_against_enumeration(self):
        rng = np.random.default_rng(100)
        for _ in range(10):
            A, y = random_instance(rng, 2, 5)
            res = solve_bp_l1(A, y)
            ref = l1_min_objective(A, y)
            assert np.abs(A @ res.x - y).max() <= 1e-8 * (1 + np.linalg.norm(y))
            assert res.objective == pytest.approx(ref, rel=1e-6, abs=1e-8)

    def test_sparse_recovery(self):
        rng = np.random.default_rng(101)
        for _ in range(5):
            A = rng.normal(size=(12, 24))
            x0 = np.zeros(24)
            idx = rng.choice(24, 2, replace=False)
            x0[idx] = rng.choice([-1.0, 1.0], 2)
            y = A @ x0
            res = solve_bp_l1(A, y)
            assert np.abs(res.x - x0).max() <= 1e-6

    def test_zero_rhs(self):
        res = solve_bp_l1(np.ones((1, 3)), [0.0])
        assert res.converged and not np.any(res.x)


class TestSolveRrIrls:
    def test_zero_rhs(self):
        res = solve_rr_irls(np.ones((2, 3)), np.zeros(2), 0.5, 0.1)
        assert res.converged and not np.any(res.x)

    def test_scalar_data_dominates(self):
        res = solve_rr_irls([[1.0]], [2.0], 0.5, 1e-4)
        obj = lambda x: 0.5 * (x - 2.0) ** 2 + 1e-4 * np.abs(x) ** 0.5
        xg, vg = grid_min_1d(obj, lambda x: np.ones_like(x, dtype=bool), 0.0, 3.0)
        assert res.x[0] == pytest.approx(xg, abs=1e-4)
        assert res.objective == pytest.approx(vg, abs=1e-8)

    def test_support_bounded_by_m(self):
        rng = np.random.default_rng(110)
        for _ in range(10):
            A, y = random_instance(rng, 4, 12)
            res = solve_rr_irls(A, y, 0.5, 0.1)
            scale = np.abs(res.x).max()
            support = int(np.sum(np.abs(res.x) > 1e-6 * scale))
            assert support <= 4

    def test_smoothed_objective_monotone(self):
        rng = np.random.default_rng(111)
        A, y = random_instance(rng, 3, 8)
        tr = []
        solve_rr_irls(A, y, 0.5, 0.1, trace=tr)
        vals = [v for _, v in tr]
        assert all(b <= a + 1e-12 * (1 + abs(a)) for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_p(self):
        with pytest.raises(InvalidInputError):
            solve_rr_irls(np.eye(2), [1.0, 1.0], 1.5, 0.1)


class TestKktResidual:
    def test_exact_bp_pair(self):
        rng = np.random.default_rng(120)
        A, y = random_instance(rng, 2, 4)
        x = linalg.least_norm_solution(A, y)
        nu = 2.0 * np.linalg.solve(A @ A.T, y)
        inst = ProblemInstance(A, y, "bp", p=2.0)
        from lps.solvers import SolveResult
        res = SolveResult(x, nu, pnorm.pnorm(x, 2), 0.0, 0, "converged")
        assert kkt_residual(inst, res) <= 1e-12

    def test_rr_zero_point(self):
        rng = np.random.default_rng(121)
        A, y = random_instance(rng, 2, 4)
        inst = ProblemInstance(A, y, "rr", p=2.0, lam=0.3)
        from lps.solvers import SolveResult
        res = SolveResult(np.zeros(4), None, 0.0, 0.0, 0, "converged")
        assert kkt_residual(inst, res) == pytest.approx(np.abs(A.T @ y).max())

    def test_grows_with_perturbation(self):
        rng = np.random.default_rng(122)
        A, y = random_instance(rng, 3, 6)
        inst = ProblemInstance(A, y, "rr", p=3.0, lam=0.2)
        res = solve_rr(A, y, 3.0, 0.2)
        u = rng.normal(size=6)
        u /= np.linalg.norm(u)
        from dataclasses import replace
        r0 = kkt_residual(inst, res)
        r1 = kkt_residual(inst, replace(res, x=res.x + 1e-6 * u))
        r2 = kkt_residual(inst, replace(res, x=res.x + 1e-3 * u))
        assert r0 < r1 < r2

    def test_missing_multiplier_rejected(self):
        rng = np.random.default_rng(123)
        A, y = random_instance(rng, 2, 4)
        inst = ProblemInstance(A, y, "bp", p=2.0)
        from lps.solvers import SolveResult
        res = SolveResult(np.zeros(4), None, 0.0, 0.0, 0, "converged")
        with pytest.raises(InvalidInputError):
            kkt_residual(inst, res)

    def test_dimension_mismatch(self):
        inst = ProblemInstance(np.eye(2), [1.0, 1.0], "rr", p=2.0, lam=0.1)
        from lps.solvers import SolveResult
        res = SolveResult(np.zeros(3), None, 0.0, 0.0, 0, "converged")
        with pytest.raises(InvalidInputError):
            kkt_residual(inst, res)


class TestSolveInstance:
    def test_dispatch_each_family(self):
        rng = np.random.default_rng(130)
        A, y = random_instance(rng, 2, 5)
        eta = 0.5 * pnorm.pnorm(solve_bp(A, y, 2).x, 2)
        cases = [
            ProblemInstance(A, y, "bp", p=3.0),
            ProblemInstance(A, y, "rr", p=1.5, lam=0.1),
            ProblemInstance(A, y, "en", p=2.0, r=1.0, lam1=0.1, lam2=0.1),
            ProblemInstance(A, y, "bpdn_eps", p=2.0, eps=0.1 * np.linalg.norm(y)),
            ProblemInstance(A, y, "bpdn_eta", p=2.0, eta=eta),
            ProblemInstance(A, y, "bp_l1"),
            ProblemInstance(A, y, "rr_irls", p=0.5, lam=0.1),
        ]
        for inst in cases:
            res = solve_instance(inst)
            assert res.status == "converged", inst.family
            assert kkt_residual(inst, res) <= 1e-6
