import dataclasses
import warnings

import hypothesis
from hypothesis import strategies
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


def first_order(family, A, y, p, *params):
    """The first-order method alone on one instance, from the start point of
    the branch that p picks (params: those of the branch class)."""
    br = lps.solvers._branch(family, p)(np.array([A]), np.array([y]), p, SolverConfig(), *params)
    return br.fallback(br.start(), 0, 0)


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
        a = solve_bp(A, y, 1.8)
        b = first_order("bp", A, y, 1.8)
        assert a.converged and b.converged
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_uniqueness_probe_high_p(self):
        rng = np.random.default_rng(56)
        A, y = random_instance(rng, 3, 8)
        a = solve_bp(A, y, 3.0)
        b = first_order("bp", A, y, 3.0)
        assert a.converged and b.converged
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_rejects_bad_exponent(self):
        with pytest.raises(InvalidInputError):
            solve_bp(np.eye(2), [1.0, 1.0], 1.0)
        with pytest.raises(InvalidInputError):
            solve_bp(np.eye(2), [1.0, 1.0], 0.5)

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    def test_square_systems(self, p):
        # A x = y has one solution; for p >= 2 the first measure already stops
        # every row at the least-norm start, while the dual branch iterates to
        # its own test, ||A x - y|| <= kkt_tol ||y||
        rng = np.random.default_rng(6)
        A, y = rng.standard_normal((16, 6, 6)), rng.standard_normal((16, 6))
        x = np.linalg.solve(A, y[..., None])[..., 0]
        for k, res in enumerate(solve_stack("bp", A, y, p)):
            assert res.converged, k
            if p >= 2.0:
                assert res.iterations == 0, k
                assert np.linalg.norm(res.x - x[k]) <= 1e-12 * np.linalg.norm(x[k]), k
            else:
                assert np.linalg.norm(A[k] @ res.x - y[k]) <= 1e-10 * np.linalg.norm(y[k]), k

    @pytest.mark.parametrize("spread", [1, 2, 3])
    @pytest.mark.parametrize("p", [1.2, 1.5, 3.0, 8.0])
    def test_column_scaled(self, p, spread):
        # columns of A scaled by 10^U(-spread, spread): through A A^T the
        # multiplier and the least-norm start carry u kappa(A)^2 of rounding,
        # which stalls p >= 2 short of kkt_tol; the QR factor of A^T carries
        # u kappa(A)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((48, 8, 20)) * 10.0 ** rng.uniform(-spread, spread, (48, 1, 20))
        y = rng.standard_normal((48, 8))
        for k, res in enumerate(solve_stack("bp", A, y, p)):
            assert res.converged, k
            if p >= 2.0:
                assert np.abs(A[k] @ res.x - y[k]).max() <= 1e-12 * np.linalg.norm(y[k]), k


class TestRowFactor:
    """lps.solvers._qr, the one factorization of A^T behind bp, bpdn and bp_l1."""

    def test_least_norm_and_projection_match_linalg(self):
        rng = np.random.default_rng(9)
        A, y = rng.standard_normal((20, 5, 12)), rng.standard_normal((20, 5))
        x = rng.standard_normal((20, 12))
        full, Rinv, Q = lps.solvers._qr(A, "complete")
        assert full.all()
        for k in range(20):
            Q1 = Q[k, :, :5]
            x_ls = Q1 @ (Rinv[k].T @ y[k])
            ref = linalg.least_norm_solution(A[k], y[k])
            assert np.linalg.norm(x_ls - ref) <= 1e-12 * np.linalg.norm(ref)
            proj = x[k] - Q1 @ (Q1.T @ x[k]) + x_ls
            ref = linalg.affine_project(A[k], y[k], x[k])
            assert np.linalg.norm(proj - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.abs(A[k] @ Q[k, :, 5:]).max() <= 1e-12 * np.abs(A[k]).max()
        # the branches and the bpdn stacks read the same points
        bp = lps.solvers._branch("bp", 3.0)(A, y, 3.0, SolverConfig())
        rows, x_ls, v = lps.solvers._full_row_rank("bpdn_eps", A, y, [None] * 20)
        for k in range(20):
            ref = linalg.least_norm_solution(A[k], y[k])
            assert np.linalg.norm(bp.x0[k] - ref) <= 1e-12 * np.linalg.norm(ref)
            assert np.linalg.norm(x_ls[k] - ref) <= 1e-12 * np.linalg.norm(ref)
            ref = np.linalg.solve(A[k] @ A[k].T, y[k])  # the dual ray of bp and the bpdn forms
            assert np.linalg.norm(v[k] - ref) <= 1e-12 * np.linalg.norm(ref)
        assert rows.tolist() == list(range(20))

    def test_full_row_rank_mask(self):
        rng = np.random.default_rng(10)
        A = rng.standard_normal((4, 3, 7))
        A[1, 2] = 2.0 * A[1, 0] - A[1, 1]  # dependent rows
        A[2, 1] = A[2, 0] * (1.0 + 1e-9)  # nearly so: |R_22|^2 ~ 1e-18 max ||a_i||^2
        for mode in ("r", "reduced", "complete"):
            full, Rinv, _ = lps.solvers._qr(A, mode)
            assert full.tolist() == [True, False, False, True]
            assert np.isfinite(Rinv).all()
        full, _, Q = lps.solvers._qr(rng.standard_normal((2, 4, 3)), "complete")  # m > N
        assert not full.any() and Q.shape == (2, 3, 4)


class TestStackSolve:
    """lps.solvers._solve, the one linear solve behind every Newton system."""

    @pytest.mark.parametrize("n", [8, 70])
    @pytest.mark.parametrize("cols", [None, 3])
    def test_singular_slice(self, n, cols):
        rng = np.random.default_rng(n)
        G = rng.standard_normal((4, n, n))
        M = np.matmul(G, G.transpose(0, 2, 1)) + np.eye(n)
        M[2, 0, :] = M[2, :, 0] = 0.0  # exactly singular: LU meets a zero pivot
        rhs = rng.standard_normal((4, n) if cols is None else (4, n, cols))
        before = M.copy()
        d = lps.solvers._solve(M, rhs)
        assert np.array_equal(M, before)
        for k in (0, 1, 3):
            alone = lps.solvers._solve(M[k:k + 1], rhs[k:k + 1])[0]
            assert np.array_equal(d[k], alone)
            assert np.array_equal(d[k], np.linalg.solve(M[k], rhs[k]))
        shifted = lps.solvers._solve_shifted(M[2], rhs[2], np.trace(M[2]) / n)
        assert np.all(np.isfinite(d[2])) and np.array_equal(d[2], shifted)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(M[2], rhs[2])


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
        a = solve_rr(A, y, 1.5, 0.3)
        b = first_order("rr", A, y, 1.5, np.array([0.3]), None)
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_rejects_bad_lambda(self):
        with pytest.raises(InvalidInputError):
            solve_rr(np.eye(2), [1.0, 1.0], 2, -1.0)

    @pytest.mark.parametrize("p", [1.002, 1.005, 1.01])
    def test_converged_rows_pass_the_kkt_test(self, p):
        # near p = 1, x = h(A^T w / lam) underflows, so the Newton test in w
        # can pass while the KKT test at x fails; such a row is not converged
        rng = np.random.default_rng(11)
        A, y = rng.normal(size=(48, 8, 20)), rng.normal(size=(48, 8))
        # the overflow warnings of h at these p (ROADMAP item 1) are recorded
        # here, not raised; the statuses are what this test checks
        with warnings.catch_warnings(record=True):
            warnings.simplefilter("always", RuntimeWarning)
            rows = solve_stack("rr", A, y, p, lam=0.1)
        for k, res in enumerate(rows):
            if res.converged:
                assert res.kkt_residual <= 1e-10 * np.abs(A[k].T @ y[k]).max(), k


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

    @pytest.mark.parametrize("p,newton", [(1.5, "bordered_augmented_rr"), (3.0, "primal_dual_newton")])
    def test_uniqueness_probe(self, p, newton):
        # p picks the method: below 2 rr's residual Newton on the augmented
        # data bordered by lam = lam*(x), primal Newton above
        rng = np.random.default_rng(72)
        A, y = random_instance(rng, 3, 7)
        a = solve_en(A, y, p, 1.0, 0.1, 0.1)
        b = first_order("en", A, y, p, np.array([0.1]), None, 1.0, 0.1)
        assert a.converged and b.converged, newton
        np.testing.assert_allclose(a.x, b.x, rtol=1e-6, atol=1e-9)

    def test_rejects_bad_params(self):
        with pytest.raises(InvalidInputError):
            solve_en(np.eye(2), [1.0, 1.0], 2, 0.5, 0.1, 0.1)
        with pytest.raises(InvalidInputError):
            solve_en(np.eye(2), [1.0, 1.0], 2, 1, -0.1, 0.1)
        with pytest.raises(InvalidInputError):
            solve_en(np.eye(2), [1.0, 1.0], 2, 1, 0.1, 0.0)


class TestEnAugmentedRr:
    """en below p = 2: rr's residual Newton on A* = [A; sqrt(2 lam2) I],
    y* = [y; 0], bordered by lam = lam* = (r lam1 / p) ||x||_p^(r-p): one
    Newton solve in the residual and log lam together."""

    @staticmethod
    def _relative_kkt(A, y, x, p, r, lam1, lam2):
        """The en stationarity against the largest of its parts, before they cancel."""
        fpow = pnorm.pnorm_pow(x, p)
        penalty = (r * lam1 / p) * fpow ** ((r - p) / p) * pnorm.pnorm_grad(x, p)
        parts = (A.T @ (A @ x), -(A.T @ y), 2.0 * lam2 * x, penalty)
        return np.abs(sum(parts)).max() / max(np.abs(v).max() for v in parts)

    @pytest.mark.parametrize("p", [1.02, 1.05])
    @pytest.mark.parametrize("r", ["1", "p", "2"])
    @pytest.mark.parametrize("c", [1e-3, 1.0, 1e3])
    def test_near_one(self, p, r, c):
        # the baseline set of 48 Gaussian 8x20 instances, (A, y) scaled by c;
        # RuntimeWarnings are errors here
        rng = np.random.default_rng(11)
        A, y = c * rng.normal(size=(48, 8, 20)), c * rng.normal(size=(48, 8))
        r = {"1": 1.0, "p": p, "2": 2.0}[r]
        rows = solve_stack("en", A, y, p, r=r, lam1=0.1, lam2=0.1)
        for k, res in enumerate(rows):
            if not res.x.any():  # optimal iff r = 1 and ||A^T y||_q <= lam1
                assert r == 1.0 and pnorm.pnorm(A[k].T @ y[k], p / (p - 1.0)) <= 0.1, k
            elif res.converged:
                assert self._relative_kkt(A[k], y[k], res.x, p, r, 0.1, 0.1) <= 1e-8, k
        if c == 1.0:
            assert all(res.converged for res in rows)

    @staticmethod
    def _spied(monkeypatch, names):
        """The calls of lps.solvers' `names`, by name, through spies."""
        calls = []
        for name in names:
            inner = getattr(lps.solvers, name)

            def spy(*args, inner=inner, name=name):
                calls.append(name)
                return inner(*args)

            monkeypatch.setattr(lps.solvers, name, spy)
        return calls

    def test_one_rr_solve_at_r_equal_p(self, monkeypatch):
        # at r = p, lam* = lam1: en is one Newton solve of rr on (A*, y*) at
        # lam1, with no solve on rr's path; it agrees with solve_rr on that
        # data and takes no more iterations
        calls = self._spied(monkeypatch, ("_rr_core",))
        rng = np.random.default_rng(12)
        A, y = rng.normal(size=(12, 8, 20)), rng.normal(size=(12, 8))
        for p in (1.2, 1.5):
            rows = solve_stack("en", A, y, p, r=p, lam1=0.1, lam2=0.1)
            assert solve_en(A[0], y[0], p, p, 0.1, 0.1).x.tobytes() == rows[0].x.tobytes()
            for k, res in enumerate(rows):
                As = np.vstack([A[k], np.sqrt(0.2) * np.eye(20)])
                ref = solve_rr(As, np.concatenate([y[k], np.zeros(20)]), p, 0.1)
                assert res.converged and ref.converged, (p, k)
                assert np.abs(res.x - ref.x).max() <= 1e-8 * np.abs(ref.x).max(), (p, k)
                assert res.iterations <= ref.iterations, (p, k)
        assert not calls

    @pytest.mark.parametrize("p", [1.2, 1.5])
    def test_column_scaled_one_newton_solve(self, monkeypatch, p):
        # item 7's column-scaled sets (each column of A times 10^U(-3, 3)):
        # en converges on every row with no bpdn solve (_rr_core) and no
        # first-order fallback.  Row 8 of set 3 at p = 1.5 stalls in the
        # bordered Newton at 1.13 kkt_tol ||A^T y||_inf, the rounding of
        # x = h(A*^T w / lam) there, and finishes by en's primal Newton
        primal = []
        calls = self._spied(monkeypatch, ("_rr_core", "_first_order"))
        monkeypatch.setattr(lps.solvers._EnPrimal, "start",
                            lambda br: primal.append(br.size) or lps.solvers._Stack.start(br))
        for seed in range(6):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((48, 8, 20)) * 10.0 ** rng.uniform(-3, 3, size=(48, 1, 20))
            y = rng.standard_normal((48, 8))
            for k, res in enumerate(solve_stack("en", A, y, p, r=1.0, lam1=0.1, lam2=0.1)):
                assert res.converged, (seed, k)
                assert self._relative_kkt(A[k], y[k], res.x, p, 1.0, 0.1, 0.1) <= 1e-8, (seed, k)
        assert not calls and primal == ([1] if p == 1.5 else [])

    @pytest.mark.parametrize("p,max_iter", [(1.05, 3), (1.2, 2), (1.5, 1), (1.5, 4)])
    def test_iterations_within_budget(self, p, max_iter):
        # one Newton run: a result's iterations never exceed max_iter, and a
        # converged row passes its KKT test
        cfg = SolverConfig(max_iter=max_iter)
        for seed in (3, 4):
            rng = np.random.default_rng(seed)
            A, y = rng.normal(size=(6, 8, 20)), rng.normal(size=(6, 8))
            for r in (1.0, 2.0):
                for k, res in enumerate(solve_stack("en", A, y, p, cfg, r=r, lam1=0.1, lam2=0.1)):
                    assert res.iterations <= max_iter, (seed, r, k, res.iterations)
                    if res.converged:
                        assert res.kkt_residual <= 1e-10 * np.abs(A[k].T @ y[k]).max(), (seed, r, k)

    def test_schur_direction_solves_the_full_system(self):
        # the m x m reduced system gives the Newton step of the (m + N) x (m + N) one
        rng = np.random.default_rng(3)
        A, y = rng.normal(size=(4, 5, 9)), rng.normal(size=(4, 5))
        lam, lam2 = np.array([0.1, 0.2, 0.3, 0.4]), 0.3
        br = lps.solvers._RrResidual(A, y, 1.5, SolverConfig(), lam, None, lam2=lam2)
        st = br.start()
        d, slope, failed = br.direction(st)
        assert failed is None and d.shape == (4, 5 + 9)
        e = np.abs(st["s"]) / (0.5 * 1.5 ** 2 * lam[:, None])  # h'(s) / lam at p = 1.5
        for k in range(4):
            As = np.vstack([A[k], np.sqrt(2.0 * lam2) * np.eye(9)])
            J = np.eye(14) + (As * e[k]) @ As.T
            np.testing.assert_allclose(J @ d[k], -st["G"][k], atol=1e-10 * np.abs(st["G"][k]).max())


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
        # call of _rr_core solves a stack, so its rows are counted, and the
        # Newton iterations of a trial are its result's iterations: one
        # bordered solve per trial
        calls = []
        rr_core = lps.solvers._rr_core

        def counted(*args):
            calls.append(len(args[3]))
            return rr_core(*args)

        monkeypatch.setattr(lps.solvers, "_rr_core", counted)
        trials = 24
        iterations = 0
        for trial in range(trials):
            A, y = gen_gaussian_instance(EnsembleSpec(m=8, N=20, seed=1000 + trial))
            if family == "bpdn_eps":
                target = 0.1 * np.linalg.norm(y)
            else:
                target = 0.5 * pnorm.pnorm(solve_bp(A, y, p).x, p)
            res = getattr(lps.solvers, "solve_" + family)(A, y, p, target)
            assert res.converged and res.multiplier > 0
            iterations += res.iterations
        assert calls, "the bpdn solve must call lps.solvers._rr_core"
        assert sum(calls) / trials <= 1
        assert iterations / trials <= 8
        # the same bound through the experiment harness, which solves its trials as stacks
        calls.clear()
        cfg = analysis.ExperimentConfig(family=family, m=8, N=20, trials=trials,
                                        master_seed=1000, p_grid=(p,))
        stats = analysis.run_genericity_experiment(cfg)
        assert stats.cells[0].failures == 0
        assert max(calls) > 1
        assert sum(calls) / trials <= 1

    @pytest.mark.parametrize("c", [1e-6, 1.0, 1e6])
    def test_extreme_eta_target(self, monkeypatch, c):
        # at p = 8 and eta = 0.01 ||x_bp||_p the root sits near lam = 1e20 c^2,
        # far out on the path: the data-driven start reaches it in a few rows
        calls = []
        rr_core = lps.solvers._rr_core

        def counted(*args):
            calls.append(len(args[3]))
            return rr_core(*args)

        rng = np.random.default_rng(8)
        A, y = rng.normal(size=(4, 32, 80)), rng.normal(size=(4, 32))
        eta = np.array([0.01 * pnorm.pnorm(r.x, 8.0) for r in solve_stack("bp", A, y, 8.0)])
        monkeypatch.setattr(lps.solvers, "_rr_core", counted)
        for k in range(len(A)):
            res = solve_bpdn_eta(c * A[k], c * y[k], 8.0, eta[k])
            assert res.converged and res.multiplier > 1e15 * c * c
            assert pnorm.pnorm(res.x, 8.0) == pytest.approx(eta[k], rel=1e-8)
        assert sum(calls) / len(A) <= 8.0

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    def test_target_sweep(self, family):
        # targets from near zero to near the free end of the path, at both
        # ends of the p range and with (A, y) scaled by 1e+-6; RuntimeWarnings
        # are errors here, and a stack returns such an error as its entry
        for m, N in ((8, 20), (3, 9)):
            rng = np.random.default_rng(m * 1000 + N)
            A, y = rng.normal(size=(6, m, N)), rng.normal(size=(6, m))
            for p in (1.05, 1.5, 3.0, 8.0):
                if family == "bpdn_eps":
                    full = np.linalg.norm(y, axis=1)
                else:
                    full = np.array([pnorm.pnorm(r.x, p) for r in solve_stack("bp", A, y, p)])
                for c in (1e-6, 1.0, 1e6):
                    for frac in (0.01, 0.5, 0.9):
                        target = frac * full * (c if family == "bpdn_eps" else 1.0)
                        rows = solve_stack(family, c * A, c * y, p, **{family[5:]: target})
                        for k, res in enumerate(rows):
                            case = (m, p, c, frac, k, res)
                            assert isinstance(res, lps.solvers.SolveResult), case
                            assert res.converged and res.multiplier > 0, case
                            if family == "bpdn_eps":
                                value = np.linalg.norm(c * A[k] @ res.x - c * y[k])
                            else:
                                value = pnorm.pnorm(res.x, p)
                            assert value == pytest.approx(target[k], rel=1e-6), case

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    @pytest.mark.parametrize("max_iter", [1, 2])
    def test_small_budget(self, family, max_iter):
        # the inner rr solves inherit max_iter; one that ends on a non-finite x
        # takes its row off the path as degenerate, with no RuntimeWarning
        rng = np.random.default_rng(3)
        A, y = rng.normal(size=(6, 8, 20)), rng.normal(size=(6, 8))
        if family == "bpdn_eps":
            targets = 0.1 * np.linalg.norm(y, axis=1)
        else:
            targets = np.array([0.5 * pnorm.pnorm(r.x, 1.5) for r in solve_stack("bp", A, y, 1.5)])
        cfg = SolverConfig(max_iter=max_iter)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rows = TestBpdnStack()._check(family, A, y, 1.5, targets, cfg)
        assert not caught, [str(w.message) for w in caught]
        for res in rows:
            assert res.status in ("converged", "degenerate")
            if res.status == "degenerate":
                assert res.multiplier is None and res.kkt_residual == np.inf


class TestBorderedNewton:
    """The bpdn forms by one Newton solve in the rr state and log lam: below
    p = 2 on the form's convex dual with its constraint met in closed form,
    from p = 2 in (x, log lam) with one restart of the rows left unsolved."""

    @staticmethod
    def _targets(family, A, y, p, frac=0.5):
        if family == "bpdn_eps":
            return 0.1 * np.linalg.norm(y, axis=1)
        return np.array([frac * pnorm.pnorm(r.x, p) for r in solve_stack("bp", A, y, p)])

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 4.5])
    def test_agrees_with_path_root(self, family, p):
        # the path root is the point of rr's path x(lam) that meets the
        # constraint; each result is that point at its lam (1 / (2 mu) for
        # eps, mu for eta): solve_rr there gives its x, and that x meets the
        # target, both to 1e-8 relative
        rng = np.random.default_rng(int(p * 10) + 500)
        for B, m, N in ((16, 8, 20), (4, 32, 80)):
            A, y = rng.normal(size=(B, m, N)), rng.normal(size=(B, m))
            targets = self._targets(family, A, y, p)
            for k, res in enumerate(solve_stack(family, A, y, p, **{family[5:]: targets})):
                assert res.converged and res.multiplier > 0, (m, k)
                lam = 1.0 / (2.0 * res.multiplier) if family == "bpdn_eps" else res.multiplier
                ref = solve_rr(A[k], y[k], p, lam)
                assert ref.converged, (m, k)
                assert np.abs(res.x - ref.x).max() <= 1e-8 * np.abs(ref.x).max(), (m, k)
                if family == "bpdn_eps":
                    value = np.linalg.norm(A[k] @ ref.x - y[k])
                else:
                    value = pnorm.pnorm(ref.x, p)
                assert value == pytest.approx(targets[k], rel=1e-8), (m, k)

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    def test_column_scaled_fallback(self, monkeypatch, family):
        # with the columns of A scaled by 10^U(-3, 3) every row converges and
        # gets the bytes of its batch of one: at p = 1.2 as solved, and at
        # p = 3 with the first run's stopping test switched off, so that the
        # rerun of the rows it leaves (_rerun from x0 at 10 lam0) solves
        # every row and the fallback is exercised
        rerun = []
        inner = lps.solvers._rerun
        done = lps.solvers._Bordered.done

        def counted(A, *args):
            rerun.append(len(A))
            return inner(A, *args)

        rng = np.random.default_rng(5)
        A = rng.standard_normal((24, 8, 20)) * 10.0 ** rng.uniform(-3, 3, size=(24, 1, 20))
        y = rng.standard_normal((24, 8))
        monkeypatch.setattr(lps.solvers, "_rerun", counted)
        for p, forced in ((1.2, False), (3.0, True)):
            rerun.clear()
            targets = self._targets(family, A, y, p)
            with monkeypatch.context() as patch:
                if forced:
                    patch.setattr(lps.solvers._Bordered, "done",
                                  lambda self, st, res, scale: self.restarted & done(self, st, res, scale))
                rows = TestBpdnStack()._check(family, A, y, p, targets)
            assert all(res.converged and res.multiplier > 0 for res in rows), p
            # _check solves each row alone, then stacks of 1, 7 and 24 rows
            assert not forced or sum(rerun) == 2 * len(A) + 8

    @pytest.mark.parametrize("family", ["bpdn_eps", "bpdn_eta"])
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_zero_column(self, family, p):
        # a full-row-rank A may have a column of zeros, whose coordinate of
        # A^T r vanishes; every row still converges to a solution
        rng = np.random.default_rng(7)
        A, y = rng.normal(size=(6, 8, 20)), rng.normal(size=(6, 8))
        A[:, :, 3] = 0.0
        targets = self._targets(family, A, y, p)
        for j, res in enumerate(solve_stack(family, A, y, p, **{family[5:]: targets})):
            assert res.converged, j
            stationarity, value = self._relative_kkt(family, A[j], y[j], res.x, res.multiplier, p)
            assert res.multiplier > 0 and stationarity <= 1e-6, j
            assert value == pytest.approx(targets[j], rel=1e-6), j

    @staticmethod
    def _relative_kkt(family, A, y, x, mu, p):
        """(the stationarity residual against its largest term, the constraint's value)."""
        r = A @ x - y
        if family == "bpdn_eps":
            parts = (pnorm.pnorm_grad(x, p), 2.0 * mu * (A.T @ r))
        else:
            parts = (A.T @ r, mu * pnorm.pnorm_grad(x, p))
        return (np.abs(sum(parts)).max() / max(np.abs(v).max() for v in parts),
                np.linalg.norm(r) if family == "bpdn_eps" else pnorm.pnorm(x, p))

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family=strategies.sampled_from(["bpdn_eps", "bpdn_eta"]),
                      p=strategies.floats(1.1, 8.0), k=strategies.floats(-6.0, 6.0),
                      frac=strategies.floats(0.01, 0.99), seed=strategies.integers(0, 2 ** 32 - 1))
    def test_converged_rows_hold_kkt(self, family, p, k, frac, seed):
        # (A, y) scaled by 10^k and targets from near zero to near the free
        # end of the path: a converged row is a solution, any other is degenerate
        rng = np.random.default_rng(seed)
        c = 10.0 ** k
        A, y = c * rng.normal(size=(4, 8, 20)), c * rng.normal(size=(4, 8))
        if family == "bpdn_eps":
            targets = frac * np.linalg.norm(y, axis=1)
        else:
            targets = self._targets(family, A, y, p, frac)
        for j, res in enumerate(solve_stack(family, A, y, p, **{family[5:]: targets})):
            if not res.converged:
                assert res.status == "degenerate", j
                continue
            stationarity, value = self._relative_kkt(family, A[j], y[j], res.x, res.multiplier, p)
            assert res.multiplier > 0 and stationarity <= 1e-6, j
            assert value == pytest.approx(targets[j], rel=1e-6), j


class TestColumnScaled:
    """ROADMAP item 7: A with badly scaled columns."""

    @hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @hypothesis.given(family=strategies.sampled_from(["rr", "en", "bpdn_eps", "bpdn_eta"]),
                      p=strategies.sampled_from([1.2, 1.5, 3.0, 8.0]), k=strategies.floats(0.0, 3.0),
                      seed=strategies.integers(0, 2 ** 32 - 1))
    def test_converged_rows_hold_kkt(self, family, p, k, seed):
        # each column of A scaled by 10^U(-k, k): a converged row is a
        # solution, by the relative KKT checks of TestEnAugmentedRr (rr, en)
        # and TestBorderedNewton (the bpdn forms)
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((4, 8, 20)) * 10.0 ** rng.uniform(-k, k, size=(4, 1, 20))
        y = rng.standard_normal((4, 8))
        if family == "rr":
            params = {"lam": 0.1}
        elif family == "en":
            params = {"r": 1.0, "lam1": 0.1, "lam2": 0.1}
        else:
            targets = TestBorderedNewton._targets(family, A, y, p)
            params = {family[5:]: targets}
        for j, res in enumerate(solve_stack(family, A, y, p, **params)):
            if not res.converged or not res.x.any():
                continue
            if family in ("rr", "en"):
                r, lam2 = (p, 0.0) if family == "rr" else (1.0, 0.1)
                assert TestEnAugmentedRr._relative_kkt(A[j], y[j], res.x, p, r, 0.1, lam2) <= 1e-8, j
            else:
                stationarity, value = TestBorderedNewton._relative_kkt(family, A[j], y[j], res.x,
                                                                       res.multiplier, p)
                assert res.multiplier > 0 and stationarity <= 1e-6, j
                assert value == pytest.approx(targets[j], rel=1e-6), j


    @pytest.mark.parametrize("p", [1.05, 1.2, 1.5, 2.0, 3.0, 4.5, 8.0])
    def test_convergence_table(self, monkeypatch, p):
        # default_rng(0)-(3), 24 x 8 x 20 each, every column of A times
        # 10^U(-3, 3), eps = 0.1 ||y||, eta = 0.5 ||x_bp||_p: each cell of 96
        # rows converges at least as often as the old path root made it (all
        # rows; 92 for eta at p = 1.05), and every converged row is a
        # solution.  At p = 1.05 bp fails on most of these rows after its
        # first-order fallback; that fallback gets 200 steps here, not 50,000,
        # which leaves the counts as they are and the test fast.  From p = 2
        # the eps rows of set 1 row 20 (p = 2), set 0 row 4 (p = 3) and set 0
        # row 14 (p = 8) need _BorderedPrimal's rerun at 10 lam0, and the
        # first of them also its cap _T_DROP on the fall of log lam
        floor = {"bpdn_eps": 96, "bpdn_eta": 92 if p == 1.05 else 96}
        converged = dict.fromkeys(floor, 0)
        for seed in range(4):
            rng = np.random.default_rng(seed)
            A = rng.standard_normal((24, 8, 20)) * 10.0 ** rng.uniform(-3, 3, size=(24, 1, 20))
            y = rng.standard_normal((24, 8))
            for family in floor:
                with monkeypatch.context() as patch:
                    patch.setattr(lps.solvers, "_FIRST_ORDER_MAX_ITER", 200)
                    targets = TestBorderedNewton._targets(family, A, y, p)
                for j, res in enumerate(solve_stack(family, A, y, p, **{family[5:]: targets})):
                    if not res.converged:
                        continue
                    converged[family] += 1
                    stationarity, value = TestBorderedNewton._relative_kkt(family, A[j], y[j], res.x,
                                                                           res.multiplier, p)
                    assert res.multiplier > 0 and stationarity <= 1e-6, (family, seed, j)
                    assert value == pytest.approx(targets[j], rel=1e-6), (family, seed, j)
        assert all(converged[f] >= floor[f] for f in floor), converged


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
        # rr at p = 1.2 with the columns of A scaled by 10^U(-3, 3) leaves by
        # the stall guard on two of 48 instances (rows 11 and 17)
        rng = np.random.default_rng(5)
        A = rng.standard_normal((48, 8, 20)) * 10.0 ** rng.uniform(-3, 3, size=(48, 1, 20))
        singles = self._check("rr", A, rng.standard_normal((48, 8)), 1.2)
        stalled = [k for k, r in enumerate(singles) if r.status == "max_iter" and r.iterations < 500]
        assert stalled == [11, 17]
        assert sum(r.converged for r in singles) == 46

    def test_first_order_fallback(self, monkeypatch):
        # bp at p = 1.05: some instances leave the stack for the first-order method
        fallbacks = []
        inner = lps.solvers._first_order

        def counted(one, *args):
            fallbacks.append(one.p)
            return inner(one, *args)

        monkeypatch.setattr(lps.solvers, "_first_order", counted)
        monkeypatch.setattr(lps.solvers, "_FIRST_ORDER_MAX_ITER", 300)
        rng = np.random.default_rng(11)
        A, y = rng.normal(size=(48, 8, 20)), rng.normal(size=(48, 8))
        self._check("bp", A, y, 1.05)
        assert fallbacks

    @pytest.mark.parametrize("family", ["bp", "rr", "en"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_forced_fallback(self, monkeypatch, family, p):
        # the first line search of the stack moves no row, so every row of
        # either branch finishes in the first-order method at once
        rng = np.random.default_rng(int(p * 10))
        A, y = rng.normal(size=(4, 8, 20)), rng.normal(size=(4, 8))
        newton = solve_stack(family, A, y, p, **self.PARAMS[family])
        searches, fallbacks = [], []
        inner_search, inner_first_order = lps.solvers._line_search, lps.solvers._first_order

        def failing(br, st, d, slope, failed):
            searches.append(br.size)
            if len(searches) == 1:
                return np.zeros(br.size, dtype=bool)
            return inner_search(br, st, d, slope, failed)

        def counted(one, *args):
            fallbacks.append(one.p)
            return inner_first_order(one, *args)

        monkeypatch.setattr(lps.solvers, "_line_search", failing)
        monkeypatch.setattr(lps.solvers, "_first_order", counted)
        forced = solve_stack(family, A, y, p, **self.PARAMS[family])
        assert searches == [4] and len(fallbacks) == 4
        for k, (a, b) in enumerate(zip(newton, forced)):
            inst = ProblemInstance(A[k], y[k], family, p=p, **self.PARAMS[family])
            assert b.converged, k
            assert kkt_residual(inst, b) == b.kkt_residual
            assert np.linalg.norm(b.x - a.x) <= 1e-6 * np.linalg.norm(a.x), k

    def test_failing_instance_stays_apart(self, monkeypatch):
        # faulty rows ahead of full-rank rows: the bp stack function runs once
        # on the finite rows, with no retry row by row
        calls = []
        bp = lps.solvers.FAMILIES["bp"]

        def spied(A, *args, **kwargs):
            calls.append(len(A))
            return bp.stack(A, *args, **kwargs)

        monkeypatch.setitem(lps.solvers.FAMILIES, "bp", dataclasses.replace(bp, stack=spied))
        rng = np.random.default_rng(3)
        A, y = rng.normal(size=(6, 3, 7)), rng.normal(size=(6, 3))
        A[2, 2] = A[2, 0]  # rank deficient and feasible
        y[2] = A[2] @ rng.normal(size=7)
        A[4, 0, 0] = np.nan
        batch = solve_stack("bp", A, y, 1.5)
        assert calls == [5]
        assert isinstance(batch[2], RankDeficientError)
        assert isinstance(batch[4], InvalidInputError)
        for k in (0, 1, 3, 5):
            self._assert_same(batch[k], solve_bp(A[k], y[k], 1.5))
        A, y = rng.normal(size=(5, 3, 7)), rng.normal(size=(5, 3))
        y[0] = 0.0
        A[1, 2] = A[1, 0]  # rank deficient, and y[1] is not in its range
        for p in (1.5, 3.0):
            calls.clear()
            batch = solve_stack("bp", A, y, p)
            assert calls == [5]
            assert batch[0].converged and not batch[0].x.any()
            assert batch[1].status == "infeasible"
            for k in (2, 3, 4):
                self._assert_same(batch[k], solve_bp(A[k], y[k], p))

    @pytest.mark.parametrize("family", ["bp", "rr", "en"])
    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_take_matches_branch_of_rows(self, family, p):
        # take(rows) slices every array attribute, so each must hold one
        # entry per instance: the same bits as the branch built on those rows
        rng = np.random.default_rng(17)
        A, y = rng.normal(size=(3, 4, 9)), rng.normal(size=(3, 4))
        lam = np.array([0.1, 0.2, 0.3])
        params = {"bp": lambda k: (), "rr": lambda k: (lam[k], None),
                  "en": lambda k: (np.full(3, 0.1)[k], None, 1.0, 0.1)}[family]
        branch = lps.solvers._branch(family, p)
        whole = branch(A, y, p, SolverConfig(), *params(slice(None)))
        for k in range(3):
            part, alone = whole.take([k]), branch(A[[k]], y[[k]], p, SolverConfig(), *params([k]))
            assert vars(part).keys() == vars(alone).keys()
            for name, v in vars(alone).items():
                if isinstance(v, np.ndarray):
                    got = getattr(part, name)
                    assert got.shape == v.shape and got.tobytes() == v.tobytes(), name
                else:
                    assert getattr(part, name) == v, name

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
        monkeypatch.setattr(lps.solvers, "_FIRST_ORDER_MAX_ITER", 300)
        rng = np.random.default_rng(11)
        A, y = rng.normal(size=(48, 8, 20)), rng.normal(size=(48, 8))
        for p in (1.02, 1.05):
            solve_stack("bp", A, y, p)
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
        # N >= 64 at p >= 2: _path_dx solves systems of order 70 by the one
        # stacked LU that serves every order; row 1 needs no path (x = 0 or
        # reduced to bp), and in the last stack no row does
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

    def test_no_path_rows_at_m_64(self):
        # m = 64, N = 70: a wide stack that no row takes onto the path, as
        # x = 0 solves it (eps >= ||y||_2) or A lacks row rank
        rng = np.random.default_rng(29)
        A, y = rng.normal(size=(2, 64, 70)), rng.normal(size=(2, 64))
        rows = solve_stack("bpdn_eps", A, y, 3.0, eps=2.0 * np.linalg.norm(y, axis=1))
        assert all(r.converged and not r.x.any() and r.multiplier == 0.0 for r in rows)
        A[:, 3] = A[:, 0]
        rows = solve_stack("bpdn_eta", A, y, 3.0, eta=1.0)
        assert all(isinstance(r, RankDeficientError) for r in rows)

    def test_degenerate_row(self, monkeypatch):
        # bp falls back and stops short on row 13 at p = 1.05 (see
        # test_first_order_fallback), so a target just under its ||x_bp||_p
        # lies past the whole path
        monkeypatch.setattr(lps.solvers, "_FIRST_ORDER_MAX_ITER", 300)
        rng = np.random.default_rng(11)
        A, y = rng.normal(size=(48, 8, 20))[12:15], rng.normal(size=(48, 8))[12:15]
        eta = np.array([0.999 * pnorm.pnorm(r.x, 1.05) for r in solve_stack("bp", A, y, 1.05)])
        rows = self._check("bpdn_eta", A, y, 1.05, eta)
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

    def test_status_follows_kkt_residual(self, monkeypatch):
        # a 1-sparse instance whose last smoothing stage runs out its inner
        # steps without meeting the step test, at a KKT residual that passes;
        # it meets the step test after 118 last-stage steps, so the last
        # stage gets the 60 of the others here
        monkeypatch.setattr(lps.solvers, "_IRLS_FINAL_MAX", lps.solvers._IRLS_INNER_MAX)
        rng = np.random.default_rng(63)
        A = rng.normal(size=(8, 20))
        x0 = np.zeros(20)
        x0[rng.choice(20, 1, replace=False)] = rng.choice([-1.0, 1.0], 1)
        y = A @ x0
        tr = []
        res = solve_rr_irls(A, y, 0.5, 0.1, trace=tr)
        assert sum(eps == tr[-1][0] for eps, _ in tr) == lps.solvers._IRLS_FINAL_MAX
        scale = np.abs(A.T @ y).max()
        assert res.kkt_residual <= 1e-10 * scale
        assert res.status == "converged"
        tight = solve_rr_irls(A, y, 0.5, 0.1, SolverConfig(kkt_tol=1e-14))
        assert tight.kkt_residual > 1e-14 * scale
        assert tight.status == "max_iter"

    @pytest.mark.parametrize("seed", [335, 386])
    def test_last_stage_budget_reaches_kkt(self, seed):
        # 3-sparse instances at p = 0.8 whose last stage needs more than 60
        # steps to meet the KKT test
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(8, 20))
        x0 = np.zeros(20)
        x0[rng.choice(20, 3, replace=False)] = rng.choice([-1.0, 1.0], 3)
        y = A @ x0
        tr = []
        res = solve_rr_irls(A, y, 0.8, 0.1, trace=tr)
        assert sum(eps == tr[-1][0] for eps, _ in tr) > lps.solvers._IRLS_INNER_MAX
        assert res.status == "converged"
        assert res.kkt_residual <= 1e-11 * np.abs(A.T @ y).max()


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


class TestFamilyTable:
    """Every public entry validates p and the parameters through the family table."""

    VALID = {
        "bp": {"p": 1.5},
        "bpdn_eps": {"p": 1.5, "eps": 0.5},
        "bpdn_eta": {"p": 1.5, "eta": 0.5},
        "rr": {"p": 1.5, "lam": 0.1},
        "en": {"p": 1.5, "r": 1.0, "lam1": 0.1, "lam2": 0.1},
        "bp_l1": {},
        "rr_irls": {"p": 0.5, "lam": 0.1},
    }
    OUT_OF_RANGE = {"p": 1.0, "lam": 0.0, "lam1": -0.1, "lam2": 0.0, "r": 0.5, "eps": 0.0,
                    "eta": -1.0}
    LABEL = {"lam": "lambda", "lam1": "lambda1", "lam2": "lambda2"}  # as the CLI spells them

    @pytest.mark.parametrize("family", list(VALID))
    def test_missing_or_out_of_range_raises_invalid_input(self, family):
        A, y = random_instance(np.random.default_rng(5), 3, 7)
        solve = getattr(lps.solvers, "solve_" + family)
        valid = self.VALID[family]
        res = solve(A, y, **valid)
        assert res.converged
        assert kkt_residual(ProblemInstance(A, y, family, **valid), res) == res.kkt_residual
        for name in valid:
            for bad in (None, "many", self.OUT_OF_RANGE[name]):
                params = dict(valid, **{name: bad})
                inst = ProblemInstance(A, y, family, **params)
                message = rf"{family} requires {self.LABEL.get(name, name)}\b"
                for call in (lambda: solve(A, y, **params), lambda: solve_instance(inst),
                             lambda: kkt_residual(inst, res)):
                    with pytest.raises(InvalidInputError, match=message):
                        call()
        with pytest.raises(InvalidInputError):  # no p, or a family solve_stack does not take
            solve_stack(family, A[None], y[None], **dict(valid, p=None))

    @pytest.mark.parametrize("family", list(VALID))
    def test_non_finite_raises_invalid_input(self, family):
        # inf lies above every lower bound, and nan fails every comparison
        A, y = random_instance(np.random.default_rng(5), 3, 7)
        solve = getattr(lps.solvers, "solve_" + family)
        valid = self.VALID[family]
        for name in valid:
            for bad in (np.inf, np.nan):
                message = rf"{family} requires {self.LABEL.get(name, name)}\b"
                with pytest.raises(InvalidInputError, match=message):
                    solve(A, y, **dict(valid, **{name: bad}))

    @pytest.mark.parametrize("family", list(VALID))
    def test_bad_config_raises_invalid_input(self, family):
        A, y = random_instance(np.random.default_rng(5), 3, 7)
        solve = getattr(lps.solvers, "solve_" + family)
        for cfg in (SolverConfig(kkt_tol=0.0), SolverConfig(kkt_tol=np.nan),
                    SolverConfig(max_iter=0), SolverConfig(max_iter=2.5)):
            with pytest.raises(InvalidInputError):
                solve(A, y, cfg=cfg, **self.VALID[family])
        # an infinite tolerance would pass every residual at iteration 0, and
        # a bool is no iteration budget
        for field, cfg in (("kkt_tol", SolverConfig(kkt_tol=np.inf)),
                           ("max_iter", SolverConfig(max_iter=True))):
            with pytest.raises(InvalidInputError, match=field):
                solve(A, y, cfg=cfg, **self.VALID[family])


class TestOneKktDefinition:
    """A solver's SolveResult.kkt_residual is kkt_residual(inst, result), bit for bit."""

    @staticmethod
    def _assert_same(family, A, y, p, params, results):
        converged = 0
        for k, res in enumerate(results):
            if isinstance(res, Exception) or not res.converged:
                continue
            converged += 1
            own = {name: v[k] if isinstance(v, np.ndarray) else v for name, v in params.items()}
            inst = ProblemInstance(A[k], y[k], family, p=p, **own)
            assert kkt_residual(inst, res) == res.kkt_residual, (family, p, k)
        assert converged

    @pytest.mark.parametrize("family", ["bp", "bpdn_eps", "bpdn_eta", "rr", "en"])
    def test_p_gt_1_families(self, family):
        rng = np.random.default_rng(7)
        A, y = rng.normal(size=(64, 8, 20)), rng.normal(size=(64, 8))
        for p in (1.2, 1.5, 2.0, 3.0, 4.5):
            params = {"rr": {"lam": 0.1}, "en": {"r": 1.0, "lam1": 0.1, "lam2": 0.1}}.get(family, {})
            if family == "bpdn_eps":
                params = {"eps": 0.1 * np.linalg.norm(y, axis=1)}
            elif family == "bpdn_eta":
                params = {"eta": np.array([0.5 * pnorm.pnorm(r.x, p)
                                           for r in solve_stack("bp", A, y, p)])}
            self._assert_same(family, A, y, p, params, solve_stack(family, A, y, p, **params))

    def test_edge_rows(self):
        # en at x = 0 with r = 1, where ||A^T y||_q <= lam1 makes 0 optimal
        rng = np.random.default_rng(0)
        A, y = rng.normal(size=(8, 20)), 0.01 * rng.normal(size=8)
        res = solve_en(A, y, 1.5, 1.0, 10.0, 0.1)
        assert res.converged and not res.x.any()
        assert res.kkt_residual == 0.0
        self._assert_same("en", A[None], y[None], 1.5, {"r": 1.0, "lam1": 10.0, "lam2": 0.1}, [res])
        # bpdn_eps with eps >= ||y||_2 (x = 0), bpdn_eta reduced to bp (multiplier 0)
        A, y = random_instance(rng, 8, 20)
        res = solve_bpdn_eps(A, y, 1.5, 2.0 * np.linalg.norm(y))
        self._assert_same("bpdn_eps", A[None], y[None], 1.5, {"eps": 2.0 * np.linalg.norm(y)}, [res])
        eta = pnorm.pnorm(solve_bp(A, y, 3.0).x, 3.0)
        res = solve_bpdn_eta(A, y, 3.0, eta)
        assert res.reduced_to_bp
        self._assert_same("bpdn_eta", A[None], y[None], 3.0, {"eta": eta}, [res])

    @pytest.mark.parametrize("family,p_grid", [("bp_l1", (None,)), ("rr_irls", (0.3, 0.5, 0.8))])
    def test_comparison_solvers(self, family, p_grid):
        rng = np.random.default_rng(7)
        A = rng.normal(size=(12, 8, 20))
        x0 = np.zeros((12, 20))
        x0[:, :2] = rng.choice([-1.0, 1.0], size=(12, 2))
        y = np.einsum("kij,kj->ki", A, x0)
        for p in p_grid:
            params = {} if family == "bp_l1" else {"lam": 0.1}
            results = [solve_instance(ProblemInstance(A[k], y[k], family, p=p, **params))
                       for k in range(len(A))]
            self._assert_same(family, A, y, p, params, results)


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
