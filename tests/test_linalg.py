import numpy as np
import pytest

from lps import linalg
from lps.errors import InvalidInputError, RankDeficientError


class TestLeastNorm:
    def test_identity(self):
        np.testing.assert_allclose(linalg.least_norm_solution(np.eye(2), [3.0, 4.0]), [3, 4])

    def test_symmetric_split(self):
        np.testing.assert_allclose(linalg.least_norm_solution([[1.0, 1.0]], [2.0]), [1, 1])

    def test_closed_form(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        x = linalg.least_norm_solution(A, [1.0, 1.0])
        np.testing.assert_allclose(x, [1 / 3, 1 / 3, 2 / 3], atol=1e-12)
        np.testing.assert_allclose(A @ x, [1.0, 1.0], atol=1e-12)

    def test_orthogonal_to_null_space(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            m, n = 3, 8
            A = rng.normal(size=(m, n))
            y = rng.normal(size=m)
            x = linalg.least_norm_solution(A, y)
            # random null-space vector via projection of noise
            w = rng.normal(size=n)
            w = w - A.T @ np.linalg.solve(A @ A.T, A @ w)
            assert abs(x @ w) <= 1e-9 * np.linalg.norm(x) * max(np.linalg.norm(w), 1e-300)

    def test_rank_deficient_raises(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(RankDeficientError):
            linalg.least_norm_solution(A, [1.0, 1.0])


class TestAffineProject:
    def test_fixed_point_when_feasible(self):
        A = np.array([[1.0, 2.0, 0.0]])
        x = np.array([1.0, 2.0, 5.0])
        y = A @ x
        np.testing.assert_allclose(linalg.affine_project(A, y, x), x, atol=1e-12)

    def test_projection_onto_line(self):
        np.testing.assert_allclose(
            linalg.affine_project([[1.0, 1.0]], [2.0], [0.0, 0.0]), [1.0, 1.0]
        )

    def test_only_constrained_coordinate_moves(self):
        np.testing.assert_allclose(
            linalg.affine_project([[1.0, 0.0]], [1.0], [0.0, 5.0]), [1.0, 5.0]
        )

    def test_idempotent(self):
        rng = np.random.default_rng(2)
        for _ in range(30):
            A = rng.normal(size=(2, 6))
            y = rng.normal(size=2)
            x = rng.normal(size=6)
            p1 = linalg.affine_project(A, y, x)
            p2 = linalg.affine_project(A, y, p1)
            assert np.abs(p2 - p1).max() <= 1e-10 * (1 + np.abs(p1).max())


class TestIsInvertible:
    def test_identity(self):
        assert linalg.is_invertible(np.eye(2), 1e-10)

    def test_rank_one(self):
        assert not linalg.is_invertible([[1.0, 1.0], [1.0, 1.0]], 1e-10)

    def test_tiny_pivot(self):
        assert not linalg.is_invertible([[1.0, 0.0], [0.0, 1e-14]], 1e-10)

    def test_zero_matrix(self):
        assert not linalg.is_invertible(np.zeros((2, 2)), 1e-10)

    def test_rejects_nonsquare(self):
        with pytest.raises(InvalidInputError):
            linalg.is_invertible(np.ones((2, 3)), 1e-10)
