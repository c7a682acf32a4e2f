import numpy as np
import pytest

from lps import ensembles, pnorm
from lps.ensembles import EnsembleSpec
from lps.errors import CapacityError, InvalidInputError
from lps.solvers import solve_bp


class TestGaussianInstance:
    def test_deterministic(self):
        spec = EnsembleSpec(m=2, N=3, seed=42)
        A1, y1 = ensembles.gen_gaussian_instance(spec)
        A2, y2 = ensembles.gen_gaussian_instance(spec)
        assert np.array_equal(A1, A2)
        assert np.array_equal(y1, y2)

    def test_seed_changes_output(self):
        A1, _ = ensembles.gen_gaussian_instance(EnsembleSpec(m=2, N=3, seed=42))
        A2, _ = ensembles.gen_gaussian_instance(EnsembleSpec(m=2, N=3, seed=43))
        assert not np.array_equal(A1, A2)

    def test_moments(self):
        A, y = ensembles.gen_gaussian_instance(EnsembleSpec(m=100, N=100, seed=7))
        samples = np.concatenate([A.ravel(), y])
        assert abs(samples.mean()) < 0.05
        assert 0.9 < samples.var() < 1.1

    def test_invalid_spec(self):
        with pytest.raises(InvalidInputError):
            EnsembleSpec(m=0, N=3, seed=1)
        with pytest.raises(InvalidInputError):
            EnsembleSpec(m=2, N=3, seed=1, sparsity=4)


class TestSparseMeasured:
    def test_full_sparsity_boundary(self):
        spec = EnsembleSpec(m=3, N=4, seed=5, sparsity=4)
        A, y, x0, support = ensembles.gen_sparse_measured(spec)
        assert np.all(x0 != 0)
        assert np.array_equal(support, np.arange(4))
        assert np.array_equal(y, A @ x0)

    def test_exact_measurement(self):
        spec = EnsembleSpec(m=4, N=10, seed=11, sparsity=3)
        A, y, x0, support = ensembles.gen_sparse_measured(spec)
        assert np.abs(y - A @ x0).max() == 0.0
        assert np.array_equal(np.flatnonzero(x0), support)
        assert set(np.abs(x0[support])) == {1.0}

    def test_one_sparse_measurement_is_signed_column(self):
        spec = EnsembleSpec(m=2, N=6, seed=3, sparsity=1)
        A, y, x0, support = ensembles.gen_sparse_measured(spec)
        j = support[0]
        assert x0[j] in (-1.0, 1.0)
        assert np.array_equal(y, x0[j] * A[:, j])

    def test_gaussian_magnitudes(self):
        spec = EnsembleSpec(m=4, N=10, seed=11, sparsity=3, signal_values="gaussian")
        _, _, x0, support = ensembles.gen_sparse_measured(spec)
        assert not set(np.abs(x0[support])) <= {1.0}

    def test_requires_sparsity(self):
        with pytest.raises(InvalidInputError):
            ensembles.gen_sparse_measured(EnsembleSpec(m=2, N=3, seed=1))


class TestSetS:
    def test_hand_example(self):
        # all three 2x2 minors have determinant +-1
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert ensembles.is_in_set_S(A, [1.0, 1.0], 1e-10)

    def test_zero_column_fails(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]])
        assert not ensembles.is_in_set_S(A, [1.0, 1.0], 1e-10)

    def test_zero_rhs_fails(self):
        A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert not ensembles.is_in_set_S(A, [0.0, 0.0], 1e-10)

    def test_gaussian_is_generic(self):
        rng = ensembles.rng_for(3)
        A = rng.standard_normal((3, 7))
        y = rng.standard_normal(3)
        assert ensembles.is_in_set_S(A, y, 1e-12)

    def test_capacity_error(self):
        A = np.zeros((2, 30))
        with pytest.raises(CapacityError):
            ensembles.is_in_set_S(A, np.ones(2), 1e-10)


class TestRip:
    def test_identity(self):
        assert ensembles.rip_constant(np.eye(4), 2) == pytest.approx(0.0, abs=1e-12)

    def test_diagonal(self):
        assert ensembles.rip_constant(np.diag([1.0, 2.0]), 1) == pytest.approx(3.0)

    def test_rotation(self):
        th = 0.7
        A = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
        assert ensembles.rip_constant(A, 2) == pytest.approx(0.0, abs=1e-12)

    def test_monotone_in_k(self):
        rng = ensembles.rng_for(9)
        A = rng.standard_normal((4, 7)) / 2.0
        deltas = [ensembles.rip_constant(A, k) for k in range(1, 6)]
        assert all(b >= a - 1e-12 for a, b in zip(deltas, deltas[1:]))

    def test_capacity_error(self):
        A = np.zeros((4, 40))
        with pytest.raises(CapacityError):
            ensembles.rip_constant(A, 5)

    def test_matches_direct_eig(self):
        rng = ensembles.rng_for(10)
        A = rng.standard_normal((3, 6)) / np.sqrt(3)
        k = 2
        import itertools
        ref = 0.0
        for cols in itertools.combinations(range(6), k):
            G = A[:, cols].T @ A[:, cols]
            w = np.linalg.eigvalsh(G)
            ref = max(ref, w[-1] - 1.0, 1.0 - w[0])
        assert ensembles.rip_constant(A, k) == pytest.approx(ref, abs=1e-12)


class TestMinPnorm:
    """min {||x||_p : A x = y}, the p-norm of the basis-pursuit solution."""

    @staticmethod
    def min_pnorm_over_affine(A, y, p):
        return pnorm.pnorm(solve_bp(A, y, p).x, p)

    def test_symmetric_line(self):
        assert self.min_pnorm_over_affine([[1.0, 1.0]], [2.0], 2) == pytest.approx(
            np.sqrt(2.0)
        )

    def test_identity(self):
        assert self.min_pnorm_over_affine(np.eye(2), [3.0, 4.0], 2) == pytest.approx(5.0)

    def test_matches_bp_example(self):
        t = 5.0 / (1.0 + 2.0 * np.sqrt(2.0))
        expected = (t ** 3 + 2.0 * np.sqrt(2.0) * t ** 3) ** (1.0 / 3.0)
        got = self.min_pnorm_over_affine([[1.0, 2.0]], [5.0], 3)
        assert got == pytest.approx(expected, rel=1e-8)


def test_rng_for_independent_of_order():
    a = ensembles.rng_for(1, 2, 3).standard_normal(4)
    b = ensembles.rng_for(1, 2, 4).standard_normal(4)
    a2 = ensembles.rng_for(1, 2, 3).standard_normal(4)
    assert np.array_equal(a, a2)
    assert not np.array_equal(a, b)


def test_derive_seed_stable():
    s1 = ensembles.derive_seed(7, 0, 1)
    s2 = ensembles.derive_seed(7, 0, 1)
    s3 = ensembles.derive_seed(7, 0, 2)
    assert s1 == s2 != s3
    assert 0 <= s1 < 2 ** 64


class TestSeedPort:
    """derive_seeds, philox_keys and rekey against the public seed rule
    (derive_seed and rng_for, both through numpy's SeedSequence)."""

    MASTERS = [0, 21, 2 ** 32 - 1, 2 ** 32, 2 ** 63 + 12345, 2 ** 64 - 1]
    SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]  # one and two 32-bit words
    TRIALS = 131

    @pytest.mark.parametrize("p_index", [0, 4])
    @pytest.mark.parametrize("master", MASTERS)
    def test_derive_seeds(self, master, p_index):
        ref = [ensembles.derive_seed(master, p_index, t) for t in range(self.TRIALS)]
        assert ensembles.derive_seeds(master, p_index, np.arange(self.TRIALS)).tolist() == ref
        chunks = [ensembles.derive_seeds(master, p_index, np.arange(lo, min(lo + 64, self.TRIALS)))
                  for lo in range(0, self.TRIALS, 64)]  # the harness's chunks
        assert np.concatenate(chunks).tolist() == ref

    def test_philox_keys(self):
        # one call over one- and two-word seeds: each layout is hashed as its own group
        seeds = self.SEEDS + ensembles.derive_seeds(2 ** 63 + 12345, 4, np.arange(64)).tolist()
        keys = ensembles.philox_keys(seeds)
        assert keys.shape == (len(seeds), 2) and keys.dtype == np.uint64
        for s, key in zip(seeds, keys):
            assert np.array_equal(key, np.random.SeedSequence([s]).generate_state(2, np.uint64)), s
            assert np.array_equal(key, ensembles.rng_for(s).bit_generator.state["state"]["key"]), s

    @pytest.mark.parametrize("sparsity,signal_values", [(None, "pm_one"), (3, "pm_one"),
                                                        (3, "gaussian")])
    def test_rekeyed_draws_match_rng_for(self, sparsity, signal_values):
        # one generator re-keyed per seed, after draws that leave Philox's
        # buffers part used, gives rng_for(seed)'s A, y, support, signs and magnitudes
        seeds = self.SEEDS + ensembles.derive_seeds(21, 0, np.arange(60, 70)).tolist()
        rng = np.random.Generator(np.random.Philox(key=[0, 0]))
        for s, key in zip(seeds, ensembles.philox_keys(seeds)):
            got = ensembles.draw_instance(ensembles.rekey(rng, key), 4, 9, sparsity, signal_values)
            spec = EnsembleSpec(m=4, N=9, seed=s, sparsity=sparsity, signal_values=signal_values)
            ref = (ensembles.gen_gaussian_instance(spec) + (None, None) if sparsity is None
                   else ensembles.gen_sparse_measured(spec))
            for a, b in zip(got, ref):
                assert (a is None and b is None) or np.array_equal(a, b), s
            rng.integers(0, 2, size=3)  # a half-used 32-bit buffer the next rekey must clear
