import warnings

import numpy as np
import pytest

from lps import pnorm
from lps.errors import (
    InvalidInputError,
    UndefinedDerivativeError,
    UnsupportedExponentError,
)


class TestPnormPow:
    def test_zero_vector(self):
        assert pnorm.pnorm_pow([0.0, 0.0, 0.0], 1.5) == 0.0

    def test_unit_entries(self):
        assert pnorm.pnorm_pow([1.0, -1.0], 3) == pytest.approx(2.0)

    def test_square(self):
        assert pnorm.pnorm_pow([2.0, 0.0], 2) == pytest.approx(4.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidInputError):
            pnorm.pnorm_pow([1.0, np.nan], 2)
        with pytest.raises(InvalidInputError):
            pnorm.pnorm_pow([np.inf, 0.0], 2)

    def test_rejects_bad_exponent(self):
        with pytest.raises(UnsupportedExponentError):
            pnorm.pnorm_pow([1.0], 0.0)
        with pytest.raises(UnsupportedExponentError):
            pnorm.pnorm_pow([1.0], -1.0)


class TestGH:
    def test_g_at_zero(self):
        assert pnorm.g_scalar(0.0, 3) == 0.0

    def test_g_value(self):
        assert pnorm.g_scalar(2.0, 3) == pytest.approx(12.0)

    def test_g_odd(self):
        assert pnorm.g_scalar(-2.0, 3) == pytest.approx(-12.0)

    def test_h_at_zero(self):
        assert pnorm.h_scalar(0.0, 1.5) == 0.0

    def test_h_inverts_g_example(self):
        assert pnorm.h_scalar(12.0, 3) == pytest.approx(2.0)

    def test_h_g_roundtrip_point(self):
        z = 0.37
        assert pnorm.h_scalar(pnorm.g_scalar(z, 1.7), 1.7) == pytest.approx(z, abs=1e-12)

    def test_roundtrip_random(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            z = rng.normal() * 10.0 ** rng.integers(-3, 4)
            p = 1.0 + 5.0 * rng.random()
            back = pnorm.h_scalar(pnorm.g_scalar(z, p), p)
            assert back == pytest.approx(z, rel=1e-10, abs=1e-300)
            fwd = pnorm.g_scalar(pnorm.h_scalar(z, p), p)
            assert fwd == pytest.approx(z, rel=1e-10, abs=1e-300)

    def test_g_strictly_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            p = 1.0 + 4.0 * rng.random()
            z1, z2 = sorted(rng.normal(size=2) * 3.0)
            if z1 == z2:
                continue
            assert pnorm.g_scalar(z1, p) < pnorm.g_scalar(z2, p)

    def test_rejects_p_le_1(self):
        with pytest.raises(UnsupportedExponentError):
            pnorm.g_scalar(1.0, 1.0)
        with pytest.raises(UnsupportedExponentError):
            pnorm.h_scalar(1.0, 0.5)


class TestDerivatives:
    def test_g_prime_constant_for_p2(self):
        for z in (-3.0, 0.0, 1.7):
            assert pnorm.g_prime(z, 2) == pytest.approx(2.0)

    def test_g_prime_value(self):
        assert pnorm.g_prime(2.0, 3) == pytest.approx(12.0)

    def test_g_prime_zero_for_p_gt2(self):
        assert pnorm.g_prime(0.0, 3) == 0.0

    def test_g_prime_rejects_zero_below_p2(self):
        with pytest.raises(UndefinedDerivativeError):
            pnorm.g_prime(0.0, 1.5)

    def test_g_prime_matches_fd(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            p = 2.0 + 3.0 * rng.random()
            z = rng.normal() * 4.0
            if abs(z) < 1e-3:
                continue
            step = 1e-6 * max(1.0, abs(z))
            fd = (pnorm.g_scalar(z + step, p) - pnorm.g_scalar(z - step, p)) / (2 * step)
            assert pnorm.g_prime(z, p) == pytest.approx(fd, rel=1e-5)

    def test_h_prime_constant_for_p2(self):
        assert pnorm.h_prime(123.0, 2) == pytest.approx(0.5)
        assert pnorm.h_prime(-1.0, 2) == pytest.approx(0.5)

    def test_h_prime_zero_at_zero(self):
        assert pnorm.h_prime(0.0, 1.5) == 0.0

    def test_h_prime_value_and_fd(self):
        # direct evaluation 1/(0.5 * 1.5^2) = 8/9, cross-checked by a
        # centered difference of h at z=1 with step 1e-6
        val = pnorm.h_prime(1.0, 1.5)
        assert val == pytest.approx(8.0 / 9.0, rel=1e-12)
        step = 1e-6
        fd = (pnorm.h_scalar(1 + step, 1.5) - pnorm.h_scalar(1 - step, 1.5)) / (2 * step)
        assert val == pytest.approx(fd, rel=1e-5)

    def test_h_prime_rejects_out_of_range(self):
        with pytest.raises(UnsupportedExponentError):
            pnorm.h_prime(1.0, 3.0)
        with pytest.raises(UnsupportedExponentError):
            pnorm.h_prime(1.0, 1.0)


class TestScalarPath:
    """Python-float input takes a pure-float path that must match the array path."""

    MAPS = (pnorm.g_scalar, pnorm.h_scalar, pnorm.g_prime, pnorm.h_prime)

    def test_matches_array_path(self):
        rng = np.random.default_rng(11)
        ps = np.concatenate([1.0 + 5.0 * rng.random(3000), [1.001, 2.0, 2.0, 6.0]])
        zs = rng.normal(size=ps.size) * 10.0 ** rng.integers(-200, 200, size=ps.size)
        zs[:20] = 0.0
        checked = 0
        for fn in self.MAPS:
            for z, p in zip(zs, ps):
                try:
                    with np.errstate(over="ignore"):
                        ref = fn(np.array([z]), p)[0]
                except InvalidInputError as exc:
                    with pytest.raises(type(exc)):
                        fn(float(z), p)
                    continue
                with np.errstate(over="ignore"):
                    got = fn(float(z), p)
                assert type(got) is float
                if np.isinf(ref):
                    assert got == ref
                else:
                    assert abs(got - ref) <= 2 * np.spacing(abs(ref)), (fn.__name__, z, p)
                checked += 1
        assert checked > 8000

    def test_int_and_numpy_scalars(self):
        assert pnorm.g_scalar(2, 3) == pnorm.g_scalar(np.float64(2.0), 3) == 12.0
        assert pnorm.h_scalar(np.array(12.0), 3) == pnorm.h_scalar(12, 3)
        assert type(pnorm.h_prime(1, 1.5)) is float

    @pytest.mark.parametrize("fn", MAPS)
    def test_rejects_nonfinite(self, fn):
        for z in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(InvalidInputError):
                fn(z, 1.5)

    def test_rejects_exponents_and_undefined_points(self):
        with pytest.raises(UnsupportedExponentError):
            pnorm.g_scalar(1.0, 1.0)
        with pytest.raises(UnsupportedExponentError):
            pnorm.h_scalar(1.0, float("nan"))
        with pytest.raises(UnsupportedExponentError):
            pnorm.h_prime(1.0, 3.0)
        with pytest.raises(UndefinedDerivativeError):
            pnorm.g_prime(0.0, 1.5)
        assert pnorm.g_prime(0.0, 3.0) == 0.0


class TestGrad:
    def test_zero(self):
        assert np.array_equal(pnorm.pnorm_grad([0.0, 0.0], 3), [0.0, 0.0])

    def test_p2_is_linear(self):
        np.testing.assert_allclose(pnorm.pnorm_grad([1.0, -1.0], 2), [2.0, -2.0])

    def test_componentwise_g(self):
        np.testing.assert_allclose(pnorm.pnorm_grad([2.0, 1.0], 3), [12.0, 3.0])

    def test_matches_fd(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = 1.1 + 4.0 * rng.random()
            x = rng.normal(size=4)
            x[np.abs(x) < 1e-2] = 0.5
            g = pnorm.pnorm_grad(x, p)
            for i in range(4):
                step = 1e-6 * max(1.0, abs(x[i]))
                e = np.zeros(4); e[i] = step
                fd = (pnorm.pnorm_pow(x + e, p) - pnorm.pnorm_pow(x - e, p)) / (2 * step)
                assert g[i] == pytest.approx(fd, rel=1e-5)


def test_strict_convexity_margin():
    rng = np.random.default_rng(13)
    for _ in range(300):
        p = 1.0 + 4.0 * rng.random()
        x = rng.normal(size=6)
        y = rng.normal(size=6)
        if np.allclose(x, y):
            continue
        lam = 0.05 + 0.9 * rng.random()
        lhs = pnorm.pnorm_pow(lam * x + (1 - lam) * y, p)
        rhs = lam * pnorm.pnorm_pow(x, p) + (1 - lam) * pnorm.pnorm_pow(y, p)
        assert rhs - lhs > 0.0


@pytest.mark.parametrize("p", [1.01, 1.5, 2.0, 3.0, 4.5])
def test_overflow_same_on_scalar_and_array_paths(p):
    # both paths saturate to inf without a warning, for |z| up to 1e300
    zs = [s * 10.0 ** k for k in range(-300, 301, 15) for s in (1.0, -1.0)]
    fns = [pnorm.g_scalar, pnorm.h_scalar, pnorm.g_prime] + ([pnorm.h_prime] if p <= 2.0 else [])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in fns:
            array = fn(np.array(zs), p)
            for z, b in zip(zs, array):
                assert fn(z, p) == b, (fn.__name__, z)
        assert list(pnorm.pnorm_grad(np.array(zs), p)) == [pnorm.g_scalar(z, p) for z in zs]
