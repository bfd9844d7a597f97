"""Gaussian tail/density primitives against quadrature and calculus oracles."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from pacgibbs.errors import InvalidArgumentError
from pacgibbs.numerics import finite_diff_gradient, gauss_pdf, phi_tail
from pacgibbs.selftest import check_phi_derivative


def _npdf(t):
    return np.exp(-0.5 * t * t) / np.sqrt(2.0 * np.pi)


class TestPhiTail:
    def test_zero_is_half(self):
        assert phi_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("a", [0.3, 1.7, 4.2])
    def test_complement_pairs_sum_to_one(self, a):
        assert phi_tail(a) + phi_tail(-a) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("a", [-2.0, -0.5, 0.1, 1.0, 3.3])
    def test_matches_tail_quadrature(self, a):
        # independent oracle: adaptive quadrature of the defining integral
        oracle, err = quad(_npdf, a, np.inf)
        assert err < 1e-8
        assert phi_tail(a) == pytest.approx(oracle, abs=1e-9)

    def test_value_at_one(self):
        # frozen from the quadrature oracle above
        assert phi_tail(1.0) == pytest.approx(0.15865525393145707, abs=1e-12)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    def test_complement_identity_everywhere(self, a):
        assert abs(phi_tail(a) + phi_tail(-a) - 1.0) < 1e-12

    def test_monotone_non_increasing(self):
        grid = np.linspace(-8.0, 8.0, 4001)
        assert np.all(np.diff(phi_tail(grid)) <= 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidArgumentError):
            phi_tail(bad)

    def test_within_4_ulp_of_mpmath_erfc(self):
        # phi_tail scales by 1/sqrt(2) rather than dividing by sqrt(2); the oracle
        # takes the same scaled double, so only erfc's own rounding is measured.
        # Where the exact value is a normal double the error is at most 4 ulp;
        # below that it is at most 1e-323, two subnormal steps.
        rng = np.random.default_rng(3)
        grid = np.concatenate([np.linspace(-40.0, 40.0, 20001), 6.0 * rng.normal(size=5000)])
        got = phi_tail(grid)
        with mpmath.workdps(50):
            for a, value in zip(grid * (1.0 / np.sqrt(2.0)), got):
                exact = 0.5 * mpmath.erfc(mpmath.mpf(float(a)))
                nearest = float(exact)
                bound = 4 * np.spacing(nearest) if nearest >= np.finfo(float).tiny else 1e-323
                assert abs(mpmath.mpf(float(value)) - exact) <= bound, (a, value, exact)
        assert [phi_tail(float(a)) for a in grid[::97]] == [float(v) for v in got[::97]]


class TestGaussPdf:
    def test_peak_value(self):
        # frozen from a high-precision evaluation of 1/sqrt(2*pi)
        assert gauss_pdf(0.0) == pytest.approx(0.39894228040143268, abs=1e-15)

    def test_even_function(self):
        assert gauss_pdf(3.0) == gauss_pdf(-3.0)

    def test_tail_derivative_identity(self):
        # d/da phi_tail(a) = -gauss_pdf(a), by central differences on [-5, 5]
        assert check_phi_derivative().passed

    def test_nonnegative_and_normalized(self):
        grid = np.linspace(-10.0, 10.0, 1001)
        assert np.all(gauss_pdf(grid) >= 0.0)
        total, err = quad(gauss_pdf, -10.0, 10.0)
        assert total == pytest.approx(1.0, abs=1e-8)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            gauss_pdf(float("nan"))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [1e200, -1e200, np.finfo(float).max])
    def test_huge_argument_is_zero_without_overflow(self, a):
        assert gauss_pdf(a) == 0.0
        assert gauss_pdf(np.array([a, 0.0]))[0] == 0.0


class TestFiniteDiffGradient:
    def test_quadratic(self):
        f = lambda v: 0.5 * float(v @ v)
        x = np.array([1.0, -2.0])
        assert finite_diff_gradient(f, x, 1e-5) == pytest.approx([1.0, -2.0], abs=1e-9)

    def test_constant_field(self):
        grad = finite_diff_gradient(lambda v: 3.25, np.array([0.3, -4.0, 2.0]), 1e-5)
        assert grad == pytest.approx(np.zeros(3), abs=1e-12)

    def test_chain_rule_against_analytic(self):
        rng = np.random.default_rng(5)
        u = rng.normal(size=4)
        x = rng.normal(size=4)
        f = lambda v: phi_tail(float(u @ v))
        expected = -gauss_pdf(float(u @ x)) * u
        assert finite_diff_gradient(f, x, 1e-6) == pytest.approx(expected, abs=1e-6)

    def test_rejects_bad_eps(self):
        with pytest.raises(InvalidArgumentError):
            finite_diff_gradient(lambda v: 0.0, np.zeros(2), eps=0.0)
