"""Tilt exponents and rejection-sampler fidelity on enumerable hidden spaces."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import enumerate_gmm_tilt, tiny_gmm_pair
from pacgibbs.errors import InvalidArgumentError
from pacgibbs.features import assemble
from pacgibbs.numerics import phi_tail
from pacgibbs.sampler import TiltConfig, rejection_sample, tilt_exponents
from pacgibbs.selftest import component_pair, rate_error, tv_distance


def unit_feature(vec):
    """The unit-normalized feature of one draw, as a one-row stack."""
    vec = np.asarray(vec, float)
    return assemble(vec[None, : len(vec) // 2], vec[None, len(vec) // 2 : -1])[1]


def tilt_exponent(phi_bar, y, u, cfg):
    """The exponent of a one-row stack's only draw."""
    (exponent,) = tilt_exponents(phi_bar, y, u, cfg)
    return exponent


class TestTiltExponent:
    def test_untilted_accepts_always(self):
        cfg = TiltConfig(C=0.0, m=10, m_l=5, m_u=5)
        f = unit_feature([1.0, 2.0, 3.0])
        assert tilt_exponent(f, 1, np.zeros(f.shape[1]), cfg) == 0.0

    def test_labeled_zero_margin(self):
        cfg = TiltConfig(C=1.0, m=10, m_l=5, m_u=5)
        f = unit_feature([0.5, -0.5, 0.0])
        u = np.zeros(f.shape[1])
        assert tilt_exponent(f, 1, u, cfg) == pytest.approx(-0.5)

    def test_unlabeled_zero_margin(self):
        cfg = TiltConfig(C=2.0, m=10, m_l=5, m_u=5)
        f = unit_feature([0.5, -0.5, 0.0])
        u = np.zeros(f.shape[1])
        #半 the disagreement at margin 0 is 1/4, times C=2
        assert tilt_exponent(f, None, u, cfg) == pytest.approx(-0.5)

    def test_m_squared_scale_coefficients(self):
        cfg = TiltConfig(C=1.0, m=6, m_l=2, m_u=4, weight_scale="m_squared")
        f = unit_feature([1.0, 0.0, 0.0])
        u = np.random.default_rng(0).normal(size=f.shape[1])
        a = float(u @ f[0])
        assert tilt_exponent(f, 1, u, cfg) == pytest.approx(-(36 / 2) * phi_tail(a))
        assert tilt_exponent(f, None, u, cfg) == pytest.approx(
            -(36 / 4) * phi_tail(a) * phi_tail(-a)
        )

    @given(st.floats(-30, 30), st.floats(0.01, 10.0), st.sampled_from([1, -1, None]))
    @settings(max_examples=60)
    def test_never_positive(self, scale, C, y):
        cfg = TiltConfig(C=C, m=4, m_l=2, m_u=2)
        f = unit_feature([1.0, 1.0, 1.0, 1.0, 1.0])
        u = np.full(f.shape[1], scale)
        assert tilt_exponent(f, y, u, cfg) <= 0.0

    def test_monotone_suppression_in_c(self):
        f = unit_feature([0.4, 1.0, -0.3])
        u = np.random.default_rng(1).normal(size=f.shape[1])
        exps = [tilt_exponent(f, 1, u, TiltConfig(C=c, m=4, m_l=2, m_u=2)) for c in (0.5, 1.0, 2.0, 4.0)]
        assert all(b <= a for a, b in zip(exps, exps[1:]))

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            TiltConfig(C=-1.0, m=2, m_l=1, m_u=1)
        with pytest.raises(InvalidArgumentError):
            TiltConfig(C=1.0, m=2, m_l=1, m_u=1, n_draws=0)
        with pytest.raises(InvalidArgumentError):
            TiltConfig(C=1.0, m=2, m_l=1, m_u=1, n_draws=5, max_attempts=3)
        with pytest.raises(InvalidArgumentError):
            TiltConfig(C=1.0, m=2, m_l=1, m_u=1, weight_scale="bogus")


class TestRejectionSampler:
    def test_untilted_matches_product_posterior(self):
        bp, bm = tiny_gmm_pair()
        x = np.array([0.8])
        cfg = TiltConfig(C=0.0, m=2, m_l=1, m_u=1, n_draws=40_000, max_attempts=40_000)
        rng = np.random.default_rng(3)
        out = rejection_sample(x, 1, bp, bm, np.zeros(2 * bp.block_dim() + 1), cfg, rng)
        assert out.acceptance_rate == 1.0
        assert not out.degraded
        a_p, a_m = bp.approx_posterior(x), bm.approx_posterior(x)
        freq = np.zeros((2, 2))
        np.add.at(freq, (np.argmax(out.h_plus, axis=1), np.argmax(out.h_minus, axis=1)), 1)
        freq /= freq.sum()
        target = np.outer(a_p, a_m)
        assert np.abs(freq - target).max() < 0.01

    def test_tilted_matches_enumeration(self):
        bp, bm = tiny_gmm_pair()
        x = np.array([0.5])
        rng = np.random.default_rng(4)
        u = rng.normal(size=2 * bp.block_dim() + 1) * 1.5
        cfg = TiltConfig(C=2.5, m=4, m_l=2, m_u=2, n_draws=20_000, max_attempts=2_000_000)
        probs, z_norm = enumerate_gmm_tilt(x, 1, bp, bm, u, cfg)
        out = rejection_sample(x, 1, bp, bm, u, cfg, rng)
        keys = [component_pair(hp, hm) for hp, hm in zip(out.h_plus, out.h_minus)]
        assert tv_distance(probs, keys) < 0.03

    def test_acceptance_rate_estimates_normalizer(self):
        bp, bm = tiny_gmm_pair()
        x = np.array([-0.2])
        rng = np.random.default_rng(5)
        u = rng.normal(size=2 * bp.block_dim() + 1)
        cfg = TiltConfig(C=1.5, m=4, m_l=2, m_u=2, n_draws=20_000, max_attempts=2_000_000)
        _, z_norm = enumerate_gmm_tilt(x, -1, bp, bm, u, cfg)
        out = rejection_sample(x, -1, bp, bm, u, cfg, rng)
        assert rate_error(out, z_norm) < 3.0

    def test_exponents_recorded_nonpositive(self):
        bp, bm = tiny_gmm_pair()
        cfg = TiltConfig(C=1.0, m=2, m_l=1, m_u=1, n_draws=50, max_attempts=10_000)
        rng = np.random.default_rng(6)
        out = rejection_sample(np.array([0.1]), 1, bp, bm, np.ones(2 * bp.block_dim() + 1), cfg, rng)
        assert out.exponents.shape == (50,)
        assert np.all(out.exponents <= 0)
        assert out.phi_bar.shape == (50, 2 * bp.block_dim() + 1)
        assert out.h_plus.shape == out.h_minus.shape == (50, 2)

    def test_underflowing_tilt_triggers_fallback(self):
        bp, bm = tiny_gmm_pair()
        cfg = TiltConfig(C=5000.0, m=2, m_l=1, m_u=1, n_draws=5, max_attempts=100)
        rng = np.random.default_rng(7)
        out = rejection_sample(np.array([0.3]), 1, bp, bm, np.zeros(2 * bp.block_dim() + 1), cfg, rng)
        assert out.degraded
        assert out.acceptance_rate == 0.0
        assert out.attempts == 100
        assert len(out.exponents) == len(out.phi_bar) == 5
        # kept draws carry the largest exponents seen
        assert np.all(out.exponents <= 0)
