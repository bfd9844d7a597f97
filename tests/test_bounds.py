"""Risks, bounds, and gradients against quadrature / Monte Carlo / FD / per-example loop oracles."""

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from pacgibbs.bounds import (
    Surrogate,
    bound_semisupervised,
    bound_supervised,
    empirical_risks,
    grad_C,
    grad_u,
    kl_weights,
    stack_features,
    surrogate_objective,
)
from conftest import one_draw_risks
from pacgibbs.errors import ContractViolationError, InvalidArgumentError
from pacgibbs.numerics import gauss_pdf, phi_tail
from pacgibbs.selftest import grad_c_error, grad_u_error


def unit_rows(rng, shape):
    m = rng.normal(size=shape)
    return m / np.linalg.norm(m, axis=-1, keepdims=True)


def raw_instance(rng, dim=6, n=3, m_l=4, m_u=3):
    """Unit feature rows of m_l labeled then m_u unlabeled examples, and m_l labels."""
    feats = unit_rows(rng, (m_l + m_u, n, dim))
    labels = [int(rng.choice([-1, 1])) for _ in range(m_l)]
    return feats, labels


def random_instance(rng, **shape):
    feats, labels = raw_instance(rng, **shape)
    m_l = len(labels)
    return stack_features(feats[:m_l], labels), stack_features(feats[m_l:])


# Reference oracle: the per-example loops that the batched functions
# replaced, over (feature matrix, label) pairs and unlabeled matrices.


def loop_surrogate_objective(labeled, unlabeled, u, u0, C, m, m_l, m_u, n):
    value = kl_weights(u, u0) / m
    lab = 0.0
    for feats, y in labeled:
        lab += phi_tail(y * (feats @ u)).mean()
    value += C * lab / m_l
    if m_u > 0:
        unl = 0.0
        for feats in unlabeled:
            a = feats @ u
            unl += (phi_tail(a) * phi_tail(-a)).mean()
        value += C * unl / m_u
    return float(value)


def loop_grad_u(labeled, unlabeled, u, u0, C, m, m_l, m_u, n):
    grad = (u - u0) / m
    lab = np.zeros_like(grad)
    for feats, y in labeled:
        a = feats @ u
        lab += (gauss_pdf(y * a) * y) @ feats / feats.shape[0]
    grad -= C * lab / m_l
    if m_u > 0:
        unl = np.zeros_like(grad)
        for feats in unlabeled:
            a = feats @ u
            unl += (gauss_pdf(a) * (phi_tail(a) - phi_tail(-a))) @ feats / feats.shape[0]
        grad += C * unl / m_u
    return grad


def loop_empirical_risks(labeled, unlabeled, u):
    e_terms = []
    r_terms = []
    for feats, y in labeled:
        p = phi_tail(y * (feats @ u))
        r_terms.append(p.mean())
        e_terms.append((p * p).mean())
    d_terms = []
    for feats in unlabeled:
        a = feats @ u
        p, q = phi_tail(a), phi_tail(-a)
        d_terms.append((2.0 * p * q).mean())
    return (
        float(np.mean(e_terms)),
        float(np.mean(d_terms)) if d_terms else 0.0,
        float(np.mean(r_terms)),
    )


class TestExpectedError:
    """The closed-form Gibbs error: R_S of one example with one hidden draw."""

    def test_zero_margin(self):
        u = np.zeros(3)
        phi_bar = np.array([1.0, 0.0, 0.0])
        assert one_draw_risks(u, phi_bar, 1).R_S == pytest.approx(0.5)

    def test_confident_correct_goes_to_zero(self):
        u = np.array([50.0, 0.0])
        assert one_draw_risks(u, np.array([1.0, 0.0]), 1).R_S < 1e-12

    def test_unit_margin_quadrature(self):
        oracle, _ = quad(lambda t: np.exp(-0.5 * t * t) / np.sqrt(2 * np.pi), 1.0, np.inf)
        val = one_draw_risks(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 1).R_S
        assert val == pytest.approx(oracle, abs=1e-9)
        assert val == pytest.approx(0.15865525393145707, abs=1e-12)

    def test_monte_carlo_definition(self):
        # oracle: the defining expectation over w ~ N(u, I)
        rng = np.random.default_rng(0)
        u = rng.normal(size=4)
        phi_bar = unit_rows(rng, (1, 4))[0]
        w = rng.normal(size=(200_000, 4)) + u
        mc = np.mean(np.sign(w @ phi_bar) != 1.0)
        assert one_draw_risks(u, phi_bar, 1).R_S == pytest.approx(mc, abs=0.005)


class TestExpectedDisagreement:
    """The closed-form disagreement: d_S of one example with one hidden draw."""

    def test_zero_margin_is_half(self):
        assert one_draw_risks(np.zeros(2), np.array([0.0, 1.0])).d_S == pytest.approx(0.5)

    def test_symmetric_in_margin_sign(self):
        phi_bar = np.array([1.0, 0.0])
        a = one_draw_risks(np.array([1.3, 0.0]), phi_bar).d_S
        b = one_draw_risks(np.array([-1.3, 0.0]), phi_bar).d_S
        assert a == pytest.approx(b, abs=1e-15)

    def test_monte_carlo_pairs(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=3) * 0.7
        phi_bar = unit_rows(rng, (1, 3))[0]
        w1 = rng.normal(size=(100_000, 3)) + u
        w2 = rng.normal(size=(100_000, 3)) + u
        mc = np.mean(np.sign(w1 @ phi_bar) != np.sign(w2 @ phi_bar))
        assert one_draw_risks(u, phi_bar).d_S == pytest.approx(mc, abs=0.005)


class TestKlWeights:
    def test_zero_at_equal_means(self):
        u = np.array([1.0, -2.0])
        assert kl_weights(u, u) == 0.0

    def test_three_four_five(self):
        assert kl_weights(np.array([3.0, 4.0]), np.zeros(2)) == pytest.approx(12.5)

    def test_monte_carlo_log_ratio(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=5)
        u0 = rng.normal(size=5)
        z = rng.normal(size=(400_000, 5)) + u
        log_ratio = -0.5 * ((z - u) ** 2).sum(axis=1) + 0.5 * ((z - u0) ** 2).sum(axis=1)
        assert kl_weights(u, u0) == pytest.approx(log_ratio.mean(), abs=0.02)

    def test_dim_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            kl_weights(np.zeros(2), np.zeros(3))


class TestEmpiricalRisks:
    def test_all_zero_margins(self):
        feats = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        labeled = stack_features(feats, [1, -1])
        r = empirical_risks(labeled, stack_features(feats), np.zeros(2))
        assert r.R_S == pytest.approx(0.5)
        assert r.d_S == pytest.approx(0.5)

    def test_confident_correct(self):
        u = np.array([60.0, 0.0])
        labeled = stack_features([[[1.0, 0.0]], [[-1.0, 0.0]]], [1, -1])
        r = empirical_risks(labeled, stack_features([], shape=(1, 2)), u)
        assert r.e_S < 1e-12 and r.R_S < 1e-12
        assert r.d_S == 0.0

    def test_hand_margins_cancel(self):
        u = np.array([1.0, 0.0])
        labeled = stack_features([[[1.0, 0.0]], [[1.0, 0.0]]], [1, -1])
        r = empirical_risks(labeled, stack_features([], shape=(1, 2)), u)
        assert r.R_S == pytest.approx(0.5, abs=1e-12)  # (phi(1)+phi(-1))/2

    def test_decomposition_identity_same_set(self):
        rng = np.random.default_rng(3)
        feats, labels = raw_instance(rng)
        u = rng.normal(size=6)
        labeled, same_rows = stack_features(feats[:4], labels), stack_features(feats[:4])
        r = empirical_risks(labeled, same_rows, u)
        assert r.e_S + 0.5 * r.d_S == pytest.approx(r.R_S, abs=1e-10)

    def test_empty_labeled_rejected(self):
        empty = stack_features([], shape=(1, 2))
        with pytest.raises(InvalidArgumentError):
            empirical_risks(empty, empty, np.zeros(2))


class TestSurrogateObjective:
    def test_zero_margin_terms(self):
        feats = np.array([[[1.0, 0.0]]])
        labeled = stack_features([feats[0], feats[0]], [1, -1])
        unlabeled = stack_features([feats[0], feats[0]])
        C = 1.6
        u = np.zeros(2)
        val = surrogate_objective(labeled, unlabeled, u, u, C, 4, 2, 2, 1)
        assert val == pytest.approx(C / 2 + C / 4, abs=1e-12)

    def test_c_zero_leaves_quadratic(self):
        rng = np.random.default_rng(4)
        labeled, unlabeled = random_instance(rng)
        u, u0 = rng.normal(size=6), rng.normal(size=6)
        val = surrogate_objective(labeled, unlabeled, u, u0, 0.0, 7, 4, 3, 3)
        assert val == pytest.approx(kl_weights(u, u0) / 7, abs=1e-15)

    def test_double_entry_reimplementation(self):
        # oracle: direct nested-loop transcription with stdlib erfc
        rng = np.random.default_rng(5)
        feats, labels = raw_instance(rng)
        u, u0 = rng.normal(size=6), rng.normal(size=6)
        C, m, m_l, m_u, n = 1.3, 7, 4, 3, 3

        def tail(a):
            return 0.5 * math.erfc(a / math.sqrt(2.0))

        oracle = sum((ui - vi) ** 2 for ui, vi in zip(u, u0)) / (2 * m)
        for rows, y in zip(feats[:m_l], labels):
            for j in range(n):
                oracle += C / (m_l * n) * tail(y * float(rows[j] @ u))
        for rows in feats[m_l:]:
            for j in range(n):
                a = float(rows[j] @ u)
                oracle += C / (m_u * n) * tail(a) * tail(-a)
        labeled, unlabeled = stack_features(feats[:m_l], labels), stack_features(feats[m_l:])
        val = surrogate_objective(labeled, unlabeled, u, u0, C, m, m_l, m_u, n)
        assert val == pytest.approx(oracle, abs=1e-12)

    def test_count_validation(self):
        rng = np.random.default_rng(6)
        labeled, unlabeled = random_instance(rng)
        with pytest.raises(InvalidArgumentError):
            surrogate_objective(labeled, unlabeled, np.zeros(6), np.zeros(6), 1.0, 9, 4, 3, 3)


class TestGradU:
    def test_c_zero_is_prior_pull(self):
        rng = np.random.default_rng(7)
        labeled, unlabeled = random_instance(rng)
        u, u0 = rng.normal(size=6), rng.normal(size=6)
        g = grad_u(labeled, unlabeled, u, u0, 0.0, 7, 4, 3, 3)
        assert g == pytest.approx((u - u0) / 7, abs=1e-15)

    def test_zero_margin_unlabeled_term_vanishes(self):
        feats = np.array([[[1.0, 0.0]]])
        labeled = stack_features([[[0.0, 1.0]]], [1])
        unlabeled = stack_features(feats)
        u = np.array([0.0, 0.5])  # margin 0 on the unlabeled feature
        g_with = grad_u(labeled, unlabeled, u, u, 2.0, 2, 1, 1, 1)
        g_without = grad_u(labeled, unlabeled[:0], u, u, 2.0, 1, 1, 0, 1)
        assert g_with == pytest.approx(g_without * np.array([1.0, 1.0]), abs=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            labeled, unlabeled = random_instance(rng)
            u, u0 = rng.normal(size=6), rng.normal(size=6)
            C = float(rng.uniform(0.2, 2.5))
            assert grad_u_error(labeled, unlabeled, u, u0, C, 7, 4, 3, 3) < 1e-5


class TestStackFeatures:
    def test_labels_sign_the_rows(self):
        rng = np.random.default_rng(14)
        feats = unit_rows(rng, (3, 2, 4))
        batch = stack_features(feats, [1, -1, 1])
        assert batch.shape == (3, 2, 4)
        assert np.array_equal(batch[1], -feats[1]) and np.array_equal(batch[2], feats[2])

    def test_rejects_non_unit_row(self):
        feats = unit_rows(np.random.default_rng(15), (2, 3, 4))
        feats[1, 2] *= 1.01
        with pytest.raises(ContractViolationError):
            stack_features(feats, [1, -1])

    def test_rejects_nan_row(self):
        feats = unit_rows(np.random.default_rng(16), (2, 3, 4))
        feats[0, 1] = np.nan
        with pytest.raises(ContractViolationError):
            stack_features(feats)

    def test_rejects_bad_labels(self):
        feats = unit_rows(np.random.default_rng(17), (2, 1, 3))
        for labels in ([1, 0], [1], [1, -1, 1]):
            with pytest.raises(InvalidArgumentError):
                stack_features(feats, labels)

    def test_empty_set_needs_its_row_shape(self):
        assert stack_features([], shape=(5, 7)).shape == (0, 5, 7)
        with pytest.raises(InvalidArgumentError):
            stack_features([])

    def test_empty_unlabeled_batch_gives_zero_disagreement(self):
        labeled, unlabeled = random_instance(np.random.default_rng(18), m_u=0)
        assert unlabeled.shape == (0, 3, 6)
        r = empirical_risks(labeled, unlabeled, np.ones(6))
        assert r.d_S == 0.0


# The batched forms take every margin from one matrix-vector product and
# sum over all rows at once, so they differ from the loops in the last
# bits.  A margin moves by a few ulp of sum_i |u_i phi_i|, and in the far
# tail phi_tail's relative change is about |a| times that, so J and the
# risks are compared within a relative 1e-11, and each gradient entry
# within 1e-11 of the summed magnitudes of its terms (its sum can cancel).
LOOP_RTOL = 1e-11


def loop_grad_scale(labeled, unlabeled, u, u0, C, m, m_l, m_u, n):
    """Per entry, the sum of the magnitudes of the terms of ``loop_grad_u``."""
    scale = np.abs(u - u0) / m
    for feats, _ in labeled:
        scale += C * gauss_pdf(feats @ u) @ np.abs(feats) / (n * m_l)
    for feats in unlabeled:
        scale += C * gauss_pdf(feats @ u) @ np.abs(feats) / (n * m_u)
    return scale


def assert_close_to_loops(value, grad, pairs, rows_u, args):
    expected = loop_surrogate_objective(pairs, rows_u, *args)
    assert value == pytest.approx(expected, rel=LOOP_RTOL, abs=0.0)
    error = np.abs(grad - loop_grad_u(pairs, rows_u, *args))
    assert np.all(error <= LOOP_RTOL * loop_grad_scale(pairs, rows_u, *args))


class TestBatchedMatchesLoops:
    """The batched J, grad_u and risks agree with the per-example loops."""

    def test_bit_identical_on_random_instances(self):
        rng = np.random.default_rng(19)
        for trial in range(240):
            m_l = int(rng.integers(1, 60))
            m_u = 0 if trial % 3 == 0 else int(rng.integers(1, 30))
            n = 1 if trial % 5 == 0 else int(rng.integers(2, 9))
            dim = int(rng.integers(3, 121))
            feats, labels = raw_instance(rng, dim=dim, n=n, m_l=m_l, m_u=m_u)
            # at |u| >= 50 gauss_pdf underflows to zeros
            scale = (0.3, 3.0, 50.0, 100.0)[trial // 3 % 4]
            u = rng.normal(size=dim) * scale
            u0 = u.copy() if trial % 2 else rng.normal(size=dim)
            if trial % 7 == 0:  # zeros in u - u0
                u[:2], u0[:2] = -0.0, 0.0
            C = float(rng.uniform(0.1, 3.0))
            args = (u, u0, C, m_l + m_u, m_l, m_u, n)

            pairs = list(zip(feats[:m_l], labels))
            rows_u = list(feats[m_l:])
            labeled, unlabeled = stack_features(feats[:m_l], labels), stack_features(feats[m_l:])
            value = surrogate_objective(labeled, unlabeled, *args)
            assert_close_to_loops(value, grad_u(labeled, unlabeled, *args), pairs, rows_u, args)
            r = empirical_risks(labeled, unlabeled, u)
            expected = loop_empirical_risks(pairs, rows_u, u)
            assert (r.e_S, r.d_S, r.R_S) == pytest.approx(expected, rel=LOOP_RTOL, abs=0.0)

    @pytest.mark.parametrize("m_u", [0, 7])
    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_one_evaluation_gives_value_and_gradient_bits(self, n, m_u):
        """J and its gradient from one Surrogate call agree with the loop
        oracles, also with margins beyond +-38.5, where phi_tail is 0."""
        rng = np.random.default_rng(20 + n + m_u)
        saturated = 0
        for trial in range(12):
            m_l = int(rng.integers(1, 25))
            dim = int(rng.integers(3, 60))
            feats, labels = raw_instance(rng, dim=dim, n=n, m_l=m_l, m_u=m_u)
            u = rng.normal(size=dim) * (0.5, 5.0, 300.0)[trial % 3]
            u0 = u.copy() if trial % 2 else rng.normal(size=dim)
            C = float(rng.uniform(0.1, 3.0))
            args = (u, u0, C, m_l + m_u, m_l, m_u, n)
            saturated += int(np.count_nonzero(np.abs(feats @ u) > 38.5))

            pairs, rows_u = list(zip(feats[:m_l], labels)), list(feats[m_l:])
            labeled, unlabeled = stack_features(feats[:m_l], labels), stack_features(feats[m_l:])
            value, gradient = Surrogate(labeled, unlabeled)(u, u0, C)
            assert_close_to_loops(value, gradient(), pairs, rows_u, args)
        assert saturated > 0


class TestBounds:
    def test_zero_risk_zero_kl_full_confidence(self):
        assert bound_supervised(0.0, 0.0, 1.0, 1.0, 10) == pytest.approx(0.0, abs=1e-15)

    def test_large_c_limit(self):
        val = bound_supervised(0.3, 1.0, 60.0, 0.05, 50)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_formula_oracle_high_precision(self):
        # oracle: the same substitution evaluated at 50-digit precision
        with mpmath.workdps(50):
            C, R, kl, delta, m = map(mpmath.mpf, ("1", "0.2", "5", "0.05", "100"))
            expo = -C * R - (kl - mpmath.log(delta)) / m
            oracle = float((1 - mpmath.e**expo) / (1 - mpmath.e**-C))
        assert bound_supervised(0.2, 5.0, 1.0, 0.05, 100) == pytest.approx(oracle, abs=1e-12)

    def test_semisupervised_equals_supervised_at_combined_risk(self):
        args = (2.5, 1.7, 0.05, 40)
        assert bound_semisupervised(0.1, 0.3, *args) == pytest.approx(
            bound_supervised(0.1 + 0.15, *args), abs=1e-15
        )

    def test_zero_disagreement_reduces_to_supervised(self):
        args = (2.5, 0.9, 0.1, 25)
        assert bound_semisupervised(0.2, 0.0, *args) == pytest.approx(
            bound_supervised(0.2, *args), abs=1e-15
        )

    def test_rejects_nonpositive_c(self):
        with pytest.raises(InvalidArgumentError):
            bound_supervised(0.1, 0.0, 0.0, 0.05, 10)

    def test_delta_monotonicity(self):
        vals = [bound_supervised(0.2, 1.0, 1.0, d, 50) for d in (0.5, 0.05, 0.005)]
        assert vals[0] <= vals[1] <= vals[2]


class TestGradC:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        for _ in range(5):
            R = float(rng.uniform(0.05, 0.5))
            d = float(rng.uniform(0.0, 0.5))
            kl_const = float(rng.uniform(0.0, 2.0))
            C = float(rng.uniform(0.3, 3.0))
            assert grad_c_error(R, d, kl_const, C, 0.05, 60) < 1e-4

    def test_zero_risk_fixed_point(self):
        m, delta = 30, 0.05
        J = -math.log(delta) / m
        assert grad_C(J, 0.0, 0.0, 1.5, delta, m) == pytest.approx(0.0, abs=1e-14)

    def test_positive_at_high_risk_small_c(self):
        val = grad_C(0.1 * 1.4, 0.9, 0.5, 0.1, 0.05, 50)
        assert np.isfinite(val) and val > 0.0

    def test_rejects_nonpositive_c(self):
        with pytest.raises(InvalidArgumentError):
            grad_C(0.5, 0.1, 0.1, 0.0, 0.05, 10)


class TestJensenDomination:
    def test_surrogate_dominates_sampled_objective(self):
        # With the m^2-scaled weights, the surrogate upper-bounds the
        # plug-in objective built from the same samples' normalizer
        # estimates; this holds deterministically by convexity.
        rng = np.random.default_rng(10)
        for _ in range(10):
            feats, labels = raw_instance(rng)
            u, u0 = rng.normal(size=6) * 2, rng.normal(size=6)
            C, m_l, m_u, n = float(rng.uniform(0.1, 2.0)), 4, 3, 3
            m = m_l + m_u
            log_z = []
            for rows, y in zip(feats[:m_l], labels):
                eps = (m**2 / m_l) * phi_tail(y * (rows @ u))
                log_z.append(np.log(np.mean(np.exp(-C * eps))))
            for rows in feats[m_l:]:
                a = rows @ u
                eps = (m**2 / m_u) * phi_tail(a) * phi_tail(-a)
                log_z.append(np.log(np.mean(np.exp(-C * eps))))
            plug_in = kl_weights(u, u0) / m - sum(log_z) / m**2
            labeled, unlabeled = stack_features(feats[:m_l], labels), stack_features(feats[m_l:])
            surrogate = surrogate_objective(labeled, unlabeled, u, u0, C, m, m_l, m_u, n)
            assert surrogate >= plug_in - 1e-12
