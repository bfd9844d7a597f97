"""Mixture backend: posterior, sampling, features, density, re-estimation."""

import numpy as np
import pytest
from scipy.stats import norm

from pacgibbs.gmm import (
    GmmBackend,
    GmmParams,
    _logsumexp,
    feature_block_gmm,
    m_step_gmm,
    responsibilities,
    sample_z,
)
from reference_draws import joint_log_density_gmm, marginal_log_likelihood_gmm


def make_params(weights, means, variances):
    return GmmParams(
        weights=np.asarray(weights, float),
        means=np.atleast_2d(np.asarray(means, float)),
        variances=np.atleast_2d(np.asarray(variances, float)),
    )


class TestResponsibilities:
    def test_single_component(self):
        p = make_params([1.0], [[0.0]], [[1.0]])
        assert responsibilities([np.array([3.0])], p)[0] == pytest.approx([1.0])

    def test_symmetric_components(self):
        p = make_params([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
        a = responsibilities([np.array([0.0])], p)[0]
        assert a == pytest.approx([0.5, 0.5], abs=1e-12)

    def test_hand_computed_ratio(self):
        # at x=0 the密 ratio is e^0 : e^-8; oracle evaluated directly
        p = make_params([0.5, 0.5], [[0.0], [4.0]], [[1.0], [1.0]])
        a = responsibilities([np.array([0.0])], p)[0]
        oracle = 1.0 / (1.0 + np.exp(-8.0))
        assert a[0] == pytest.approx(oracle, abs=1e-9)
        assert a[1] == pytest.approx(1.0 - oracle, abs=1e-9)

    def test_simplex_and_floor(self):
        p = make_params([0.99, 0.01], [[0.0], [100.0]], [[1.0], [1.0]])
        a = responsibilities([np.array([0.0])], p)[0]
        assert a.sum() == pytest.approx(1.0, abs=1e-10)
        assert np.all(a >= 0.99e-12)

    def test_log_space_handles_huge_distances(self):
        p = make_params([0.5, 0.5], [[0.0], [100.0]], [[1.0], [1.0]])
        a = responsibilities([np.array([100.0])], p)[0]  # squared distance 1e4
        assert np.all(np.isfinite(a))
        assert a.sum() == pytest.approx(1.0, abs=1e-10)


class TestSampleZ:
    def test_point_mass(self):
        rng = np.random.default_rng(0)
        for z in sample_z(np.array([[1.0, 0.0, 0.0, 0.0]]), rng.random(20)):
            assert z == pytest.approx([1, 0, 0, 0])

    def test_two_component_frequency(self):
        rng = np.random.default_rng(1)
        a = np.array([0.5, 0.5])
        draws = sample_z(a[None], rng.random(100_000))
        assert draws[:, 0].mean() == pytest.approx(0.5, abs=0.01)

    def test_three_component_frequencies(self):
        rng = np.random.default_rng(2)
        a = np.array([0.2, 0.3, 0.5])
        counts = sample_z(a[None], rng.random(100_000)).sum(axis=0)
        assert counts / counts.sum() == pytest.approx(a, abs=0.01)


class TestLogSumExp:
    def test_large_entries_do_not_overflow(self):
        v = np.array([[1000.0, 1000.0], [800.0, -800.0]])
        assert _logsumexp(v) == pytest.approx([1000.0 + np.log(2.0), 800.0], rel=1e-15)

    def test_small_entries_do_not_underflow(self):
        v = np.array([[-1000.0, -1000.0 - np.log(3.0)]])
        assert _logsumexp(v) == pytest.approx([-1000.0 + np.log(4.0 / 3.0)], rel=1e-15)

    def test_matches_the_direct_formula_at_moderate_values(self):
        v = np.random.default_rng(13).normal(size=(50, 6)) * 5.0
        expected = np.log(np.exp(v).sum(axis=1))
        np.testing.assert_allclose(_logsumexp(v), expected, rtol=1e-13, atol=1e-13)


class TestFeatureBlock:
    def test_direct_substitution_single(self):
        (block,) = feature_block_gmm([np.array([2.0])], np.array([[1.0]]), np.array([[1.0]]))
        assert block == pytest.approx([2.0, 4.0, 1.0, 0.0])

    def test_direct_substitution_two_components(self):
        (block,) = feature_block_gmm(
            [np.array([-1.0])], np.array([[0.0, 1.0]]), np.array([[0.5, 0.5]])
        )
        assert block == pytest.approx([0, 0, 0, 0, -1.0, 1.0, 1.0, np.log(0.5)])

    def test_unselected_components_are_zero(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=3)
        a = np.array([0.2, 0.5, 0.3])
        z = np.array([0.0, 1.0, 0.0])
        block = feature_block_gmm([x], z[None], a[None]).reshape(3, -1)
        assert np.all(block[0] == 0.0)
        assert np.all(block[2] == 0.0)

    @pytest.mark.parametrize("K,d", [(1, 1), (2, 3), (4, 5)])
    def test_dimension(self, K, d):
        rng = np.random.default_rng(4)
        x = rng.normal(size=d)
        a = np.full(K, 1.0 / K)
        z = np.zeros(K)
        z[0] = 1.0
        assert feature_block_gmm([x], z[None], a[None]).shape == (1, K * (2 * d + 2))


class TestJointLogDensity:
    def test_standard_normal_at_mode(self):
        p = make_params([1.0], [[0.0]], [[1.0]])
        val = joint_log_density_gmm(np.array([0.0]), np.array([1.0]), p)
        # frozen: log(1/sqrt(2*pi)) from a high-precision oracle
        assert val == pytest.approx(-0.9189385332046727, abs=1e-12)

    def test_translation_invariance(self):
        p1 = make_params([0.7, 0.3], [[0.0], [2.0]], [[1.0], [3.0]])
        p2 = make_params([0.7, 0.3], [[5.0], [7.0]], [[1.0], [3.0]])
        z = np.array([0.0, 1.0])
        v1 = joint_log_density_gmm(np.array([1.0]), z, p1)
        v2 = joint_log_density_gmm(np.array([6.0]), z, p2)
        assert v1 == pytest.approx(v2, abs=1e-12)

    def test_marginalization_matches_mixture_density(self):
        p = make_params([0.6, 0.4], [[-1.0], [2.0]], [[1.5], [0.5]])
        x = np.array([0.3])
        total = sum(
            np.exp(joint_log_density_gmm(x, z, p))
            for z in (np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        )
        oracle = 0.6 * norm.pdf(0.3, -1.0, np.sqrt(1.5)) + 0.4 * norm.pdf(0.3, 2.0, np.sqrt(0.5))
        assert total == pytest.approx(oracle, rel=1e-12)


class TestMStep:
    def test_degenerate_cluster(self):
        prev = make_params([0.5, 0.5], [[0.0], [1.0]], [[1.0], [1.0]])
        floor = np.array([1e-4])
        samples = [(np.array([2.5]), np.tile([1.0, 0.0], (10, 1)))]
        new = m_step_gmm(samples, prev, floor)
        assert new.means[0] == pytest.approx([2.5])
        assert new.variances[0] == pytest.approx(floor)
        assert new.weights[0] == pytest.approx(1.0, abs=1e-10)
        # zero-mass component keeps its previous parameters
        assert new.means[1] == pytest.approx(prev.means[1])

    def test_even_split(self):
        prev = make_params([0.5, 0.5], [[0.0], [0.0]], [[1.0], [1.0]])
        samples = [
            (np.array([-1.0]), np.array([[1.0, 0.0]])),
            (np.array([1.0]), np.array([[0.0, 1.0]])),
        ]
        new = m_step_gmm(samples, prev, np.array([1e-6]))
        assert new.weights == pytest.approx([0.5, 0.5])
        assert new.means[:, 0] == pytest.approx([-1.0, 1.0])

    def test_monte_carlo_recovery(self):
        # 200 draws from a known mixture, component labels from exact posteriors
        rng = np.random.default_rng(11)
        true = make_params([0.5, 0.5], [[-2.0], [2.0]], [[1.0], [1.0]])
        xs, zs = [], []
        for _ in range(200):
            k = rng.choice(2, p=true.weights)
            x = rng.normal(true.means[k, 0], 1.0, size=1)
            a = responsibilities([x], true)
            zs.append(sample_z(a, rng.random(1)))
            xs.append(x)
        prev = make_params([0.5, 0.5], [[-1.0], [1.0]], [[1.0], [1.0]])
        new = m_step_gmm(list(zip(xs, zs)), prev, np.array([1e-6]))
        assert abs(new.means[0, 0] - (-2.0)) < 0.2
        assert abs(new.means[1, 0] - 2.0) < 0.2

    def test_draw_counts_weight_each_example(self):
        """An example with k draws counts as k examples with one draw each."""
        rng = np.random.default_rng(12)
        prev = make_params([0.5, 0.5], [[0.0, 0.0], [1.0, 1.0]], [[1.0, 1.0], [1.0, 1.0]])
        xs = rng.normal(size=(4, 2))
        counts = (3, 1, 5, 2)
        zs = [np.eye(2)[rng.integers(2, size=k)] for k in counts]
        grouped = m_step_gmm(list(zip(xs, zs)), prev, np.array([1e-6, 1e-6]))
        split = [(x, z[i : i + 1]) for x, z in zip(xs, zs) for i in range(len(z))]
        one_each = m_step_gmm(split, prev, np.array([1e-6, 1e-6]))
        for field in ("weights", "means", "variances"):
            assert getattr(grouped, field).tobytes() == getattr(one_each, field).tobytes()

    def test_empty_is_warned_noop(self):
        prev = make_params([1.0], [[0.0]], [[1.0]])
        with pytest.warns(UserWarning):
            new = m_step_gmm([], prev, np.array([1e-6]))
        assert new.means == pytest.approx(prev.means)


class TestMonteCarloEm:
    def test_likelihood_non_decreasing_under_untilted_cycles(self):
        # sample -> m_step cycles are Monte Carlo EM when no tilt is applied;
        # training-set log-likelihood must not decrease beyond MC noise.
        rng = np.random.default_rng(42)
        data = np.concatenate(
            [rng.normal(-2.0, 1.0, size=(60, 1)), rng.normal(2.0, 1.0, size=(60, 1))]
        )
        n_iters, n_draws = 6, 10
        curves = []
        for seed in range(10):
            backend = GmmBackend.from_data(data, 2, np.random.default_rng(100 + seed))
            srng = np.random.default_rng(200 + seed)
            curve = [marginal_log_likelihood_gmm(backend.params, data)]
            for _ in range(n_iters):
                samples = []
                for x in data:
                    a = backend.approx_posterior([x])
                    zs = backend.sample_hidden(a, srng.random((n_draws, 1)))
                    samples.append((x, zs))
                backend.update_parameters(samples)
                curve.append(marginal_log_likelihood_gmm(backend.params, data))
            curves.append(curve)
        mean_curve = np.mean(curves, axis=0)
        assert np.all(np.diff(mean_curve) > -0.05)


class TestBackend:
    def test_block_dim_formula(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(30, 3))
        backend = GmmBackend.from_data(data, 4, rng)
        assert backend.block_dim() == 4 * (2 * 3 + 2)

    def test_init_uses_distinct_points_and_global_variance(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(50, 2))
        backend = GmmBackend.from_data(data, 3, np.random.default_rng(2))
        p = backend.params
        assert p.weights == pytest.approx(np.full(3, 1 / 3))
        assert np.unique(p.means, axis=0).shape[0] == 3
        assert p.variances == pytest.approx(np.tile(data.var(axis=0), (3, 1)))

    def test_natural_weights_reproduce_free_energy_integrand(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(40, 2))
        backend = GmmBackend.from_data(data, 2, np.random.default_rng(4))
        w = backend.natural_weights()
        x = rng.normal(size=2)
        (a,) = backend.approx_posterior([x])
        for k in range(2):
            z = np.zeros(2)
            z[k] = 1.0
            (block,) = backend.feature_block([x], z[None], a[None])
            expected = joint_log_density_gmm(x, z, backend.params) - np.log(a[k])
            assert float(w @ block) == pytest.approx(expected, rel=1e-10)
