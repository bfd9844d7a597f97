"""HMM backend against exhaustive path-enumeration oracles."""

import numpy as np
import pytest

from conftest import enumerate_hmm_joint, sample_hmm_sequence, tiny_hmm_pair
from pacgibbs.errors import InvalidSequenceError
from pacgibbs.hmm import (
    HmmParams,
    feature_block_hmm,
    forward_backward,
    m_step_hmm,
    sample_paths,
)
from pacgibbs.selftest import tv_distance
from reference_draws import joint_log_density_hmm


def random_params(m, k, rng):
    def rows(shape):
        p = rng.random(shape) + 0.1
        return p / p.sum(axis=-1, keepdims=True)

    return HmmParams(initial=rows(m), transition=rows((m, m)), emission=rows((m, k)))


class TestForwardBackward:
    def test_single_state(self):
        p = HmmParams(
            initial=np.array([1.0]),
            transition=np.array([[1.0]]),
            emission=np.array([[0.3, 0.7]]),
        )
        post = forward_backward(np.array([0, 1, 1]), p)
        assert post.gamma == pytest.approx(np.ones((3, 1)))
        assert post.transition_post == pytest.approx(np.array([[1.0]]))

    def test_single_observation_posterior(self):
        p = random_params(2, 3, np.random.default_rng(0))
        post = forward_backward(np.array([1]), p)
        oracle = p.initial * p.emission[:, 1]
        assert post.gamma[0] == pytest.approx(oracle / oracle.sum(), abs=1e-12)
        assert post.xi.shape == (0, 2, 2)

    def test_gamma_matches_enumeration(self):
        rng = np.random.default_rng(1)
        p = random_params(2, 3, rng)
        x = np.array([0, 2, 1])
        joint = enumerate_hmm_joint(x, p)
        lik = sum(joint.values())
        post = forward_backward(x, p)
        for t in range(3):
            for i in range(2):
                oracle = sum(v for q, v in joint.items() if q[t] == i) / lik
                assert post.gamma[t, i] == pytest.approx(oracle, abs=1e-10)

    def test_xi_matches_enumeration(self):
        rng = np.random.default_rng(2)
        p = random_params(2, 2, rng)
        x = np.array([0, 1, 1, 0])
        joint = enumerate_hmm_joint(x, p)
        lik = sum(joint.values())
        post = forward_backward(x, p)
        for t in range(3):
            for i in range(2):
                for j in range(2):
                    oracle = (
                        sum(v for q, v in joint.items() if q[t] == i and q[t + 1] == j) / lik
                    )
                    assert post.xi[t, i, j] == pytest.approx(oracle, abs=1e-10)

    @pytest.mark.parametrize("m,T", [(2, 4), (3, 6)])
    def test_log_likelihood_matches_enumeration(self, m, T):
        rng = np.random.default_rng(3)
        p = random_params(m, 3, rng)
        x = rng.integers(0, 3, size=T)
        oracle = np.log(sum(enumerate_hmm_joint(x, p).values()))
        assert forward_backward(x, p).log_likelihood == pytest.approx(oracle, abs=1e-10)

    def test_rows_normalized(self):
        p = random_params(3, 4, np.random.default_rng(4))
        post = forward_backward(np.array([0, 1, 2, 3, 1]), p)
        assert post.gamma.sum(axis=1) == pytest.approx(np.ones(5), abs=1e-8)
        assert post.xi.reshape(4, -1).sum(axis=1) == pytest.approx(np.ones(4), abs=1e-8)
        assert post.transition_post.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-10)

    def test_unknown_token_rejected(self):
        p = random_params(2, 2, np.random.default_rng(5))
        with pytest.raises(InvalidSequenceError):
            forward_backward(np.array([0, 5]), p)


class TestSamplePath:
    def test_deterministic_chain(self):
        p = HmmParams(
            initial=np.array([1.0, 0.0]),
            transition=np.array([[0.0, 1.0], [1.0, 0.0]]),
            emission=np.array([[1.0, 0.0], [0.0, 1.0]]),
        )
        x = np.array([0, 1, 0, 1])
        post = forward_backward(x, p, prob_floor=0.0)
        rng = np.random.default_rng(0)
        for q in sample_paths(p, post, rng.random((10, x.size))):
            assert q.tolist() == [0, 1, 0, 1]

    def test_marginals_match_gamma(self):
        rng = np.random.default_rng(1)
        p = random_params(2, 2, rng)
        x = np.array([0, 1])
        post = forward_backward(x, p)
        paths = sample_paths(p, post, rng.random((100_000, x.size)))
        counts = np.stack([np.bincount(paths[:, t], minlength=2) for t in range(2)])
        assert counts / 100_000 == pytest.approx(post.gamma, abs=0.01)

    def test_joint_path_distribution(self):
        rng = np.random.default_rng(2)
        p = random_params(2, 3, rng)
        x = np.array([0, 2, 1])
        joint = enumerate_hmm_joint(x, p)
        lik = sum(joint.values())
        paths = sample_paths(p, forward_backward(x, p), rng.random((100_000, x.size)))
        tv = tv_distance({q: j / lik for q, j in joint.items()}, [tuple(q) for q in paths])
        assert tv < 0.02


class TestFeatureBlock:
    def test_three_token_single_state(self):
        x = np.array([0, 1, 1])
        q = np.array([0, 0, 0])
        (block,) = feature_block_hmm(x, q[None], np.array([[1.0]]), n_symbols=2)
        assert block == pytest.approx([1.0, 2.0, 0.0, 1.0, 2.0])

    def test_shortest_sequence(self):
        x = np.array([0, 0])
        q = np.array([0, 0])
        (block,) = feature_block_hmm(x, q[None], np.array([[1.0]]), n_symbols=2)
        assert block == pytest.approx([1.0, 1.0, 0.0, 2.0, 0.0])

    def test_counts_scale_with_length(self):
        a_post = np.full((2, 2), 0.5)
        x1 = np.array([0, 1, 0, 1])
        q1 = np.array([0, 1, 0, 1])
        (b1,) = feature_block_hmm(x1, q1[None], a_post, n_symbols=2)
        (b2,) = feature_block_hmm(np.tile(x1, 2), np.tile(q1, 2)[None], a_post, n_symbols=2)
        # doubling the sequence doubles every count group except the
        # initial-state indicator; the concatenation adds one extra 1->0
        # transition, so compare emission counts which double exactly
        m = 2
        emit1 = b1[m + 2 * m * m :]
        emit2 = b2[m + 2 * m * m :]
        assert emit2 == pytest.approx(2.0 * emit1)

    def test_block_layout_invariants(self):
        rng = np.random.default_rng(3)
        bp, _ = tiny_hmm_pair()
        x = rng.integers(0, 3, size=7)
        post = bp.approx_posterior(x)
        q = bp.sample_hidden(x, post, rng.random((1, x.size)))
        (block,) = bp.feature_block(x, q, post)
        m, k = 2, 3
        assert block.shape == (m + 2 * m * m + m * k,)
        init = block[:m]
        assert sorted(init.tolist()) == [0.0, 1.0]
        trans_counts = block[m : m + m * m]
        assert trans_counts.sum() == pytest.approx(len(x) - 1)
        emit_counts = block[m + 2 * m * m :]
        assert emit_counts.sum() == pytest.approx(len(x))


class TestJointLogDensity:
    def test_single_state_reduces_to_emissions(self):
        p = HmmParams(
            initial=np.array([1.0]),
            transition=np.array([[1.0]]),
            emission=np.array([[0.25, 0.75]]),
        )
        x = np.array([1, 0, 1])
        q = np.array([0, 0, 0])
        expected = np.log(0.75) + np.log(0.25) + np.log(0.75)
        assert joint_log_density_hmm(x, q, p) == pytest.approx(expected, abs=1e-12)

    def test_sum_over_paths_is_likelihood(self):
        rng = np.random.default_rng(4)
        p = random_params(2, 3, rng)
        x = np.array([1, 0, 2])
        joint = enumerate_hmm_joint(x, p)  # every one of the 2^3 paths
        total = sum(np.exp(joint_log_density_hmm(x, np.array(q), p)) for q in joint)
        assert total == pytest.approx(sum(joint.values()), rel=1e-12)

    def test_state_relabeling_symmetry(self):
        rng = np.random.default_rng(5)
        p = random_params(2, 3, rng)
        perm = np.array([1, 0])
        p2 = HmmParams(
            initial=p.initial[perm],
            transition=p.transition[np.ix_(perm, perm)],
            emission=p.emission[perm],
        )
        x = np.array([0, 1, 2, 1])
        q = np.array([0, 1, 1, 0])
        assert joint_log_density_hmm(x, q, p) == pytest.approx(
            joint_log_density_hmm(x, perm[q], p2), abs=1e-12
        )


class TestMStep:
    def test_single_path_concentrates(self):
        prev = random_params(2, 2, np.random.default_rng(6))
        x = np.array([0, 1, 1])
        q = np.array([0, 1, 1])
        new = m_step_hmm([(x, q, 1.0)], prev, prob_floor=1e-8)
        assert new.initial[0] == pytest.approx(1.0, abs=1e-7)
        assert new.transition[0, 1] == pytest.approx(1.0, abs=1e-7)
        assert new.transition[1, 1] == pytest.approx(1.0, abs=1e-7)
        assert new.emission[0, 0] == pytest.approx(1.0, abs=1e-7)
        assert new.emission[1, 1] == pytest.approx(1.0, abs=1e-7)

    def test_opposite_paths_average(self):
        prev = random_params(2, 2, np.random.default_rng(7))
        x = np.array([0, 1])
        new = m_step_hmm(
            [(x, np.array([0, 1]), 1.0), (x, np.array([0, 0]), 1.0)], prev, prob_floor=1e-8
        )
        assert new.transition[0] == pytest.approx([0.5, 0.5], abs=1e-7)

    def test_monte_carlo_recovery(self):
        rng = np.random.default_rng(8)
        true = HmmParams(
            initial=np.array([0.5, 0.5]),
            transition=np.array([[0.9, 0.1], [0.2, 0.8]]),
            emission=np.array([[0.8, 0.2], [0.1, 0.9]]),
        )
        samples = []
        for _ in range(500):
            x = sample_hmm_sequence(true, 12, rng)
            post = forward_backward(x, true)
            samples.append((x, sample_paths(true, post, rng.random((1, x.size)))[0], 1.0))
        prev = random_params(2, 2, np.random.default_rng(9))
        new = m_step_hmm(samples, prev, prob_floor=1e-8)
        assert np.abs(new.transition - true.transition).max() < 0.1

    def test_row_stochasticity_preserved(self):
        rng = np.random.default_rng(10)
        prev = random_params(3, 4, rng)
        samples = [
            (rng.integers(0, 4, size=5), rng.integers(0, 3, size=5), float(w))
            for w in rng.random(6) + 0.5
        ]
        new = m_step_hmm(samples, prev, prob_floor=1e-8)
        assert new.initial.sum() == pytest.approx(1.0, abs=1e-10)
        assert new.transition.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-10)
        assert new.emission.sum(axis=1) == pytest.approx(np.ones(3), abs=1e-10)
        # floors are applied before renormalization, so attainment is within epsilon
        assert new.transition.min() >= 1e-8 * 0.999

    def test_empty_is_warned_noop(self):
        prev = random_params(2, 2, np.random.default_rng(11))
        with pytest.warns(UserWarning):
            new = m_step_hmm([], prev)
        assert new.transition == pytest.approx(prev.transition)


class TestBackend:
    def test_block_dim_formula(self):
        backend, _ = tiny_hmm_pair()
        assert backend.block_dim() == 2 + 2 * 4 + 2 * 3

    def test_natural_weights_reproduce_joint_minus_posterior_transitions(self):
        rng = np.random.default_rng(12)
        backend, _ = tiny_hmm_pair()
        w = backend.natural_weights()
        x = rng.integers(0, 3, size=6)
        post = backend.approx_posterior(x)
        for _ in range(5):
            (q,) = backend.sample_hidden(x, post, rng.random((1, x.size)))
            (block,) = backend.feature_block(x, q[None], post)
            trans_logq = np.log(post.transition_post)[q[:-1], q[1:]].sum()
            expected = joint_log_density_hmm(x, q, backend.params) - trans_logq
            assert float(w @ block) == pytest.approx(expected, rel=1e-10)
