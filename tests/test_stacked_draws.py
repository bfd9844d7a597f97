"""Stacked draws against the per-draw loops they replaced, bit for bit.

The sampler and the predictor draw a chunk of hidden pairs from one block
of uniforms.  They must return the same bits as the loops in
``reference_draws`` and leave the generator in the same state.
"""

import dataclasses

import numpy as np
import pytest
from scipy.special import logsumexp

import reference_draws as ref
from pacgibbs.gmm import GmmBackend, GmmParams, _logsumexp
from pacgibbs.hmm import HmmBackend, HmmParams, forward_backward, sample_paths
from pacgibbs.predictor import vote_scores
from pacgibbs.sampler import HiddenSampleSet, TiltConfig, rejection_sample

HMM_STATES = (2, 5, 7, 8, 10, 16)


def random_gmm(K, d, rng):
    w = rng.random(K) + 0.1
    params = GmmParams(
        weights=w / w.sum(),
        means=2.0 * rng.normal(size=(K, d)),
        variances=rng.uniform(0.3, 2.0, size=(K, d)),
    )
    return GmmBackend(params, variance_floor=np.full(d, 1e-8))


def random_hmm_params(M, n_symbols, rng):
    def rows(shape):
        p = rng.random(shape) + 0.05
        return p / p.sum(axis=-1, keepdims=True)

    return HmmParams(initial=rows(M), transition=rows((M, M)), emission=rows((M, n_symbols)))


def bits(value) -> bytes:
    arr = np.asarray(value)
    return arr.dtype.str.encode() + repr(arr.shape).encode() + arr.tobytes()


def sample_both(seed, x, y, bp, bm, u, cfg):
    """The package's set, after checking it and the stream against the loop's."""
    rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
    new = rejection_sample(x, y, bp, bm, u, cfg, rng_new)
    old = ref.rejection_sample(x, y, bp, bm, u, cfg, rng_old)
    for field in dataclasses.fields(HiddenSampleSet):
        value, expected = getattr(new, field.name), getattr(old, field.name)
        assert type(value) is type(expected), field.name
        assert bits(value) == bits(expected), field.name
    assert rng_new.random() == rng_old.random()
    return new


def sampler_cases(make_pair, n_cases, seed):
    """(x, y, backends, u, cfg) covering C = 0, both labels, no label, both
    weight scales, n_draws 1-8 and budgets small enough to degrade."""
    rng = np.random.default_rng(seed)
    for i in range(n_cases):
        x, bp, bm = make_pair(i, rng)
        n_draws = int(rng.integers(1, 9))
        C = (0.0, 0.7, 4.0, 60.0)[i % 4]
        budget = (None, n_draws, int(rng.integers(n_draws, 4 * n_draws + 1)))[i % 3]
        cfg = TiltConfig(
            C=C,
            m=int(rng.integers(2, 30)),
            m_l=int(rng.integers(1, 10)),
            m_u=int(rng.integers(1, 10)),
            weight_scale=("per_example", "m_squared")[i % 2],
            n_draws=n_draws,
            max_attempts=budget,
        )
        u = rng.normal(size=bp.block_dim() + bm.block_dim() + 1) * rng.choice([0.5, 3.0])
        yield x, (1, -1, None, -1, None)[i % 5], bp, bm, u, cfg


def gmm_pair(i, rng):
    K, d = 1 + i % 4, int(rng.integers(1, 4))
    return rng.normal(size=d) * 2.0, random_gmm(K, d, rng), random_gmm(K, d, rng)


def hmm_pair(i, rng):
    M = HMM_STATES[i % len(HMM_STATES)]
    n_symbols = int(rng.integers(2, 7))
    L = (1, 2, 3, 7, 20)[i % 5]
    bp = HmmBackend(random_hmm_params(M, n_symbols, rng))
    bm = HmmBackend(random_hmm_params(M, n_symbols, rng))
    return rng.integers(0, n_symbols, size=L), bp, bm


class TestSamplerMatchesLoop:
    @pytest.mark.parametrize(
        "make_pair,n_cases,seed", [(gmm_pair, 120, 71), (hmm_pair, 120, 72)], ids=["gmm", "hmm"]
    )
    def test_bit_identical_sets_and_stream(self, make_pair, n_cases, seed):
        degraded = 0
        for i, case in enumerate(sampler_cases(make_pair, n_cases, seed)):
            degraded += sample_both(i, *case).degraded
        assert 0 < degraded < n_cases

    @pytest.mark.parametrize("make_pair,seed", [(gmm_pair, 77), (hmm_pair, 78)], ids=["gmm", "hmm"])
    def test_saturated_tilt_ties_keep_order(self, make_pair, seed):
        """Margins far past the tail make phi_tail exactly 1, so most proposals
        share the exponent -C and none is accepted.  The fallback must then
        keep the loop's tie order: accepted rows, then the heap's list."""
        rng = np.random.default_rng(seed)
        distinct_ties = 0
        for i in range(60):
            x, bp, bm = make_pair(i, rng)
            n_draws = int(rng.integers(2, 9))
            budget = int(rng.integers(n_draws, 4 * n_draws + 1))
            cfg = TiltConfig(C=60.0, m=10, m_l=5, m_u=5, n_draws=n_draws, max_attempts=budget)
            u = rng.normal(size=bp.block_dim() + bm.block_dim() + 1) * 300.0
            new = sample_both(i, x, (1, -1)[i % 2], bp, bm, u, cfg)
            tied = new.phi_bar[new.exponents == -cfg.C]
            distinct_ties += len(np.unique(tied, axis=0)) > 1
        assert distinct_ties > 10


class TestPredictorMatchesLoop:
    @pytest.mark.parametrize("make_pair", [gmm_pair, hmm_pair], ids=["gmm", "hmm"])
    def test_bit_identical_votes_and_stream(self, make_pair):
        rng = np.random.default_rng(73)
        for i in range(60):
            x, bp, bm = make_pair(i, rng)
            u = rng.normal(size=bp.block_dim() + bm.block_dim() + 1)
            n, normalized = 1 + i % 8, bool(i % 3)
            rng_new, rng_old = np.random.default_rng(i), np.random.default_rng(i)
            new = vote_scores(x, bp, bm, u, n, rng_new, normalized)
            old = ref.vote_scores(x, bp, bm, u, n, rng_old, normalized)
            assert [v.hex() for v in new] == [v.hex() for v in old]
            assert rng_new.random() == rng_old.random()


class _Stream:
    """A generator stand-in that hands out fixed uniforms in order."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self):
        return float(next(self._values))


def boundary_uniforms(params, posterior, k, rng):
    """Uniforms that put each step's ``total * u`` on, or one ulp beside,
    a step of its running total, following the per-path loop.  A total
    that is off by one ulp moves some of these draws to another state."""
    alphas = posterior.alphas
    L, M = alphas.shape
    uniforms = np.empty((k, L))
    for i in range(k):
        q_next = 0
        for j, t in enumerate(range(L - 1, -1, -1)):
            p = alphas[t] if t == L - 1 else alphas[t] * params.transition[:, q_next]
            cdf, total = np.cumsum(p), p.sum()
            u = cdf[rng.integers(M)] / total
            u = min((np.nextafter(u, 0.0), u, np.nextafter(u, 1.0))[rng.integers(3)], 1.0 - 2**-53)
            uniforms[i, j] = u
            q_next = min(int(np.searchsorted(cdf, total * u)), M - 1)
    return uniforms


def assert_paths_match_loop(params, x, post, uniforms):
    paths = sample_paths(params, post, uniforms)
    for q, row in zip(paths, uniforms):
        assert bits(q) == bits(ref.sample_path(x, params, post, _Stream(row)))


class TestPathsMatchLoop:
    # 9, 17 and 33 states leave a remainder after numpy's eight-wide pairwise
    # blocks; 130 is above its 128-element block, so the sum recurses.
    @pytest.mark.parametrize("M", HMM_STATES + (9, 17, 33, 130))
    def test_random_and_boundary_uniforms(self, M):
        rng = np.random.default_rng(74 + M)
        for L in (1, 2, 5, 30):
            params = random_hmm_params(M, 4, rng)
            x = rng.integers(0, 4, size=L)
            post = forward_backward(x, params)
            for uniforms in (rng.random((8, L)), boundary_uniforms(params, post, 40, rng)):
                assert_paths_match_loop(params, x, post, uniforms)

    @pytest.mark.parametrize("M", (10, 130))
    def test_thousand_row_stack(self, M):
        rng = np.random.default_rng(77 + M)
        L = 12
        params = random_hmm_params(M, 4, rng)
        x = rng.integers(0, 4, size=L)
        post = forward_backward(x, params)
        for uniforms in (rng.random((1200, L)), boundary_uniforms(params, post, 1200, rng)):
            assert_paths_match_loop(params, x, post, uniforms)


class TestForwardBackwardXi:
    def test_broadcast_equals_per_step_loop(self):
        rng = np.random.default_rng(75)
        for i in range(300):
            M, L = int(rng.integers(1, 12)), (1, 2, 3, int(rng.integers(4, 60)))[i % 4]
            params = random_hmm_params(M, 5, rng)
            x = rng.integers(0, 5, size=L)
            xi = forward_backward(x, params).xi
            assert xi.shape == (L - 1, M, M)
            assert bits(xi) == bits(ref.xi_loop(x, params))


class TestLogSumExp:
    def test_matches_scipy_bit_for_bit(self):
        rng = np.random.default_rng(76)
        for i in range(4000):
            n = 1 + i % 12
            v = rng.normal(size=n) * rng.choice([0.1, 5.0, 300.0])
            if i % 3 == 0:  # ties at the maximum, and repeated values below it
                v[rng.integers(n, size=n // 2 + 1)] = v.max()
                v[rng.integers(n, size=n // 3)] = v.min()
            assert _logsumexp(v).hex() == float(logsumexp(v)).hex()
