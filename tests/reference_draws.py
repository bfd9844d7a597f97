"""Per-input, per-draw reference implementations of the stacked paths.

These are the loops that stacking replaced: one input's posteriors at a
time; one hidden draw, one feature vector and one random number at a
time; M-steps over one weighted (x, h, w) triple per draw; and a descent
that evaluates J and its gradient in separate calls.  The tests compare
the package's stacked posteriors, sampler, predictor, M-steps and
prior-mean fit with them.  The joint and marginal densities are
test oracles the package does not need.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np
from scipy.special import logsumexp

from pacgibbs.errors import InvalidFeatureError
from pacgibbs.gmm import _PI_FLOOR, GmmBackend
from pacgibbs.hmm import HmmBackend, HmmParams, HmmPosterior, _check_tokens, _floor_rows
from pacgibbs.numerics import phi_tail
from pacgibbs.sampler import HiddenSampleSet


class Feature(NamedTuple):
    """One realized feature vector and its unit-normalized form."""

    phi: np.ndarray
    phi_bar: np.ndarray


def assemble(block_plus, block_minus) -> Feature:
    bp = np.asarray(block_plus, dtype=float).ravel()
    bm = np.asarray(block_minus, dtype=float).ravel()
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(bm))):
        raise InvalidFeatureError("feature blocks must be finite")
    phi = np.concatenate([bp, bm, [1.0]])
    return Feature(phi=phi, phi_bar=phi / np.linalg.norm(phi))


# --- mixture ------------------------------------------------------------------


def responsibilities(x, params, posterior_floor):
    """Posterior component probabilities of one vector ``x``."""
    log_a = _gmm_log_joint_terms(x, params)
    a = np.exp(log_a - logsumexp(log_a))
    a = np.maximum(a, posterior_floor)
    return a / a.sum()


def sample_z(a, rng):
    k = min(int(np.searchsorted(np.cumsum(a), rng.random())), a.shape[0] - 1)
    z = np.zeros_like(a)
    z[k] = 1.0
    return z


def feature_block_gmm(x, z, a):
    x = np.asarray(x, dtype=float)
    per_comp = np.empty((z.shape[0], 2 * x.shape[0] + 2))
    per_comp[:, : x.shape[0]] = x
    per_comp[:, x.shape[0] : 2 * x.shape[0]] = x * x
    per_comp[:, 2 * x.shape[0]] = 1.0
    per_comp[:, 2 * x.shape[0] + 1] = np.log(a)
    return (z[:, None] * per_comp).ravel()


def m_step_gmm(samples, previous, variance_floor):
    """Weighted re-estimation from one (x, z, weight) triple per draw."""
    xs = np.stack([np.asarray(x, float) for x, _, _ in samples])
    zs = np.stack([z for _, z, _ in samples])
    ws = np.array([w for _, _, w in samples], dtype=float)
    mass = (ws[:, None] * zs).sum(axis=0)
    new = previous.copy()
    new.weights = np.maximum(mass / ws.sum(), _PI_FLOOR)
    new.weights /= new.weights.sum()
    for k in np.flatnonzero(mass > 0.0):
        wk = ws * zs[:, k]
        mu = (wk[:, None] * xs).sum(axis=0) / mass[k]
        diff = xs - mu
        var = (wk[:, None] * diff * diff).sum(axis=0) / mass[k]
        new.means[k] = mu
        new.variances[k] = np.maximum(var, variance_floor)
    return new


def _gmm_log_joint_terms(x, params):
    x = np.asarray(x, float)
    diff = x[None, :] - params.means
    log_dens = -0.5 * np.sum(
        diff * diff / params.variances + np.log(2.0 * np.pi * params.variances), axis=1
    )
    return np.log(params.weights) + log_dens


def joint_log_density_gmm(x, z, params) -> float:
    """log P(x, z) = sum_k z_k [log pi_k + log N(x; mu_k, diag sigma2_k)]."""
    return float(z @ _gmm_log_joint_terms(x, params))


def marginal_log_likelihood_gmm(params, data) -> float:
    """Mean per-example log marginal density of the mixture."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    total = 0.0
    for x in data:
        total += logsumexp(_gmm_log_joint_terms(x, params))
    return float(total / data.shape[0])


# --- hidden Markov model --------------------------------------------------------


def _categorical(p, rng):
    return min(int(np.searchsorted(np.cumsum(p), p.sum() * rng.random())), p.shape[0] - 1)


def sample_path(x, params, posterior, rng):
    alphas = posterior.alphas
    L = alphas.shape[0]
    q = np.empty(L, dtype=int)
    q[L - 1] = _categorical(alphas[L - 1], rng)
    for t in range(L - 2, -1, -1):
        q[t] = _categorical(alphas[t] * params.transition[:, q[t + 1]], rng)
    return q


def feature_block_hmm(x, q, transition_post, n_symbols):
    M = transition_post.shape[0]
    init = np.zeros(M)
    init[q[0]] = 1.0
    trans_counts = np.zeros((M, M))
    np.add.at(trans_counts, (q[:-1], q[1:]), 1.0)
    emit_counts = np.zeros((M, n_symbols))
    np.add.at(emit_counts, (q, x), 1.0)
    return np.concatenate(
        [
            init,
            trans_counts.ravel(),
            (trans_counts * np.log(transition_post)).ravel(),
            emit_counts.ravel(),
        ]
    )


def m_step_hmm(samples, previous, prob_floor):
    """Weighted re-estimation from one (x, q, weight) triple per draw."""
    M, K = previous.n_states, previous.n_symbols
    init_counts = np.zeros(M)
    trans_counts = np.zeros((M, M))
    emit_counts = np.zeros((M, K))
    for x, q, w in samples:
        x = np.asarray(x, dtype=int)
        q = np.asarray(q, dtype=int)
        init_counts[q[0]] += w
        np.add.at(trans_counts, (q[:-1], q[1:]), w)
        np.add.at(emit_counts, (q, x), w)

    def normalize(counts):
        counts = np.atleast_2d(counts)
        out = np.empty_like(counts, dtype=float)
        for i, row in enumerate(counts):
            s = row.sum()
            out[i] = row / s if s > 0 else np.full(row.shape, 1.0 / row.size)
        return _floor_rows(out, prob_floor)

    return HmmParams(
        initial=normalize(init_counts)[0],
        transition=normalize(trans_counts),
        emission=normalize(emit_counts),
    )


def forward_backward(x, params, prob_floor):
    """Scaled forward-backward pass over one sequence."""
    x = _check_tokens([x], params.n_symbols)[0]
    L, M = x.size, params.n_states
    emit = params.emission[:, x]  # (M, L)

    alphas = np.empty((L, M))
    scales = np.empty(L)
    alphas[0] = params.initial * emit[:, 0]
    scales[0] = alphas[0].sum()
    alphas[0] /= scales[0]
    for t in range(1, L):
        alphas[t] = (alphas[t - 1] @ params.transition) * emit[:, t]
        scales[t] = alphas[t].sum()
        alphas[t] /= scales[t]

    betas = np.empty((L, M))
    betas[L - 1] = 1.0
    for t in range(L - 2, -1, -1):
        betas[t] = params.transition @ (emit[:, t + 1] * betas[t + 1]) / scales[t + 1]

    gamma = alphas * betas
    xi = (
        alphas[:-1, :, None]
        * params.transition
        * (emit[:, 1:].T * betas[1:])[:, None, :]
        / scales[1:, None, None]
    )

    counts = xi.sum(axis=0) if L > 1 else np.zeros((M, M))
    row_mass = counts.sum(axis=1)
    a_post = np.full((M, M), 1.0 / M)
    occupied = row_mass > 0.0
    a_post[occupied] = counts[occupied] / row_mass[occupied, None]
    a_post = _floor_rows(a_post, prob_floor)

    return HmmPosterior(
        gamma=gamma,
        xi=xi,
        transition_post=a_post,
        alphas=alphas,
        log_likelihood=np.log(scales).sum(),
    )


def xi_loop(x, params):
    """The pairwise marginals of forward_backward, one time step at a time."""
    x = np.asarray(x, dtype=int)
    L, M = x.size, params.n_states
    emit = params.emission[:, x]
    alphas = np.empty((L, M))
    scales = np.empty(L)
    alphas[0] = params.initial * emit[:, 0]
    scales[0] = alphas[0].sum()
    alphas[0] /= scales[0]
    for t in range(1, L):
        alphas[t] = (alphas[t - 1] @ params.transition) * emit[:, t]
        scales[t] = alphas[t].sum()
        alphas[t] /= scales[t]
    betas = np.empty((L, M))
    betas[L - 1] = 1.0
    for t in range(L - 2, -1, -1):
        betas[t] = params.transition @ (emit[:, t + 1] * betas[t + 1]) / scales[t + 1]
    xi = np.empty((L - 1, M, M))
    for t in range(L - 1):
        xi[t] = (
            alphas[t][:, None]
            * params.transition
            * (emit[:, t + 1] * betas[t + 1])[None, :]
            / scales[t + 1]
        )
    return xi


def joint_log_density_hmm(x, q, params) -> float:
    """log P(x, q) along the path: initial + transitions + emissions."""
    x = np.asarray(x, dtype=int)
    total = np.log(params.initial[q[0]])
    total += np.log(params.transition[q[:-1], q[1:]]).sum()
    total += np.log(params.emission[q, x]).sum()
    return float(total)


# --- one input or one draw through either backend ----------------------------------


def approx_posterior(backend, x):
    if isinstance(backend, GmmBackend):
        return responsibilities(x, backend.params, backend.posterior_floor)
    assert isinstance(backend, HmmBackend)
    return forward_backward(x, backend.params, backend.prob_floor)



def sample_hidden(backend, x, posterior, rng):
    if isinstance(backend, GmmBackend):
        return sample_z(posterior, rng)
    assert isinstance(backend, HmmBackend)
    return sample_path(x, backend.params, posterior, rng)


def feature_block(backend, x, h, posterior):
    if isinstance(backend, GmmBackend):
        return feature_block_gmm(x, h, posterior)
    return feature_block_hmm(
        np.asarray(x, dtype=int), h, posterior.transition_post, backend.params.n_symbols
    )


def tilt_exponent(feature, y, u, cfg) -> float:
    if cfg.C == 0.0:
        return 0.0
    a = float(u @ feature.phi_bar)
    weight = phi_tail(a) * phi_tail(-a) if y is None else phi_tail(y * a)
    return -cfg.C * weight


def rejection_sample(x, y, backend_plus, backend_minus, u, cfg, rng) -> HiddenSampleSet:
    post_plus = approx_posterior(backend_plus, x)
    post_minus = approx_posterior(backend_minus, x)
    accepted = []
    best = []
    attempts = 0
    while len(accepted) < cfg.n_draws and attempts < cfg.max_attempts:
        attempts += 1
        h_plus = sample_hidden(backend_plus, x, post_plus, rng)
        h_minus = sample_hidden(backend_minus, x, post_minus, rng)
        feature = assemble(
            feature_block(backend_plus, x, h_plus, post_plus),
            feature_block(backend_minus, x, h_minus, post_minus),
        )
        exponent = tilt_exponent(feature, y, u, cfg)
        if np.log(rng.random()) < exponent:
            accepted.append((h_plus, h_minus, feature.phi_bar, exponent))
        else:
            entry = (exponent, attempts, (h_plus, h_minus, feature.phi_bar, exponent))
            if len(best) < cfg.n_draws:
                heapq.heappush(best, entry)
            else:
                heapq.heappushpop(best, entry)
    rate = len(accepted) / attempts
    degraded = len(accepted) < cfg.n_draws
    if degraded:
        pool = accepted + [entry[2] for entry in best]
        pool.sort(key=lambda draw: -draw[3])
        accepted = pool[: cfg.n_draws]
    h_plus, h_minus, phi_bar, exponents = (np.array(column) for column in zip(*accepted))
    return HiddenSampleSet(h_plus, h_minus, phi_bar, exponents, rate, degraded, attempts)


def vote_scores(x, backend_plus, backend_minus, u, n, rng):
    post_plus = approx_posterior(backend_plus, x)
    post_minus = approx_posterior(backend_minus, x)
    votes = []
    for _ in range(n):
        h_plus = sample_hidden(backend_plus, x, post_plus, rng)
        h_minus = sample_hidden(backend_minus, x, post_minus, rng)
        feature = assemble(
            feature_block(backend_plus, x, h_plus, post_plus),
            feature_block(backend_minus, x, h_minus, post_minus),
        )
        votes.append(float(u @ feature.phi_bar))
    return votes


# --- descent -----------------------------------------------------------------------

MAX_HALVINGS = 20


def backtracking_step(value_fn, grad, u, j_u, gamma):
    """One descent step; halve the rate until the objective does not increase."""
    step = gamma
    for _ in range(MAX_HALVINGS + 1):
        cand = u - step * grad
        j_cand = value_fn(cand)
        if j_cand <= j_u:
            return cand, j_cand
        step *= 0.5
    return u, j_u


def descend(value_fn, grad_fn, u, gamma, max_iters):
    """Backtracking descent that takes each step's gradient in a call of its own."""
    j_u = value_fn(u)
    for _ in range(max_iters):
        u_new, j_new = backtracking_step(value_fn, grad_fn(u), u, j_u, gamma)
        if j_new >= j_u - 1e-14:
            return u_new, j_new
        u, j_u = u_new, j_new
    return u, j_u
