"""Shared helpers: tiny fixed backends and brute-force oracles."""

from __future__ import annotations

import itertools

import numpy as np

from pacgibbs.features import assemble
from pacgibbs.sampler import tilt_exponents
from pacgibbs.hmm import HmmBackend, HmmParams
from pacgibbs.selftest import tiny_gmm_pair  # noqa: F401  (shared with the test modules)


def tiny_hmm_pair(n_symbols: int = 3):
    """Fixed two-state HMMs for enumerable sampler tests."""
    plus = HmmBackend(
        HmmParams(
            initial=np.array([0.7, 0.3]),
            transition=np.array([[0.8, 0.2], [0.3, 0.7]]),
            emission=np.array([[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]])[:, :n_symbols],
        )
    )
    minus = HmmBackend(
        HmmParams(
            initial=np.array([0.4, 0.6]),
            transition=np.array([[0.5, 0.5], [0.6, 0.4]]),
            emission=np.array([[0.2, 0.5, 0.3], [0.4, 0.2, 0.4]])[:, :n_symbols],
        )
    )
    return plus, minus


def enumerate_gmm_tilt(x, y, bp, bm, u, cfg):
    """Brute-force tilted posterior over all (z_plus, z_minus) pairs.

    Returns (probabilities dict keyed by (k_plus, k_minus), normalizer),
    where the normalizer is the acceptance probability under the
    untilted proposal.
    """
    a_p = bp.approx_posterior(x)
    a_m = bm.approx_posterior(x)
    pairs = list(itertools.product(range(a_p.size), range(a_m.size)))
    z_p = np.eye(a_p.size)[[kp for kp, _ in pairs]]
    z_m = np.eye(a_m.size)[[km for _, km in pairs]]
    _, phi_bar = assemble(bp.feature_block(x, z_p, a_p), bm.feature_block(x, z_m, a_m))
    accepts = np.exp(tilt_exponents(phi_bar, y, u, cfg))
    mass = {}
    z_norm = 0.0
    for (kp, km), accept in zip(pairs, accepts):
        w = a_p[kp] * a_m[km] * accept
        mass[(kp, km)] = w
        z_norm += w
    probs = {k: v / z_norm for k, v in mass.items()}
    return probs, z_norm


def all_paths(m: int, length: int):
    return itertools.product(range(m), repeat=length)


def enumerate_hmm_joint(x, params):
    """All-path joint probabilities P(x, q); sums to the exact likelihood."""
    x = np.asarray(x, dtype=int)
    out = {}
    for q in all_paths(params.n_states, x.size):
        p = params.initial[q[0]] * params.emission[q[0], x[0]]
        for t in range(1, x.size):
            p *= params.transition[q[t - 1], q[t]] * params.emission[q[t], x[t]]
        out[q] = p
    return out


def enumerate_hmm_tilt(x, y, bp, bm, u, cfg):
    """Brute-force tilted posterior over all (q_plus, q_minus) path pairs."""
    post_p = bp.approx_posterior(x)
    post_m = bm.approx_posterior(x)
    joint_p = enumerate_hmm_joint(x, bp.params)
    joint_m = enumerate_hmm_joint(x, bm.params)
    lik_p = sum(joint_p.values())
    lik_m = sum(joint_m.values())
    pairs = list(itertools.product(joint_p, joint_m))
    _, phi_bar = assemble(
        bp.feature_block(x, np.array([qp for qp, _ in pairs]), post_p),
        bm.feature_block(x, np.array([qm for _, qm in pairs]), post_m),
    )
    accepts = np.exp(tilt_exponents(phi_bar, y, u, cfg))
    mass = {}
    z_norm = 0.0
    for (qp, qm), accept in zip(pairs, accepts):
        w = (joint_p[qp] / lik_p) * (joint_m[qm] / lik_m) * accept
        mass[(qp, qm)] = w
        z_norm += w
    probs = {k: v / z_norm for k, v in mass.items()}
    return probs, z_norm


def two_cluster_data(n_per_class: int, rng: np.random.Generator, separation: float = 1.45):
    """Unit-variance Gaussian blobs at +/- (separation, separation)."""
    center = np.array([separation, separation])
    X_pos = rng.normal(loc=center, scale=1.0, size=(n_per_class, 2))
    X_neg = rng.normal(loc=-center, scale=1.0, size=(n_per_class, 2))
    return X_pos, X_neg


def sample_hmm_sequence(params: HmmParams, length: int, rng: np.random.Generator):
    q = rng.choice(params.n_states, p=params.initial)
    seq = np.empty(length, dtype=int)
    for t in range(length):
        seq[t] = rng.choice(params.n_symbols, p=params.emission[q])
        if t + 1 < length:
            q = rng.choice(params.n_states, p=params.transition[q])
    return seq
