"""Shared helpers: tiny fixed backends and brute-force oracles."""

from __future__ import annotations

import numpy as np

from pacgibbs.bounds import empirical_risks, stack_features
from pacgibbs.hmm import HmmParams
from pacgibbs.selftest import (  # noqa: F401  (shared with the test modules)
    enumerate_gmm_tilt,
    enumerate_hmm_joint,
    enumerate_hmm_tilt,
    tiny_gmm_pair,
    tiny_hmm_pair,
)


def one_draw_risks(u, phi_bar, y: int = 1):
    """Risks of one example with one hidden draw ``phi_bar``: ``R_S`` is the
    closed-form Gibbs error at label ``y``, ``d_S`` the closed-form
    disagreement of two independent weight draws."""
    row = [[phi_bar]]
    return empirical_risks(stack_features(row, [y]), stack_features(row), u)


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
