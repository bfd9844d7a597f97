"""Discrete-output hidden Markov backend for variable-length sequences.

Hidden variable: a state path ``q`` (stored as an int array of state
indices, one per time step).  Inference uses the scaled forward-backward
recursions; exact path draws use forward-filter backward-sampling, so the
proposal distribution is exactly P(q | x) as the rejection rule requires.
Forward-backward takes one stack of equal-length sequences and runs one
time step at a time for all of them, into one :class:`HmmPosterior`
with a leading stack axis.  Paths are drawn in stacks:
k paths of each of B length-L sequences use a (B*k, L) block of
uniforms, column ``j`` for time step ``L-1-j``, in the order a single
backward pass consumes them.

The feature block for a realization ``(x, q)`` stacks, in order::

    [ initial-state indicator        (M entries)
      transition counts n_ij         (M*M, row-major)
      n_ij * log Apost_ij            (M*M)
      state-symbol co-occurrences    (M*K_out) ]

where ``Apost`` is the per-example posterior transition matrix estimated
from that example's pairwise marginals.  All probability rows are floored
at ``PROB_FLOOR`` so the ``log Apost`` entries stay finite.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, InvalidSequenceError
from .features import GenerativeBackend

DEFAULT_STATES = 10
DEFAULT_SYMBOLS = 22
PROB_FLOOR = 1e-8


def _floor_rows(p: np.ndarray, floor: float) -> np.ndarray:
    """Floor entries then renormalize rows (or a single distribution)."""
    p = np.maximum(p, floor)
    return p / p.sum(axis=-1, keepdims=True)


@dataclass
class HmmParams:
    """Initial distribution, row-stochastic transition and emission matrices."""

    initial: np.ndarray
    transition: np.ndarray
    emission: np.ndarray

    @property
    def n_states(self) -> int:
        return self.initial.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.emission.shape[1]

    def copy(self) -> "HmmParams":
        return HmmParams(self.initial.copy(), self.transition.copy(), self.emission.copy())


@dataclass
class HmmPosterior:
    """Exact posteriors of a stack of B equal-length sequences under fixed parameters.

    gamma: per-time state marginals, shape (B, L, M).
    xi: per-time pairwise marginals, shape (B, L-1, M, M); each slice sums to 1.
    transition_post: (B, M, M) row-normalized sums of xi over time (uniform
        rows where a state carries no visit mass), floored: the posterior
        transition matrices whose logs enter the feature blocks.
    alphas: (B, L, M) scaled forward variables, kept for backward sampling.
    log_likelihood: (B,) log P(x) from the forward scaling constants.
    """

    gamma: np.ndarray
    xi: np.ndarray
    transition_post: np.ndarray
    alphas: np.ndarray
    log_likelihood: np.ndarray

    def __getitem__(self, index) -> "HmmPosterior":
        """Every field indexed along the stack axis: a slice is a smaller stack,
        an integer one sequence's posterior without the B axis."""
        return HmmPosterior(*(getattr(self, f.name)[index] for f in fields(self)))


def _check_tokens(xs, n_symbols: int) -> np.ndarray:
    """The (B, L) token array of a stack of equal-length sequences."""
    lengths = {np.size(x) for x in xs}
    if len(lengths) > 1:
        raise InvalidSequenceError(f"a stack of sequences needs one length, got {sorted(lengths)}")
    X = np.asarray(xs, dtype=int)
    if X.ndim != 2 or X.size < 1:
        raise InvalidSequenceError("sequence must be a 1-d token array of length >= 1")
    if np.any(X < 0) or np.any(X >= n_symbols):
        bad = int(X[(X < 0) | (X >= n_symbols)][0])
        raise InvalidSequenceError(f"token {bad} outside alphabet of size {n_symbols}")
    return X


def forward_backward(xs, params: HmmParams, prob_floor: float = PROB_FLOOR) -> HmmPosterior:
    """Posteriors of a stack of equal-length sequences, one time step at a time for all B.

    Every sequence gets the bits of a pass over that sequence alone: each
    ``alpha @ A`` is a stacked (B, 1, M) @ (M, M) product and each
    ``A @ v`` a stacked (M, M) @ (B, M, 1) one, which numpy computes with
    the same BLAS call per row as the 1-d product; each scale is one
    ``sum(axis=1)`` over a C-contiguous (B, M) array, which reduces every
    row with the same pairwise loop as its 1-d ``sum()``; the rest is
    elementwise or sums over time, which run in the same order.
    """
    X = _check_tokens(xs, params.n_symbols)
    B, L = X.shape
    M = params.n_states
    A = params.transition
    emit = params.emission.T[X]  # (B, L, M)

    alphas = np.empty((B, L, M))
    scales = np.empty((B, L))
    alpha = params.initial * emit[:, 0]
    for t in range(L):
        if t > 0:
            alpha = (alpha[:, None, :] @ A)[:, 0] * emit[:, t]
        scales[:, t] = alpha.sum(axis=1)
        alpha = alpha / scales[:, t, None]
        alphas[:, t] = alpha

    betas = np.empty((B, L, M))
    betas[:, L - 1] = 1.0
    for t in range(L - 2, -1, -1):
        v = emit[:, t + 1] * betas[:, t + 1]
        betas[:, t] = (A @ v[:, :, None])[:, :, 0] / scales[:, t + 1, None]

    gamma = alphas * betas
    xi = (
        alphas[:, :-1, :, None]
        * A
        * (emit[:, 1:] * betas[:, 1:])[:, :, None, :]
        / scales[:, 1:, None, None]
    )

    counts = xi.sum(axis=1) if L > 1 else np.zeros((B, M, M))
    row_mass = counts.sum(axis=2)
    a_post = np.full((B, M, M), 1.0 / M)
    occupied = row_mass > 0.0
    a_post[occupied] = counts[occupied] / row_mass[occupied][:, None]
    a_post = _floor_rows(a_post, prob_floor)
    return HmmPosterior(gamma, xi, a_post, alphas, np.log(scales).sum(axis=1))


def sample_paths(params: HmmParams, posterior: HmmPosterior, uniforms: np.ndarray) -> np.ndarray:
    """k exact draws from P(q | x) for each of B equal-length sequences, by
    backward sampling of the forward filter.

    ``posterior`` is the B sequences' stacked posterior and ``uniforms`` is
    (B*k, L): sequence ``i`` draws with rows ``i*k`` to ``(i+1)*k - 1``,
    column ``j`` at time step ``L-1-j``.  Returns the (B*k, L) int paths
    in the same row order.  A step picks the first state whose running
    total reaches ``total * u``.  Each step's totals are one ``sum(axis=2)``
    over the (B, k, M) stack of contiguous rows, which reduces every row
    with the same pairwise loop as that row's 1-d ``sum()``.  For eight or more
    states that pairwise sum can differ in the last bit from ``cumsum``,
    so the running total's last entry is not used.
    """
    alphas = posterior.alphas
    B, L, M = alphas.shape
    u = uniforms.reshape(B, -1, L)
    q = np.empty(u.shape, dtype=int)
    back = params.transition.T
    p = alphas[:, L - 1, None, :]  # the last step of every path of a sequence uses it
    for j, t in enumerate(range(L - 1, -1, -1)):
        if t < L - 1:
            p = alphas[:, t, None, :] * back[q[:, :, t + 1]]
        totals = p.sum(axis=2)
        below = np.cumsum(p, axis=2) < (totals * u[:, :, j])[:, :, None]
        q[:, :, t] = np.minimum(below.sum(axis=2), M - 1)
    return q.reshape(-1, L)


def feature_block_hmm(
    X: np.ndarray, q: np.ndarray, transition_post: np.ndarray, n_symbols: int
) -> np.ndarray:
    """(B*k, M + 2*M^2 + M*K_out) feature blocks of B equal-length sequences' stacked paths.

    ``X`` is the (B, L) token array, ``transition_post`` the (B, M, M)
    posterior transition matrices, and ``q`` the (B*k, L) paths, sequence
    ``i``'s in rows ``i*k`` to ``(i+1)*k - 1``.
    """
    R, L = q.shape
    B, M = transition_post.shape[:2]
    k = R // B
    draw = np.arange(R)[:, None]
    init = np.zeros((R, M))
    init[draw[:, 0], q[:, 0]] = 1.0
    trans_idx = (draw * M + q[:, :-1]) * M + q[:, 1:]
    trans_counts = np.bincount(trans_idx.ravel(), minlength=R * M * M).reshape(R, M * M)
    emit_idx = (draw * M + q) * n_symbols + np.repeat(X, k, axis=0)
    emit_counts = np.bincount(emit_idx.ravel(), minlength=R * M * n_symbols)
    log_post = np.repeat(np.log(transition_post).reshape(B, M * M), k, axis=0)
    return np.concatenate(
        [
            init,
            trans_counts,
            trans_counts * log_post,
            emit_counts.reshape(R, M * n_symbols),
        ],
        axis=1,
    )


def m_step_hmm(
    samples: list[tuple[np.ndarray, np.ndarray]],
    previous: HmmParams,
    prob_floor: float = PROB_FLOOR,
) -> HmmParams:
    """Re-estimation of initial/transition/emission from (x, paths) pairs,
    ``paths`` the (n, L) stacked state paths of the length-L sequence ``x``.

    Every count is an exact integer, so its value, and each row's total,
    do not depend on the order of the draws.  A row with no counts
    becomes uniform.  An empty sample set is a no-op with a warning.
    """
    if not samples:
        warnings.warn("m_step_hmm called with no samples; parameters unchanged")
        return previous.copy()
    M, K = previous.n_states, previous.n_symbols
    xs = [np.asarray(x, dtype=int) for x, _ in samples]
    qs = [np.asarray(q, dtype=int) for _, q in samples]
    init = np.concatenate([q[:, 0] for q in qs])
    trans = np.concatenate([(q[:, :-1] * M + q[:, 1:]).ravel() for q in qs])
    emit = np.concatenate([(q * K + x).ravel() for x, q in zip(xs, qs)])

    def normalize(indices: np.ndarray, rows: int, cols: int) -> np.ndarray:
        counts = np.bincount(indices, minlength=rows * cols).reshape(rows, cols).astype(float)
        totals = counts.sum(axis=1, keepdims=True)
        out = np.full(counts.shape, 1.0 / cols)
        np.divide(counts, totals, out=out, where=totals > 0)
        return _floor_rows(out, prob_floor)

    return HmmParams(
        initial=normalize(init, 1, M)[0],
        transition=normalize(trans, M, M),
        emission=normalize(emit, M, K),
    )


class HmmBackend(GenerativeBackend):
    """Generative-backend adapter around the HMM operations."""

    def __init__(self, params: HmmParams, prob_floor: float = PROB_FLOOR):
        self.params = params
        self.prob_floor = prob_floor

    @classmethod
    def from_data(
        cls,
        sequences: list[np.ndarray],
        n_states: int,
        n_symbols: int,
        rng: np.random.Generator,
    ) -> "HmmBackend":
        """Initialize with uniform start, perturbed-uniform transitions, and
        emissions biased toward the empirical symbol frequencies."""
        if not sequences:
            raise InvalidArgumentError("need at least one training sequence")
        freq = np.zeros(n_symbols)
        for s in sequences:
            np.add.at(freq, np.asarray(s, dtype=int), 1.0)
        freq = _floor_rows(freq / freq.sum(), PROB_FLOOR)
        transition = _floor_rows(1.0 + 0.5 * rng.random((n_states, n_states)), PROB_FLOOR)
        emission = _floor_rows(freq[None, :] * (1.0 + 0.5 * rng.random((n_states, n_symbols))), PROB_FLOOR)
        params = HmmParams(
            initial=np.full(n_states, 1.0 / n_states),
            transition=transition,
            emission=emission,
        )
        return cls(params)

    def block_dim(self) -> int:
        M = self.params.n_states
        return M + 2 * M * M + M * self.params.n_symbols

    def approx_posterior(self, xs) -> HmmPosterior:
        return forward_backward(xs, self.params, self.prob_floor)

    def uniforms_per_draw(self, x) -> int:
        return len(x)

    def sample_hidden(self, posterior, uniforms: np.ndarray) -> np.ndarray:
        return sample_paths(self.params, posterior, uniforms)

    def feature_block(self, xs, h, posterior) -> np.ndarray:
        return feature_block_hmm(
            np.asarray(xs, dtype=int), h, posterior.transition_post, self.params.n_symbols
        )

    def update_parameters(self, samples) -> None:
        self.params = m_step_hmm(samples, self.params, self.prob_floor)

    def natural_weights(self) -> np.ndarray:
        """[log initial; log transition; -1 per posterior-transition term; log emission].

        With these coefficients, w . block equals log P(x, q) minus the
        transition part of the posterior path probability.
        """
        p = self.params
        return np.concatenate(
            [
                np.log(p.initial),
                np.log(p.transition).ravel(),
                -np.ones(p.n_states * p.n_states),
                np.log(p.emission).ravel(),
            ]
        )

    def clone(self) -> "HmmBackend":
        return HmmBackend(self.params.copy(), self.prob_floor)
