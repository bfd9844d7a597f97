"""Stochastic feature assembly and the generative-backend contract.

A feature vector is a function of an input ``x`` and one sampled hidden
configuration from each of the two class-conditional generative models.
Each backend contributes a fixed-dimension block of sufficient-statistic
style values; the assembled vector is ``[block_plus; block_minus; 1]``.
The trailing constant makes the last classifier weight act as the bias
term, so no separate bias parameter exists anywhere in the system.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import InvalidFeatureError


def row_dots(v: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``v @ row`` for every row of a (k, D) array, as a length-k array.

    The stacked product multiplies k (1, D) @ (D, 1) pairs, and numpy
    computes each pair with the same BLAS dot call as ``v @ row``, so
    every entry has the bits of the single-row product.  ``rows @ v``
    (one matrix-vector product) and ``einsum`` sum in other orders.
    """
    return (v @ rows[:, :, None])[:, 0]


def assemble(blocks_plus: np.ndarray, blocks_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked feature vectors of k draws from their (k, B) backend blocks.

    Returns ``(phi, phi_bar)``, both (k, B_plus + B_minus + 1): row ``i``
    is ``[blocks_plus[i]; blocks_minus[i]; 1]`` and its unit-normalized
    form; the trailing 1 keeps every norm at least 1.  Each norm is
    ``sqrt(row . row)``, which is how ``np.linalg.norm(row)`` computes it.
    Raises :class:`InvalidFeatureError` if a block contains NaN or
    infinities.
    """
    bp = np.asarray(blocks_plus, dtype=float)
    bm = np.asarray(blocks_minus, dtype=float)
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(bm))):
        raise InvalidFeatureError("feature blocks must be finite")
    phi = np.concatenate([bp, bm, np.ones((bp.shape[0], 1))], axis=1)
    norms = np.sqrt((phi[:, None, :] @ phi[:, :, None])[:, 0, 0])
    return phi, phi / norms[:, None]


class GenerativeBackend(ABC):
    """Contract every class-conditional generative model must satisfy.

    Hidden draws come in stacks: a call draws k configurations at once
    from ``k`` rows of uniforms, ``uniforms_per_draw(x)`` per row, and
    every draw is a function of its own row alone.  That keeps the draws
    of a stack equal to k single draws from the same uniforms in turn.

    Parameters are immutable during a sampling pass; ``update_parameters``
    is the only mutator and must not run concurrently with inference.
    """

    @abstractmethod
    def block_dim(self) -> int:
        """Dimension of the feature block this backend emits."""

    @abstractmethod
    def approx_posterior(self, x):
        """Posterior parameters of the hidden variables given ``x``."""

    @abstractmethod
    def uniforms_per_draw(self, x) -> int:
        """Uniforms in [0, 1) that one draw of the hidden variables of ``x`` uses."""

    @abstractmethod
    def sample_hidden(self, x, posterior, uniforms: np.ndarray):
        """k exact draws from P(h | x), stacked, one per row of the (k, U) ``uniforms``."""

    @abstractmethod
    def feature_block(self, x, h, posterior) -> np.ndarray:
        """(k, block_dim()) feature blocks for the k stacked draws ``h`` of ``x``."""

    @abstractmethod
    def update_parameters(self, samples) -> None:
        """Re-estimate parameters from weighted (x, h) pairs; exclusive."""

    @abstractmethod
    def natural_weights(self) -> np.ndarray:
        """Coefficients w with w . (a feature block of (x, h)) equal to the
        variational free-energy integrand log P(x, h) - log Q(h) (up to
        h-independent terms).  Used to seed the classifier near the
        model-based discriminant."""

    @abstractmethod
    def clone(self) -> "GenerativeBackend":
        """Deep copy; restarts mutate their own copy."""
