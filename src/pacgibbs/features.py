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


def assemble(blocks_plus: np.ndarray, blocks_minus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked feature vectors of k draws from their (k, B) backend blocks.

    Returns ``(phi, phi_bar)``, both (k, B_plus + B_minus + 1): row ``i``
    is ``[blocks_plus[i]; blocks_minus[i]; 1]`` and its unit-normalized
    form; the trailing 1 keeps every norm at least 1.  Raises
    :class:`InvalidFeatureError` if a block contains NaN or infinities.
    """
    bp = np.asarray(blocks_plus, dtype=float)
    bm = np.asarray(blocks_minus, dtype=float)
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(bm))):
        raise InvalidFeatureError("feature blocks must be finite")
    phi = np.concatenate([bp, bm, np.ones((bp.shape[0], 1))], axis=1)
    return phi, phi / np.linalg.norm(phi, axis=1, keepdims=True)


class GenerativeBackend(ABC):
    """Contract every class-conditional generative model must satisfy.

    Each inference method takes one ``sampler.width_groups`` group: a
    list ``xs`` of B inputs with one ``uniforms_per_draw`` (for sequences:
    one length).  ``approx_posterior(xs)`` returns one stacked posterior
    whose first axis is the input, ``post[i : i + 1]`` being input
    ``i``'s, and gives every input the bits of a call on it alone.
    ``sample_hidden`` draws k configurations per input from B*k rows of
    uniforms, input ``i``'s in rows ``i*k`` to ``(i+1)*k - 1``.  Every
    draw is a function of its own row alone, which keeps the draws of a
    stack equal to single draws from the same uniforms in turn.

    Parameters are immutable during a sampling pass; ``update_parameters``
    is the only mutator and must not run concurrently with inference.
    """

    @abstractmethod
    def block_dim(self) -> int:
        """Dimension of the feature block this backend emits."""

    @abstractmethod
    def approx_posterior(self, xs):
        """Posterior parameters of the hidden variables of each input in ``xs``."""

    @abstractmethod
    def uniforms_per_draw(self, x) -> int:
        """Uniforms in [0, 1) that one draw of the hidden variables of ``x`` uses."""

    @abstractmethod
    def sample_hidden(self, posterior, uniforms: np.ndarray):
        """k exact draws from P(h | x) per input of the stacked ``posterior``,
        one per row of the (B*k, U) ``uniforms``."""

    @abstractmethod
    def feature_block(self, xs, h, posterior) -> np.ndarray:
        """(B*k, block_dim()) feature blocks for the stacked draws ``h`` of ``xs``."""

    @abstractmethod
    def update_parameters(self, samples) -> None:
        """Re-estimate parameters from (x, draws) pairs, ``draws`` the stacked
        hidden draws of one input; exclusive."""

    @abstractmethod
    def natural_weights(self) -> np.ndarray:
        """Coefficients w with w . (a feature block of (x, h)) equal to the
        variational free-energy integrand log P(x, h) - log Q(h) (up to
        h-independent terms).  Used to seed the classifier near the
        model-based discriminant."""

    @abstractmethod
    def clone(self) -> "GenerativeBackend":
        """Deep copy; each training run mutates its own copy."""
