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
from dataclasses import dataclass

import numpy as np

from .errors import InvalidFeatureError


@dataclass(frozen=True)
class StochasticFeature:
    """One realized feature vector and its unit-normalized form.

    ``phi`` is ``[block_plus; block_minus; 1]``; ``phi_bar = phi/||phi||``
    (the trailing 1 guarantees ``||phi|| >= 1``, so normalization never
    divides by zero).
    """

    phi: np.ndarray
    phi_bar: np.ndarray


def assemble(block_plus: np.ndarray, block_minus: np.ndarray) -> StochasticFeature:
    """Concatenate two backend feature blocks with a trailing constant 1.

    Raises :class:`InvalidFeatureError` if either block contains NaN or
    infinities.
    """
    bp = np.asarray(block_plus, dtype=float).ravel()
    bm = np.asarray(block_minus, dtype=float).ravel()
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(bm))):
        raise InvalidFeatureError("feature blocks must be finite")
    phi = np.concatenate([bp, bm, [1.0]])
    phi_bar = phi / np.linalg.norm(phi)
    return StochasticFeature(phi=phi, phi_bar=phi_bar)


class GenerativeBackend(ABC):
    """Contract every class-conditional generative model must satisfy.

    Parameters are immutable during a sampling pass; ``update_parameters``
    is the only mutator and must not run concurrently with inference.
    ``joint_log_density`` must be finite for any hidden configuration
    that ``sample_hidden`` can produce.
    """

    @abstractmethod
    def block_dim(self) -> int:
        """Dimension of the feature block this backend emits."""

    @abstractmethod
    def approx_posterior(self, x):
        """Posterior parameters of the hidden variables given ``x``."""

    @abstractmethod
    def sample_hidden(self, x, posterior, rng: np.random.Generator):
        """One exact draw from P(h | x) under the current parameters."""

    @abstractmethod
    def joint_log_density(self, x, h) -> float:
        """log P(x, h) under the current parameters."""

    @abstractmethod
    def feature_block(self, x, h, posterior) -> np.ndarray:
        """Feature block for the realization (x, h); length == block_dim()."""

    @abstractmethod
    def update_parameters(self, samples) -> None:
        """Re-estimate parameters from weighted (x, h) pairs; exclusive."""

    @abstractmethod
    def natural_weights(self) -> np.ndarray:
        """Coefficients w with w . feature_block(x, h, post) equal to the
        variational free-energy integrand log P(x, h) - log Q(h) (up to
        h-independent terms).  Used to seed the classifier near the
        model-based discriminant."""

    @abstractmethod
    def clone(self) -> "GenerativeBackend":
        """Deep copy; restarts mutate their own copy."""
