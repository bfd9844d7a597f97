"""Diagonal-covariance Gaussian mixture backend for fixed-dimension vectors.

Hidden variable: a one-hot component indicator ``z`` of length ``K``.
The approximate posterior over ``z`` for an input ``x`` is the vector of
responsibilities ``a``; the feature block for a realization ``(x, z, a)``
lays out, per component ``i``::

    [ z_i * x (d entries), z_i * (x*x) (d entries), z_i, z_i * log a_i ]

so the block dimension is ``K * (2d + 2)``.

Responsibilities are evaluated in log space (stable for squared distances
up to ~1e4) and floored before renormalization so that ``log a_i`` stays
finite for every component a draw can select.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .features import GenerativeBackend

DEFAULT_K = 4
POSTERIOR_FLOOR = 1e-12
# Relative scale of the per-dimension variance floor (times data variance).
VARIANCE_FLOOR_SCALE = 1e-4
_PI_FLOOR = 1e-12  # keeps log(pi_k) finite for any sampleable z


@dataclass
class GmmParams:
    """Mixture parameters: simplex weights, K x d means, K x d variances."""

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def copy(self) -> "GmmParams":
        return GmmParams(self.weights.copy(), self.means.copy(), self.variances.copy())


def _log_component_densities(x: np.ndarray, params: GmmParams) -> np.ndarray:
    """log N(x; mu_k, diag sigma2_k) for every component k."""
    diff = x[None, :] - params.means
    return -0.5 * np.sum(
        diff * diff / params.variances + np.log(2.0 * np.pi * params.variances),
        axis=1,
    )


def _logsumexp(v: np.ndarray) -> float:
    """``scipy.special.logsumexp(v)`` of a 1-d array, by scipy 1.17's own arithmetic.

    The largest entries are counted (``m``) and left out of the shifted
    sum, which is then formed over the full-length array as scipy forms
    it; a non-finite result falls back to the direct formula, as in scipy.
    """
    top = v.max()
    ties = v == top
    m = float(np.count_nonzero(ties))
    rest = np.exp(v - top)
    rest[ties] = 0.0
    out = np.log1p(rest.sum() / m) + np.log(m) + top
    return out if np.isfinite(out) else np.log(np.exp(v).sum())


def responsibilities(
    x: np.ndarray, params: GmmParams, posterior_floor: float = POSTERIOR_FLOOR
) -> np.ndarray:
    """Posterior component probabilities of ``x`` under the mixture.

    ``a_k`` is proportional to ``pi_k * N(x; mu_k, diag sigma2_k)``,
    floored at ``posterior_floor`` and renormalized.
    """
    log_a = np.log(params.weights) + _log_component_densities(np.asarray(x, float), params)
    a = np.exp(log_a - _logsumexp(log_a))
    a = np.maximum(a, posterior_floor)
    return a / a.sum()


def sample_z(a: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Categorical draws from responsibilities ``a``, one per uniform, as (k, K) one-hot rows."""
    k = np.minimum(np.searchsorted(np.cumsum(a), uniforms), a.shape[0] - 1)
    z = np.zeros((uniforms.shape[0], a.shape[0]))
    z[np.arange(k.shape[0]), k] = 1.0
    return z


def feature_block_gmm(x: np.ndarray, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(k, K(2d+2)) feature blocks for the stacked one-hot draws ``z`` of (x, a)."""
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    per_comp = np.empty((a.shape[0], 2 * d + 2))
    per_comp[:, :d] = x
    per_comp[:, d : 2 * d] = x * x
    per_comp[:, 2 * d] = 1.0
    per_comp[:, 2 * d + 1] = np.log(a)
    return (z[:, :, None] * per_comp).reshape(z.shape[0], -1)


def m_step_gmm(
    samples: list[tuple[np.ndarray, np.ndarray, float]],
    previous: GmmParams,
    variance_floor: np.ndarray,
) -> GmmParams:
    """Weighted re-estimation from (x, z, weight) triples.

    Mixture weights are proportional to assigned sample mass; means and
    variances are weighted moments of the assigned points, variances
    floored elementwise.  Components receiving zero mass keep their
    previous parameters.  An empty (or zero-weight) sample set is a
    no-op with a warning.
    """
    if not samples:
        warnings.warn("m_step_gmm called with no samples; parameters unchanged")
        return previous.copy()
    xs = np.stack([np.asarray(x, float) for x, _, _ in samples])
    zs = np.stack([z for _, z, _ in samples])
    ws = np.array([w for _, _, w in samples], dtype=float)
    if ws.sum() <= 0.0:
        warnings.warn("m_step_gmm called with zero total weight; parameters unchanged")
        return previous.copy()

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


class GmmBackend(GenerativeBackend):
    """Generative-backend adapter around the mixture operations."""

    def __init__(
        self,
        params: GmmParams,
        variance_floor: np.ndarray,
        posterior_floor: float = POSTERIOR_FLOOR,
    ):
        self.params = params
        self.variance_floor = np.asarray(variance_floor, dtype=float)
        self.posterior_floor = posterior_floor

    @classmethod
    def from_data(
        cls, data: np.ndarray, n_components: int, rng: np.random.Generator
    ) -> "GmmBackend":
        """Initialize from training vectors: means at distinct random points,
        shared global variances, uniform weights.

        Dimensions that are (near-)constant in the data get their initial
        variance floored relative to the largest per-dimension variance;
        otherwise the model-based discriminant weights (-1/(2 sigma^2))
        explode.  Later re-estimation steps may still shrink variances
        below this initial floor, down to ``variance_floor``.
        """
        data = np.atleast_2d(np.asarray(data, dtype=float))
        n, d = data.shape
        if n < 1:
            raise InvalidArgumentError("need at least one training vector")
        k = min(n_components, n)
        idx = rng.choice(n, size=k, replace=False)
        raw_var = data.var(axis=0) if n > 1 else np.ones(d)
        top = float(raw_var.max())
        global_var = np.maximum(raw_var, 1e-4 * top) if top > 0 else np.ones(d)
        params = GmmParams(
            weights=np.full(k, 1.0 / k),
            means=data[idx].copy(),
            variances=np.tile(global_var, (k, 1)),
        )
        floor = np.maximum(VARIANCE_FLOOR_SCALE * global_var, 1e-12)
        return cls(params, variance_floor=floor)

    def block_dim(self) -> int:
        return self.params.n_components * (2 * self.params.dim + 2)

    def approx_posterior(self, x) -> np.ndarray:
        return responsibilities(x, self.params, self.posterior_floor)

    def uniforms_per_draw(self, x) -> int:
        return 1

    def sample_hidden(self, x, posterior, uniforms: np.ndarray) -> np.ndarray:
        return sample_z(posterior, uniforms[:, 0])

    def feature_block(self, x, h, posterior) -> np.ndarray:
        return feature_block_gmm(x, h, posterior)

    def update_parameters(self, samples) -> None:
        self.params = m_step_gmm(samples, self.params, self.variance_floor)

    def natural_weights(self) -> np.ndarray:
        """Per component: [mu/var, -1/(2 var), log pi - quadratic/normalizer, -1].

        With these coefficients, w . block equals
        log pi_k + log N(x; mu_k, var_k) - log a_k for the selected k.
        """
        p = self.params
        blocks = []
        for k in range(p.n_components):
            mu, var = p.means[k], p.variances[k]
            const = (
                np.log(p.weights[k])
                - 0.5 * np.sum(mu * mu / var)
                - 0.5 * np.sum(np.log(2.0 * np.pi * var))
            )
            blocks.append(np.concatenate([mu / var, -0.5 / var, [const, -1.0]]))
        return np.concatenate(blocks)

    def clone(self) -> "GmmBackend":
        return GmmBackend(self.params.copy(), self.variance_floor.copy(), self.posterior_floor)
