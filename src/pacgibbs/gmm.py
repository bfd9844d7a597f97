"""Diagonal-covariance Gaussian mixture backend for fixed-dimension vectors.

Hidden variable: a one-hot component indicator ``z`` of length ``K``.
The approximate posterior over ``z`` for an input ``x`` is the vector of
responsibilities ``a``; the feature block for a realization ``(x, z, a)``
lays out, per component ``i``::

    [ z_i * x (d entries), z_i * (x*x) (d entries), z_i, z_i * log a_i ]

so the block dimension is ``K * (2d + 2)``.

Responsibilities are evaluated in log space (stable for squared distances
up to ~1e4) and floored before renormalization so that ``log a_i`` stays
finite for every component a draw can select.  A stack of m inputs has
one (m, K) responsibility array; each row has the bits of that input's
responsibilities computed alone.
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


def _log_component_densities(X: np.ndarray, params: GmmParams) -> np.ndarray:
    """(m, K) log N(x; mu_k, diag sigma2_k) for every row x of ``X`` and component k."""
    diff = X[:, None, :] - params.means
    return -0.5 * np.sum(
        diff * diff / params.variances + np.log(2.0 * np.pi * params.variances),
        axis=2,
    )


def _logsumexp(v: np.ndarray) -> np.ndarray:
    """``log(sum(exp(row)))`` of every row of a 2-d array, shifted by the row's maximum.

    A row whose maximum is not finite is not shifted, so a row of -inf
    gives -inf and a row holding +inf gives +inf.
    """
    top = v.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    return np.log(np.exp(v - top).sum(axis=1)) + top[:, 0]


def responsibilities(
    xs, params: GmmParams, posterior_floor: float = POSTERIOR_FLOOR
) -> np.ndarray:
    """(m, K) posterior component probabilities of the m vectors ``xs``.

    ``xs`` is a sequence of m vectors or an (m, d) array.  Row ``i`` holds
    ``a_k`` proportional to ``pi_k * N(x_i; mu_k, diag sigma2_k)``, floored
    at ``posterior_floor`` and renormalized.
    """
    X = np.asarray(xs, dtype=float).reshape(len(xs), params.dim)
    log_a = np.log(params.weights) + _log_component_densities(X, params)
    a = np.exp(log_a - _logsumexp(log_a)[:, None])
    a = np.maximum(a, posterior_floor)
    return a / a.sum(axis=1, keepdims=True)


def sample_z(a: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Categorical draws from (B, K) responsibilities ``a``, as (B*k, K) one-hot rows.

    Row ``i`` of ``a`` draws k components from uniforms ``i*k`` to
    ``(i+1)*k - 1`` of the (B*k,) ``uniforms``.  A draw picks the first
    component whose running total reaches its uniform: the count of
    totals below it, which is what ``searchsorted`` returns.
    """
    B, K = a.shape
    u = uniforms.reshape(B, -1)
    below = np.cumsum(a, axis=1)[:, None, :] < u[:, :, None]
    k = np.minimum(below.sum(axis=2), K - 1).ravel()
    z = np.zeros((k.shape[0], K))
    z[np.arange(k.shape[0]), k] = 1.0
    return z


def feature_block_gmm(xs, z: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(B*k, K(2d+2)) feature blocks of the B vectors ``xs`` and their stacked draws.

    ``a`` holds the (B, K) responsibilities and ``z`` k one-hot draws per
    vector, vector ``i``'s in rows ``i*k`` to ``(i+1)*k - 1``.
    """
    B, K = a.shape
    X = np.asarray(xs, dtype=float).reshape(B, -1)
    d = X.shape[1]
    per_comp = np.empty((B, K, 2 * d + 2))
    per_comp[:, :, :d] = X[:, None, :]
    per_comp[:, :, d : 2 * d] = (X * X)[:, None, :]
    per_comp[:, :, 2 * d] = 1.0
    per_comp[:, :, 2 * d + 1] = np.log(a)
    return (z.reshape(B, -1, K, 1) * per_comp[:, None]).reshape(z.shape[0], -1)


def m_step_gmm(
    samples: list[tuple[np.ndarray, np.ndarray]],
    previous: GmmParams,
    variance_floor: np.ndarray,
) -> GmmParams:
    """Re-estimation from (x, draws) pairs, ``draws`` the (n, K) one-hot draws of ``x``.

    Mixture weights are proportional to the number of draws assigned;
    means and variances are the moments of the assigned points, variances
    floored elementwise.  Components receiving no draws keep their
    previous parameters.  An empty sample set is a no-op with a warning.
    """
    if not samples:
        warnings.warn("m_step_gmm called with no samples; parameters unchanged")
        return previous.copy()
    zs = np.concatenate([z for _, z in samples])
    xs = np.repeat(np.array([x for x, _ in samples], float), [len(z) for _, z in samples], axis=0)

    mass = zs.sum(axis=0)
    new = previous.copy()
    new.weights = np.maximum(mass / len(zs), _PI_FLOOR)
    new.weights /= new.weights.sum()
    for k in np.flatnonzero(mass > 0.0):
        wk = zs[:, k]
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

    def approx_posterior(self, xs) -> np.ndarray:
        return responsibilities(xs, self.params, self.posterior_floor)

    def uniforms_per_draw(self, x) -> int:
        return 1

    def sample_hidden(self, posterior, uniforms: np.ndarray) -> np.ndarray:
        return sample_z(posterior, uniforms[:, 0])

    def feature_block(self, xs, h, posterior) -> np.ndarray:
        return feature_block_gmm(xs, h, posterior)

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
