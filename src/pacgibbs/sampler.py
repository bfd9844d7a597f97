"""Gibbs-rejection sampling of hidden configurations from tilted posteriors.

For a training example the target distribution over hidden pairs is the
model posterior reweighted by ``exp(-C * E_w[loss])``, which suppresses
hidden configurations that lead to misclassification.  Because the tilt
factor never exceeds 1, proposing from the exact model posteriors
``P(h+|x) P(h-|x)`` and accepting with probability equal to the tilt is a
valid rejection sampler, and the acceptance rate is an unbiased estimate
of the tilt's normalizing constant.

Proposals are made in chunks of stacked draws.  Each attempt uses one
row of uniforms: the positive model's draw, then the negative model's,
then the accept test.  A chunk holds only attempts that are certain to
run, so the sampler consumes exactly the random numbers, in the same
order, as a loop making one attempt at a time, and leaves the generator
in the same state.

Weight scale: the literal per-example weights grow like m^2/m_l, which
drives acceptance probabilities to zero for any realistic training-set
size; the default ``per_example`` scale normalizes the labeled and
unlabeled weights to 1 and keeps the sampler usable.  The ``m_squared``
scale retains the quadratic factors for small-set studies.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .features import GenerativeBackend, StochasticFeature, assemble, row_dots
from .numerics import phi_tail

WEIGHT_SCALES = ("per_example", "m_squared")


@dataclass
class TiltConfig:
    """Sampler settings: trade-off constant, set sizes, draw budget.

    ``max_attempts`` defaults to 200 proposals per requested draw.
    """

    C: float
    m: int
    m_l: int
    m_u: int
    weight_scale: str = "per_example"
    n_draws: int = 5
    max_attempts: int | None = None

    def __post_init__(self):
        if self.C < 0:
            raise InvalidArgumentError(f"C must be nonnegative, got {self.C}")
        if self.weight_scale not in WEIGHT_SCALES:
            raise InvalidArgumentError(f"unknown weight_scale {self.weight_scale!r}")
        if self.n_draws < 1:
            raise InvalidArgumentError("n_draws must be at least 1")
        if self.max_attempts is None:
            self.max_attempts = 200 * self.n_draws
        if self.max_attempts < self.n_draws:
            raise InvalidArgumentError("max_attempts must be at least n_draws")


@dataclass
class HiddenSampleSet:
    """Accepted draws for one example.

    Each entry is ``(h_plus, h_minus, feature, acceptance_exponent)``.
    ``acceptance_rate`` is accepted/attempted, the normalizing-constant
    estimate.  ``degraded`` marks the fallback path (attempts exhausted,
    best-exponent proposals kept instead of true posterior draws).
    """

    draws: list[tuple[object, object, StochasticFeature, float]]
    acceptance_rate: float
    degraded: bool = False
    attempts: int = 0

    def feature_matrix(self) -> np.ndarray:
        """Unit-norm feature rows, one per draw."""
        return np.stack([f.phi_bar for _, _, f, _ in self.draws])

    def mean_exponent(self) -> float:
        return float(np.mean([e for _, _, _, e in self.draws]))


def tilt_exponents(
    phi_bar: np.ndarray, y: int | None, u: np.ndarray, cfg: TiltConfig
) -> np.ndarray:
    """Log acceptance probabilities of k proposals (rows of ``phi_bar``); all <= 0.

    Labeled examples are weighted by the expected misclassification,
    unlabeled ones by the expected disagreement (halved, matching the
    1/(2 m_u) weight in the tilt definition).
    """
    if cfg.C == 0.0:
        return np.zeros(phi_bar.shape[0])
    a = row_dots(u, phi_bar)
    if y is None:
        coef = cfg.m**2 / cfg.m_u if cfg.weight_scale == "m_squared" else 1.0
        weight = coef * phi_tail(a) * phi_tail(-a)
    else:
        coef = cfg.m**2 / cfg.m_l if cfg.weight_scale == "m_squared" else 1.0
        weight = coef * phi_tail(y * a)
    return -cfg.C * weight


def rejection_sample(
    x,
    y: int | None,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    u: np.ndarray,
    cfg: TiltConfig,
    rng: np.random.Generator,
) -> HiddenSampleSet:
    """Draw ``cfg.n_draws`` hidden pairs from the tilted posterior of ``x``.

    Proposals come from the exact untilted posteriors of both models; a
    pair is accepted with probability ``exp(tilt exponent)``.  If the
    attempt budget runs out first, the n_draws proposals with the largest
    exponents seen so far are kept and the result is flagged degraded.
    """
    post_plus = backend_plus.approx_posterior(x)
    post_minus = backend_minus.approx_posterior(x)
    n_plus = backend_plus.uniforms_per_draw(x)
    n_minus = backend_minus.uniforms_per_draw(x)

    accepted: list[tuple[object, object, StochasticFeature, float]] = []
    best: list[tuple[float, int, tuple]] = []  # min-heap of (exponent, tiebreak, draw)
    attempts = 0
    while len(accepted) < cfg.n_draws and attempts < cfg.max_attempts:
        # Each of these attempts runs whatever the earlier ones in the chunk decide.
        k = min(cfg.n_draws - len(accepted), cfg.max_attempts - attempts)
        uniforms = rng.random((k, n_plus + n_minus + 1))
        h_plus = backend_plus.sample_hidden(x, post_plus, uniforms[:, :n_plus])
        h_minus = backend_minus.sample_hidden(x, post_minus, uniforms[:, n_plus:-1])
        phi, phi_bar = assemble(
            backend_plus.feature_block(x, h_plus, post_plus),
            backend_minus.feature_block(x, h_minus, post_minus),
        )
        exponents = tilt_exponents(phi_bar, y, u, cfg)
        accepts = np.log(uniforms[:, -1]) < exponents
        for i in range(k):
            attempts += 1
            exponent = float(exponents[i])
            draw = (h_plus[i], h_minus[i], StochasticFeature(phi[i], phi_bar[i]), exponent)
            if accepts[i]:
                accepted.append(draw)
            elif len(best) < cfg.n_draws:
                heapq.heappush(best, (exponent, attempts, draw))
            else:
                heapq.heappushpop(best, (exponent, attempts, draw))

    rate = len(accepted) / attempts
    if len(accepted) == cfg.n_draws:
        return HiddenSampleSet(draws=accepted, acceptance_rate=rate, attempts=attempts)

    # Fallback: keep the n_draws proposals with the largest exponents seen.
    pool = accepted + [entry[2] for entry in best]
    pool.sort(key=lambda draw: -draw[3])
    return HiddenSampleSet(
        draws=pool[: cfg.n_draws],
        acceptance_rate=rate,
        degraded=True,
        attempts=attempts,
    )
