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
from .features import GenerativeBackend, assemble, row_dots
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
    """Kept draws for one example, stacked in draw order.

    Row ``i`` of ``h_plus`` and ``h_minus`` is the hidden pair of draw
    ``i``, row ``i`` of ``phi_bar`` its unit-norm feature and
    ``exponents[i]`` its log acceptance probability.  ``acceptance_rate``
    is accepted/attempted, the normalizing-constant estimate.
    ``degraded`` marks the fallback path (attempts exhausted,
    best-exponent proposals kept instead of true posterior draws).
    """

    h_plus: np.ndarray
    h_minus: np.ndarray
    phi_bar: np.ndarray
    exponents: np.ndarray
    acceptance_rate: float
    degraded: bool = False
    attempts: int = 0


def propose(
    x,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    posts: tuple,
    uniforms: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """k untilted proposals for ``x``, one per row of the (k, U_plus + U_minus) ``uniforms``.

    ``posts`` holds both models' posteriors of ``x``.  Each row's first
    U_plus uniforms draw the positive model's hidden configuration, the
    rest the negative model's.  Returns the stacked ``(h_plus, h_minus,
    phi, phi_bar)``.
    """
    post_plus, post_minus = posts
    n_plus = backend_plus.uniforms_per_draw(x)
    h_plus = backend_plus.sample_hidden(x, post_plus, uniforms[:, :n_plus])
    h_minus = backend_minus.sample_hidden(x, post_minus, uniforms[:, n_plus:])
    phi, phi_bar = assemble(
        backend_plus.feature_block(x, h_plus, post_plus),
        backend_minus.feature_block(x, h_minus, post_minus),
    )
    return h_plus, h_minus, phi, phi_bar


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
    posts = (backend_plus.approx_posterior(x), backend_minus.approx_posterior(x))
    n_uniforms = backend_plus.uniforms_per_draw(x) + backend_minus.uniforms_per_draw(x) + 1

    chunks = []  # (h_plus, h_minus, phi_bar, exponents) of each chunk of proposals
    accepted: list[int] = []  # attempt indices
    best: list[tuple[float, int]] = []  # min-heap of (exponent, attempt index)
    attempts = 0
    while len(accepted) < cfg.n_draws and attempts < cfg.max_attempts:
        # Each of these attempts runs whatever the earlier ones in the chunk decide.
        k = min(cfg.n_draws - len(accepted), cfg.max_attempts - attempts)
        uniforms = rng.random((k, n_uniforms))
        h_plus, h_minus, _, phi_bar = propose(
            x, backend_plus, backend_minus, posts, uniforms[:, :-1]
        )
        exponents = tilt_exponents(phi_bar, y, u, cfg)
        chunks.append((h_plus, h_minus, phi_bar, exponents))
        accepts = np.log(uniforms[:, -1]) < exponents
        accepted += (attempts + np.flatnonzero(accepts)).tolist()
        for i in np.flatnonzero(~accepts).tolist():
            entry = (float(exponents[i]), attempts + i)
            if len(best) < cfg.n_draws:
                heapq.heappush(best, entry)
            else:
                heapq.heappushpop(best, entry)
        attempts += k

    h_plus, h_minus, phi_bar, exponents = (np.concatenate(arrays) for arrays in zip(*chunks))
    keep = accepted
    degraded = len(accepted) < cfg.n_draws
    if degraded:
        # Fallback: keep the n_draws proposals with the largest exponents
        # seen; ties keep accepted draws first, then the heap's list order.
        pool = accepted + [i for _, i in best]
        keep = sorted(pool, key=lambda i: -exponents[i])[: cfg.n_draws]
    return HiddenSampleSet(
        h_plus[keep],
        h_minus[keep],
        phi_bar[keep],
        exponents[keep],
        acceptance_rate=len(accepted) / attempts,
        degraded=degraded,
        attempts=attempts,
    )
