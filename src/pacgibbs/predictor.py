"""Majority-vote classification of new examples.

A prediction draws ``n`` hidden pairs from the untilted model posteriors,
scores each realized feature with the trained weight mean, and thresholds
the average at zero.  Ties (score exactly 0) resolve to +1; this is a
fixed, documented convention and tests pin it.

The ``n`` pairs are drawn as one stack from an ``(n, U_plus + U_minus)``
block of uniforms, each row holding the positive model's uniforms and
then the negative model's, which is the order in which ``n`` draws made
one at a time consume them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .features import GenerativeBackend, assemble, row_dots


@dataclass(frozen=True)
class Prediction:
    """Label in {-1, +1}, the averaged vote, and the per-draw scores."""

    label: int
    score: float
    votes: tuple[float, ...]


def score_example(
    x,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    u: np.ndarray,
    n: int,
    rng: np.random.Generator,
    normalized: bool = True,
) -> float:
    """Average of ``n`` per-draw scores ``u . phi`` over untilted hidden draws."""
    return float(np.mean(vote_scores(x, backend_plus, backend_minus, u, n, rng, normalized)))


def vote_scores(
    x,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    u: np.ndarray,
    n: int,
    rng: np.random.Generator,
    normalized: bool = True,
) -> list[float]:
    if n < 1:
        raise InvalidArgumentError("need at least one vote")
    post_plus = backend_plus.approx_posterior(x)
    post_minus = backend_minus.approx_posterior(x)
    n_plus = backend_plus.uniforms_per_draw(x)
    uniforms = rng.random((n, n_plus + backend_minus.uniforms_per_draw(x)))
    h_plus = backend_plus.sample_hidden(x, post_plus, uniforms[:, :n_plus])
    h_minus = backend_minus.sample_hidden(x, post_minus, uniforms[:, n_plus:])
    phi, phi_bar = assemble(
        backend_plus.feature_block(x, h_plus, post_plus),
        backend_minus.feature_block(x, h_minus, post_minus),
    )
    return row_dots(u, phi_bar if normalized else phi).tolist()


def predict(x, task, n: int = 5, rng: np.random.Generator | None = None) -> Prediction:
    """Majority-vote label for ``x`` under a trained task."""
    rng = rng if rng is not None else np.random.default_rng(0)
    votes = vote_scores(
        x,
        task.backend_plus,
        task.backend_minus,
        task.u,
        n,
        rng,
        normalized=task.predict_normalized,
    )
    score = float(np.mean(votes))
    return Prediction(label=1 if score >= 0 else -1, score=score, votes=tuple(votes))


def evaluate(dataset, task, n: int = 5, rng: np.random.Generator | None = None) -> float:
    """Fraction of correct majority-vote predictions on labeled pairs."""
    dataset = list(dataset)
    if not dataset:
        raise InvalidArgumentError("cannot evaluate on an empty dataset")
    rng = rng if rng is not None else np.random.default_rng(0)
    correct = sum(predict(x, task, n, rng).label == y for x, y in dataset)
    return correct / len(dataset)
