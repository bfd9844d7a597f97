"""Majority-vote classification of new examples.

A prediction draws ``n`` hidden pairs from the untilted model posteriors,
scores each realized feature with the trained weight mean, and thresholds
the average at zero.  Ties (score exactly 0) resolve to +1; this is a
fixed, documented convention and tests pin it.

The ``n`` pairs are one :func:`~pacgibbs.sampler.propose` stack from an
``(n, U_plus + U_minus)`` block of uniforms, the order in which ``n``
draws made one at a time consume them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .features import GenerativeBackend, row_dots
# perfbench/tracing.py patches predictor.assemble by name, so the name stays.
from .features import assemble  # noqa: F401
from .sampler import propose


@dataclass(frozen=True)
class Prediction:
    """Label in {-1, +1}, the averaged vote, and the per-draw scores."""

    label: int
    score: float
    votes: tuple[float, ...]


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
    posts = (backend_plus.approx_posterior(x), backend_minus.approx_posterior(x))
    n_uniforms = backend_plus.uniforms_per_draw(x) + backend_minus.uniforms_per_draw(x)
    uniforms = rng.random((n, n_uniforms))
    _, _, phi, phi_bar = propose(x, backend_plus, backend_minus, posts, uniforms)
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
