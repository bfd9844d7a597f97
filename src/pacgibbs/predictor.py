"""Majority-vote classification of new examples.

A prediction draws ``n`` hidden pairs from the untilted model posteriors,
scores each unit-normalized feature (the ``phi_bar`` that training and
the bound use) with the trained weight mean, and thresholds the average
at zero.  Ties (score exactly 0) resolve to +1; this is a
fixed, documented convention and tests pin it.

:func:`predict` handles a list of inputs at once.  Input ``i`` takes its
``(n, U_plus + U_minus)`` block of uniforms from the shared stream after
those of inputs ``0 .. i-1``, the order in which inputs predicted one at
a time, and ``n`` draws made one at a time, consume them.  Inputs that
use as many uniforms per draw (for sequences: of one length) are
proposed, scored and voted as one :func:`~pacgibbs.sampler.propose`
stack, whose votes are one ``phi_bar @ u`` product; a vote can
therefore differ in its last bits from that of the input predicted
alone, which moves a label only for a score that close to 0.
:func:`predict` votes its inputs in blocks of at most
:data:`~pacgibbs.sampler.BLOCK_ROWS` votes, in input order, so the
stacked arrays stay small on large files and the stream runs on across
the blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .features import GenerativeBackend
# perfbench/tracing.py patches predictor.assemble by name, so the name stays.
from .features import assemble  # noqa: F401
from .sampler import blocks, propose, width_groups


@dataclass(frozen=True)
class Prediction:
    """Label in {-1, +1}, the averaged vote, and the per-draw scores."""

    label: int
    score: float
    votes: tuple[float, ...]


def vote_scores(
    xs,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    u: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(len(xs), n) vote scores of the inputs ``xs``, row ``i`` for input ``i``."""
    if n < 1:
        raise InvalidArgumentError("need at least one vote")
    widths, groups = width_groups(xs, backend_plus, backend_minus)
    stream = rng.random(n * sum(widths))
    starts = n * np.cumsum([0] + widths[:-1], dtype=int)
    votes = np.empty((len(xs), n))
    for idx in groups:
        width = widths[idx[0]]
        group = [xs[i] for i in idx]
        posts = (backend_plus.approx_posterior(group), backend_minus.approx_posterior(group))
        uniforms = stream[starts[idx][:, None] + np.arange(n * width)].reshape(-1, width)
        _, _, phi_bar = propose(group, backend_plus, backend_minus, posts, uniforms)
        votes[idx] = (phi_bar @ u).reshape(len(idx), n)
    return votes


def predict(xs, task, n: int = 5, rng: np.random.Generator | None = None) -> list[Prediction]:
    """Majority-vote labels for the list of inputs ``xs`` under a trained task, in input order."""
    rng = rng if rng is not None else np.random.default_rng(0)
    predictions = []
    for block in blocks(len(xs), n):
        votes = vote_scores(xs[block], task.backend_plus, task.backend_minus, task.u, n, rng)
        predictions += [
            Prediction(label=1 if score >= 0 else -1, score=score, votes=tuple(row))
            for score, row in zip(votes.mean(axis=1).tolist(), votes.tolist())
        ]
    return predictions


def evaluate(dataset, task, n: int = 5, rng: np.random.Generator | None = None) -> float:
    """Fraction of correct majority-vote predictions on labeled pairs."""
    dataset = list(dataset)
    if not dataset:
        raise InvalidArgumentError("cannot evaluate on an empty dataset")
    predictions = predict([x for x, _ in dataset], task, n, rng)
    return sum(p.label == y for p, (_, y) in zip(predictions, dataset)) / len(dataset)
