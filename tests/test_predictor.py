"""Majority-vote prediction: tie-break, invariances, enumeration oracle."""

import numpy as np
import pytest

from conftest import tiny_gmm_pair
from pacgibbs.errors import InvalidArgumentError
from pacgibbs.features import assemble
from pacgibbs.predictor import evaluate, predict
from pacgibbs.trainer import TrainedTask


def make_task(u=None, normalized=True):
    bp, bm = tiny_gmm_pair()
    dim = 2 * bp.block_dim() + 1
    if u is None:
        u = np.random.default_rng(0).normal(size=dim)
    return TrainedTask(
        u0=np.zeros(dim),
        u=np.asarray(u, float),
        C=1.0,
        backend_plus=bp,
        backend_minus=bm,
        history=[],
        predict_normalized=normalized,
    )


class TestPredict:
    def test_positive_score_labels_positive(self):
        task = make_task()
        p = predict(np.array([0.4]), task, n=1, rng=np.random.default_rng(1))
        assert p.label == (1 if p.score > 0 else -1)
        assert len(p.votes) == 1

    def test_zero_weight_ties_to_plus_one(self):
        task = make_task(u=np.zeros(2 * tiny_gmm_pair()[0].block_dim() + 1))
        p = predict(np.array([0.4]), task, n=5, rng=np.random.default_rng(2))
        assert p.score == 0.0
        assert p.label == 1

    def test_sign_invariant_to_positive_rescaling(self):
        base = make_task()
        scaled = make_task(u=3.7 * base.u)
        for x in (np.array([0.3]), np.array([-1.2]), np.array([2.0])):
            a = predict(x, base, n=5, rng=np.random.default_rng(3))
            b = predict(x, scaled, n=5, rng=np.random.default_rng(3))
            assert a.label == b.label
            assert b.score == pytest.approx(3.7 * a.score, rel=1e-12)

    def test_seeded_repeatability(self):
        task = make_task()
        a = predict(np.array([0.7]), task, n=5, rng=np.random.default_rng(11))
        b = predict(np.array([0.7]), task, n=5, rng=np.random.default_rng(11))
        assert a == b

    def test_mean_score_matches_enumeration(self):
        task = make_task()
        bp, bm = task.backend_plus, task.backend_minus
        x = np.array([0.6])
        a_p, a_m = bp.approx_posterior(x), bm.approx_posterior(x)
        # Every (z_plus, z_minus) pair as one stack, z_plus-major.
        z_p, z_m = np.repeat(np.eye(2), 2, axis=0), np.tile(np.eye(2), (2, 1))
        _, phi_bar = assemble(bp.feature_block(x, z_p, a_p), bm.feature_block(x, z_m, a_m))
        oracle = 0.0
        for (i, j), row in zip(np.ndindex(2, 2), phi_bar):
            oracle += a_p[i] * a_m[j] * float(task.u @ row)
        score = predict(x, task, 20_000, np.random.default_rng(4)).score
        assert score == pytest.approx(oracle, abs=0.01)

    def test_unnormalized_scoring_flag(self):
        task_n = make_task(normalized=True)
        task_r = make_task(normalized=False)
        x = np.array([1.1])
        a = predict(x, task_n, n=3, rng=np.random.default_rng(5))
        b = predict(x, task_r, n=3, rng=np.random.default_rng(5))
        # same hidden draws, different scoring vector scale
        assert a.score != b.score

    def test_rejects_zero_votes(self):
        with pytest.raises(InvalidArgumentError):
            predict(np.array([0.0]), make_task(), n=0, rng=np.random.default_rng(6))

    def test_invalid_input_surfaces_backend_error(self):
        from conftest import tiny_hmm_pair
        from pacgibbs.errors import InvalidSequenceError

        bp, bm = tiny_hmm_pair()
        dim = 2 * bp.block_dim() + 1
        task = TrainedTask(
            u0=np.zeros(dim), u=np.ones(dim), C=1.0, backend_plus=bp, backend_minus=bm, history=[]
        )
        with pytest.raises(InvalidSequenceError):
            predict(np.array([0, 9]), task, n=1, rng=np.random.default_rng(12))


class TestEvaluate:
    def test_single_correct_example(self):
        task = make_task(u=np.zeros(2 * tiny_gmm_pair()[0].block_dim() + 1))
        assert evaluate([(np.array([0.2]), 1)], task, n=1, rng=np.random.default_rng(7)) == 1.0

    def test_label_flip_complement(self):
        task = make_task()
        rng = np.random.default_rng(8)
        xs = [np.array([v]) for v in np.linspace(-2, 2, 21)]
        acc = evaluate([(x, 1) for x in xs], task, n=5, rng=np.random.default_rng(9))
        flipped = evaluate([(x, -1) for x in xs], task, n=5, rng=np.random.default_rng(9))
        assert acc + flipped == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(InvalidArgumentError):
            evaluate([], make_task(), n=1, rng=np.random.default_rng(10))
