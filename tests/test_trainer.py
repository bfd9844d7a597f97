"""Training loop behavior: initialization, updates, routing, restarts."""

import numpy as np
import pytest

from conftest import two_cluster_data
from pacgibbs.bounds import bound_supervised, stack_features, surrogate_objective
from pacgibbs.errors import InvalidArgumentError, TrainingAbort
from pacgibbs.gmm import GmmBackend
from pacgibbs.predictor import vote_scores
from pacgibbs.sampler import TiltConfig
from pacgibbs import trainer as trainer_mod
from pacgibbs.trainer import (
    TrainConfig,
    _backtracking_step,
    derive_rng,
    evaluate_bounds,
    init_u0,
    multi_restart_train,
    train,
)


@pytest.fixture(scope="module")
def cluster_problem():
    rng = np.random.default_rng(0)
    X_pos, X_neg = two_cluster_data(40, rng)
    S_l = [(x, 1) for x in X_pos] + [(x, -1) for x in X_neg]
    bp = GmmBackend.from_data(X_pos, 2, np.random.default_rng(1))
    bm = GmmBackend.from_data(X_neg, 2, np.random.default_rng(2))
    return S_l, bp, bm


def small_cfg(**kw):
    base = dict(
        max_outer_iters=5,
        restarts=1,
        seed=7,
        c_update="fixed",
        C_init=1.0,
        convergence_tol=1e-9,
    )
    base.update(kw)
    return TrainConfig(**base)


class TestBacktracking:
    def test_oversized_rate_is_halved_until_decrease(self):
        f = lambda v: float(v @ v)
        u = np.array([1.0, 1.0])
        grad = 2.0 * u
        u_new, j_new = _backtracking_step(f, grad, u, f(u), gamma=10.0)
        assert j_new <= f(u)
        assert not np.allclose(u_new, u)

    def test_no_step_when_nothing_helps(self):
        # gradient points away from every descent direction
        f = lambda v: float(v @ v)
        u = np.array([1.0, 0.0])
        u_new, j_new = _backtracking_step(f, -u * 1e6, u, f(u), gamma=1.0)
        assert np.allclose(u_new, u)
        assert j_new == f(u)


class TestInitU0:
    def test_separating_direction(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(restarts=3)
        tilt = TiltConfig(C=1.0, m=len(S_l), m_l=len(S_l), m_u=1)
        u0 = init_u0(S_l, [], bp, bm, cfg, tilt)
        # the fitted direction classifies the training fraction well
        correct = 0
        rng = derive_rng(123, 55)
        for x, y in S_l:
            s = np.mean(vote_scores(x, bp, bm, u0, 5, rng))
            correct += (1 if s >= 0 else -1) == y
        assert correct / len(S_l) >= 0.9

    def test_beats_random_search_baseline(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(restarts=2)
        tilt = TiltConfig(C=1.0, m=len(S_l), m_l=len(S_l), m_u=1)
        u0 = init_u0(S_l, [], bp, bm, cfg, tilt)

        # independent oracle: best of 100 random vectors on freshly sampled
        # untilted features
        from pacgibbs.features import assemble

        rng = np.random.default_rng(99)
        feats, labels = [], []
        for x, y in S_l:
            a_p, a_m = bp.approx_posterior(x), bm.approx_posterior(x)
            uniforms = rng.random((5, 2))  # per draw: z_plus's uniform, then z_minus's
            zp = bp.sample_hidden(x, a_p, uniforms[:, :1])
            zm = bm.sample_hidden(x, a_m, uniforms[:, 1:])
            feats.append(assemble(bp.feature_block(x, zp, a_p), bm.feature_block(x, zm, a_m))[1])
            labels.append(y)
        labeled = stack_features(feats, labels)
        unlabeled = stack_features([], shape=labeled.shape[1:])

        def objective(u):
            return surrogate_objective(labeled, unlabeled, u, u, 1.0, len(feats), len(feats), 0, 5)

        dim = u0.shape[0]
        random_best = min(
            objective(rng.uniform(-20, 20, dim)) for _ in range(100)
        )
        assert objective(u0) <= random_best

    def test_zero_iterations_returns_best_start_unmoved(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(restarts=4)
        tilt = TiltConfig(C=1.0, m=len(S_l), m_l=len(S_l), m_u=1)
        u0_frozen = init_u0(S_l, [], bp, bm, cfg, tilt, max_iters=0)
        starts = [
            derive_rng(cfg.seed, 2, r).uniform(-cfg.init_range, cfg.init_range, u0_frozen.size)
            for r in range(cfg.restarts)
        ]
        starts.append(np.concatenate([bp.natural_weights(), -bm.natural_weights(), [0.0]]))
        assert any(np.array_equal(u0_frozen, s) for s in starts)

    def test_requires_labeled(self, cluster_problem):
        _, bp, bm = cluster_problem
        with pytest.raises(InvalidArgumentError):
            init_u0([], [], bp, bm, small_cfg(), TiltConfig(C=1.0, m=1, m_l=1, m_u=1))


class TestTrain:
    def test_supervised_mode_completes(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        task = train(S_l, [], bp, bm, small_cfg())
        assert len(task.history) == 5
        assert all(r.d_S == 0.0 for r in task.history)
        assert all(np.isfinite(r.J) for r in task.history)
        assert task.u.shape == task.u0.shape == (2 * bp.block_dim() + 1,)

    def test_supervised_bound_is_reproducible_from_components(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg()
        task = train(S_l, [], bp, bm, cfg)
        for r in task.history:
            expected = bound_supervised(r.R_S, r.kl_w + r.kl_hidden, r.C, cfg.delta, len(S_l))
            assert r.bound_raw == pytest.approx(expected, rel=1e-12)
            assert r.bound == min(1.0, r.bound_raw)

    def test_zero_tilt_reduces_to_monte_carlo_em(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(C_init=0.0, max_outer_iters=4)
        task = train(S_l, [], bp, bm, cfg)
        # with no tilt the quadratic is the whole objective: u stays at u0
        assert task.u == pytest.approx(task.u0, abs=1e-12)
        assert all(r.acceptance_rate == 1.0 for r in task.history)
        assert all(r.bound == 1.0 for r in task.history)  # vacuous at C=0
        # and the class models still move (EM happened)
        assert not np.allclose(task.backend_plus.params.means, bp.params.means)

    def test_theta_updates_only_from_own_class(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        seen = {"plus": [], "minus": []}

        class SpyBackend(GmmBackend):
            def __init__(self, inner, key):
                super().__init__(inner.params.copy(), inner.variance_floor.copy())
                self._key = key

            def update_parameters(self, samples):
                seen[self._key].extend(np.asarray(x)[0] for x, _, _ in samples)
                super().update_parameters(samples)

            def clone(self):
                return self

        task = train(
            S_l, [], SpyBackend(bp, "plus"), SpyBackend(bm, "minus"), small_cfg(max_outer_iters=2)
        )
        pos_x = {x[0] for x, y in S_l if y == 1}
        neg_x = {x[0] for x, y in S_l if y == -1}
        assert set(seen["plus"]) <= pos_x
        assert set(seen["minus"]) <= neg_x
        assert seen["plus"] and seen["minus"]

    def test_convergence_stops_early(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        task = train(S_l, [], bp, bm, small_cfg(max_outer_iters=30, convergence_tol=10.0))
        # tolerance so loose that three consecutive small deltas happen immediately
        assert len(task.history) == 4

    def test_degraded_sampling_aborts(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        tilt = TiltConfig(C=1.0, m=1, m_l=1, m_u=1, n_draws=3, max_attempts=3)
        cfg = small_cfg(C_init=5000.0)
        with pytest.raises(TrainingAbort, match="sampling"):
            train(S_l, [], bp, bm, cfg, tilt)

    def test_divergence_guard(self, cluster_problem, monkeypatch):
        S_l, bp, bm = cluster_problem
        monkeypatch.setattr(trainer_mod, "MAX_U_NORM", 1e-6)
        with pytest.raises(TrainingAbort, match="diverged"):
            train(S_l, [], bp, bm, small_cfg())

    def test_semi_supervised_runs(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        rng = np.random.default_rng(5)
        X_pos, X_neg = two_cluster_data(15, rng)
        S_u = list(X_pos) + list(X_neg)
        task = train(S_l, S_u, bp, bm, small_cfg(max_outer_iters=3))
        assert all(r.d_S > 0.0 for r in task.history)

    def test_empty_labeled_rejected(self, cluster_problem):
        _, bp, bm = cluster_problem
        with pytest.raises(InvalidArgumentError):
            train([], [], bp, bm, small_cfg())


class TestMultiRestart:
    def test_single_restart_identical_to_train(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(max_outer_iters=3)
        a = train(S_l, [], bp, bm, cfg)
        b = multi_restart_train(S_l, [], bp, bm, cfg)
        assert np.array_equal(a.u, b.u)
        assert np.array_equal(a.u0, b.u0)

    def test_more_restarts_never_worse(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg1 = small_cfg(max_outer_iters=3, restarts=1)
        cfg3 = small_cfg(max_outer_iters=3, restarts=3)
        j1 = multi_restart_train(S_l, [], bp, bm, cfg1).history[-1].J
        j3 = multi_restart_train(S_l, [], bp, bm, cfg3).history[-1].J
        assert j3 <= j1

    def test_bit_identical_reruns(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(max_outer_iters=3, restarts=2)
        a = multi_restart_train(S_l, [], bp, bm, cfg)
        b = multi_restart_train(S_l, [], bp, bm, cfg)
        assert np.array_equal(a.u, b.u)
        assert a.C == b.C
        assert [r.J for r in a.history] == [r.J for r in b.history]


class TestCrossValidationMode:
    def test_selects_grid_value_and_trains(self):
        rng = np.random.default_rng(21)
        xp = rng.normal(2.0, 1.0, size=(6, 1))
        xm = rng.normal(-2.0, 1.0, size=(6, 1))
        S_l = [(x, 1) for x in xp] + [(x, -1) for x in xm]
        bp = GmmBackend.from_data(xp, 1, np.random.default_rng(1))
        bm = GmmBackend.from_data(xm, 1, np.random.default_rng(2))
        cfg = small_cfg(max_outer_iters=2, c_update="cross_validation")
        task = train(S_l, [], bp, bm, cfg)
        assert task.C in {2.0**k for k in range(-6, 7)}
        assert task.flags["bound_is_heuristic"]


class TestEvaluateBounds:
    def test_supervised_data_bounds_coincide(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        task = train(S_l, [], bp, bm, small_cfg(max_outer_iters=2))
        tilt = TiltConfig(C=task.C, m=len(S_l), m_l=len(S_l), m_u=1)
        report = evaluate_bounds(S_l, [], task, tilt, 0.05, seed=3)
        assert report["d_S"] == 0.0
        assert report["bound_semisupervised_raw"] == pytest.approx(
            report["bound_supervised_raw"], rel=1e-12
        )

    def test_delta_sweep_monotone(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        task = train(S_l, [], bp, bm, small_cfg(max_outer_iters=2))
        tilt = TiltConfig(C=task.C, m=len(S_l), m_l=len(S_l), m_u=1)
        vals = [
            evaluate_bounds(S_l, [], task, tilt, d, seed=3)["bound_supervised_raw"]
            for d in (0.5, 0.05, 0.005)
        ]
        assert vals[0] <= vals[1] <= vals[2]
