"""Training loop behavior: initialization, updates, routing, one run per task."""

from types import SimpleNamespace

import numpy as np
import pytest

import reference_draws as ref
from conftest import two_cluster_data
from pacgibbs.bounds import Surrogate, bound_supervised, grad_u, stack_features, surrogate_objective
from pacgibbs.errors import InvalidArgumentError, TrainingAbort
from pacgibbs.gmm import GmmBackend
from pacgibbs.predictor import vote_scores
from pacgibbs.sampler import TiltConfig
from pacgibbs import bounds as bounds_mod
from pacgibbs import trainer as trainer_mod
from pacgibbs.trainer import (
    TrainConfig,
    _backtracking_step,
    _hidden_kl,
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


def u0_starts(cfg, bp, bm):
    """The prior-mean fit's starts in order: ``restarts - 1`` random, then the generative one."""
    dim = bp.block_dim() + bm.block_dim() + 1
    starts = [
        derive_rng(cfg.seed, 2, r).uniform(-cfg.init_range, cfg.init_range, dim)
        for r in range(cfg.restarts - 1)
    ]
    return starts + [np.concatenate([bp.natural_weights(), -bm.natural_weights(), [0.0]])]


class TestBacktracking:
    def test_oversized_rate_is_halved_until_decrease(self):
        f = lambda v: (float(v @ v),)
        u = np.array([1.0, 1.0])
        grad = 2.0 * u
        u_new, (j_new,) = _backtracking_step(f, grad, u, f(u), gamma=10.0)
        assert j_new <= f(u)[0]
        assert not np.allclose(u_new, u)

    def test_no_step_when_nothing_helps(self):
        # gradient points away from every descent direction
        f = lambda v: (float(v @ v),)
        u = np.array([1.0, 0.0])
        u_new, (j_new,) = _backtracking_step(f, -u * 1e6, u, f(u), gamma=1.0)
        assert np.allclose(u_new, u)
        assert j_new == f(u)[0]


class TestInitU0:
    def test_separating_direction(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(restarts=3)
        tilt = TiltConfig(C=1.0)
        u0 = init_u0(S_l, [], bp, bm, cfg, tilt)
        # the fitted direction classifies the training fraction well
        correct = 0
        rng = derive_rng(123, 55)
        for x, y in S_l:
            s = np.mean(vote_scores([x], bp, bm, u0, 5, rng))
            correct += (1 if s >= 0 else -1) == y
        assert correct / len(S_l) >= 0.9

    def test_beats_random_search_baseline(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(restarts=2)
        tilt = TiltConfig(C=1.0)
        u0 = init_u0(S_l, [], bp, bm, cfg, tilt)

        # independent oracle: best of 100 random vectors on freshly sampled
        # untilted features
        from pacgibbs.features import assemble

        rng = np.random.default_rng(99)
        feats, labels = [], []
        for x, y in S_l:
            a_p, a_m = bp.approx_posterior([x]), bm.approx_posterior([x])
            uniforms = rng.random((5, 2))  # per draw: z_plus's uniform, then z_minus's
            zp = bp.sample_hidden(a_p, uniforms[:, :1])
            zm = bm.sample_hidden(a_m, uniforms[:, 1:])
            feats.append(
                assemble(bp.feature_block([x], zp, a_p), bm.feature_block([x], zm, a_m))[1]
            )
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
        tilt = TiltConfig(C=1.0)
        u0_frozen = init_u0(S_l, [], bp, bm, cfg, tilt, max_iters=0)
        assert any(np.array_equal(u0_frozen, s) for s in u0_starts(cfg, bp, bm))

    @pytest.mark.parametrize(
        "restarts,gamma_u,max_iters", [(1, 0.5, 300), (10, 0.5, 300), (10, 2000.0, 300), (10, 0.5, 0)]
    )
    def test_same_bits_as_two_call_descent(
        self, cluster_problem, monkeypatch, restarts, gamma_u, max_iters
    ):
        """Each step's gradient taken from the margins of the evaluation that
        accepted its point: the same u0 as a descent calling J and grad_u
        apart, and one gradient per step, none for a rejected candidate."""
        S_l, bp, bm = cluster_problem
        S_u = [x for x, _ in S_l[::6]]
        cfg, tilt = small_cfg(restarts=restarts, gamma_u=gamma_u), TiltConfig(C=1.0)
        gradients = []
        pdf = bounds_mod.gauss_pdf
        monkeypatch.setattr(bounds_mod, "gauss_pdf", lambda a: gradients.append(1) or pdf(a))
        fused = init_u0(S_l, S_u, bp, bm, cfg, tilt, max_iters=max_iters)
        fused_gradients = len(gradients)

        batches, calls = [], {"J": 0, "grad": 0, "starts": 0}
        monkeypatch.setattr(trainer_mod, "Surrogate", lambda *a: batches.append(a) or Surrogate(*a))

        def two_calls(_evaluate, u, gamma, iters):
            labeled, unlabeled = batches[-1]
            counts = (len(labeled) + len(unlabeled), len(labeled), len(unlabeled), labeled.shape[1])

            def value_fn(v):
                calls["J"] += 1
                return surrogate_objective(labeled, unlabeled, v, v, 1.0, *counts)

            def grad_fn(v):
                calls["grad"] += 1
                return grad_u(labeled, unlabeled, v, v, 1.0, *counts)

            calls["starts"] += 1
            return ref.descend(value_fn, grad_fn, u, gamma, iters)

        monkeypatch.setattr(trainer_mod, "_descend", two_calls)
        assert init_u0(S_l, S_u, bp, bm, cfg, tilt, max_iters=max_iters).tobytes() == fused.tobytes()
        assert calls["starts"] == restarts
        assert fused_gradients == calls["grad"]
        if gamma_u > 1.0:  # some steps were halved
            assert calls["J"] > calls["starts"] + calls["grad"]

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_restarts_counts_the_generative_start(self, cluster_problem, monkeypatch, restarts):
        """``restarts`` starts in all: the first ``restarts - 1`` random
        streams in order, then the generative discriminant, each descended once."""
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(restarts=restarts)
        descend, starts = trainer_mod._descend, []
        monkeypatch.setattr(
            trainer_mod, "_descend", lambda f, u, *a: starts.append(u.copy()) or descend(f, u, *a)
        )
        init_u0(S_l, [], bp, bm, cfg, TiltConfig(C=1.0))
        assert [s.tobytes() for s in starts] == [s.tobytes() for s in u0_starts(cfg, bp, bm)]

    def test_requires_labeled(self, cluster_problem):
        _, bp, bm = cluster_problem
        with pytest.raises(InvalidArgumentError):
            init_u0([], [], bp, bm, small_cfg(), TiltConfig(C=1.0))


def loop_hidden_kl(sample_sets, m):
    """The per-example KL estimates, summed one example at a time."""
    total = 0.0
    for s in sample_sets:
        rate = max(s.acceptance_rate, np.finfo(float).tiny)
        total += max(0.0, np.mean(s.exponents) - np.log(rate))
    return total / m


class TestHiddenKl:
    def test_matches_a_per_example_loop(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            count = int(rng.integers(1, 30))
            sets = [
                SimpleNamespace(exponents=-rng.exponential(size=5), acceptance_rate=rate)
                for rate in rng.uniform(0.01, 1.0, size=count)
            ]
            expected = loop_hidden_kl(sets, count + 3)
            assert _hidden_kl(sets, count + 3) == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_clamps_each_example_at_zero(self):
        positive = SimpleNamespace(exponents=np.array([-0.1, -0.3]), acceptance_rate=0.5)
        negative = SimpleNamespace(exponents=np.array([-1.0, -3.0]), acceptance_rate=1.0)
        assert _hidden_kl([negative], 1) == 0.0
        assert _hidden_kl([positive, negative], 2) == _hidden_kl([positive], 2)
        assert _hidden_kl([positive], 2) == pytest.approx((np.log(2.0) - 0.2) / 2, rel=1e-15)

    def test_zero_acceptance_rate_takes_the_tiny_floor(self):
        sets = [SimpleNamespace(exponents=np.zeros(3), acceptance_rate=0.0)]
        assert _hidden_kl(sets, 1) == -np.log(np.finfo(float).tiny)


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
                seen[self._key].extend(np.asarray(x)[0] for x, _ in samples)
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
        tilt = TiltConfig(C=1.0, n_draws=3, max_attempts=3)
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

    @pytest.mark.parametrize("name", ["restarts", "max_outer_iters"])
    def test_count_below_one_names_field(self, name):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be >= 1, got 0$"):
            small_cfg(**{name: 0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name", ["gamma_u", "gamma_c", "init_range", "convergence_tol", "C_init"]
    )
    def test_non_finite_value_names_field(self, name, value):
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be .*finite"):
            small_cfg(**{name: value})

    def test_init_range_overflowing_when_doubled_names_field(self):
        """numpy's uniform needs a finite box width, 2 * init_range."""
        small_cfg(init_range=8e307)
        with pytest.raises(InvalidArgumentError, match="init_range must be finite"):
            small_cfg(init_range=1e308)


class TestMultiRestart:
    @pytest.mark.parametrize("restarts", [1, 3])
    def test_identical_to_train(self, cluster_problem, restarts):
        """One run per task: ``restarts`` only sets the prior-mean fit's starts."""
        S_l, bp, bm = cluster_problem
        cfg = small_cfg(max_outer_iters=3, restarts=restarts)
        a = train(S_l, [], bp, bm, cfg)
        b = multi_restart_train(S_l, [], bp, bm, cfg)
        assert a.u.tobytes() == b.u.tobytes()
        assert a.u0.tobytes() == b.u0.tobytes()
        assert a.C.hex() == b.C.hex()
        assert [r.J.hex() for r in a.history] == [r.J.hex() for r in b.history]

    def test_abort_propagates_unwrapped(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        tilt = TiltConfig(C=1.0, n_draws=3, max_attempts=3)
        cfg = small_cfg(C_init=5000.0, restarts=3)
        with pytest.raises(TrainingAbort, match=r"^iteration 0: \d+/80 examples exhausted"):
            multi_restart_train(S_l, [], bp, bm, cfg, tilt)

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
        tilt = TiltConfig(C=task.C)
        report = evaluate_bounds(S_l, [], task, tilt, 0.05, seed=3)
        assert report["d_S"] == 0.0
        assert report["bound_semisupervised_raw"] == pytest.approx(
            report["bound_supervised_raw"], rel=1e-12
        )

    def test_delta_sweep_monotone(self, cluster_problem):
        S_l, bp, bm = cluster_problem
        task = train(S_l, [], bp, bm, small_cfg(max_outer_iters=2))
        tilt = TiltConfig(C=task.C)
        vals = [
            evaluate_bounds(S_l, [], task, tilt, d, seed=3)["bound_supervised_raw"]
            for d in (0.5, 0.05, 0.005)
        ]
        assert vals[0] <= vals[1] <= vals[2]
