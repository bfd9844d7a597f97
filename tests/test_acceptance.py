"""Acceptance suite: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every tolerance is pinned here; the statistical checks use fixed
seeds throughout.
"""

import filecmp
import os
import time

import numpy as np
import pytest
from scipy.special import logsumexp

from conftest import one_draw_risks, sample_hmm_sequence
from pacgibbs import selftest
from pacgibbs.cli import main as cli_main
from pacgibbs.gmm import GmmBackend
from pacgibbs.hmm import HmmBackend, HmmParams, forward_backward
from pacgibbs.numerics import phi_tail
from pacgibbs.predictor import evaluate
from pacgibbs.sampler import TiltConfig
from pacgibbs.trainer import TrainConfig, evaluate_bounds, multi_restart_train, train

SEP = 1.6
CENTER = np.array([SEP, SEP])


def report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def two_blobs(rng, n_per_class):
    X_pos = rng.normal(loc=CENTER, scale=1.0, size=(n_per_class, 2))
    X_neg = rng.normal(loc=-CENTER, scale=1.0, size=(n_per_class, 2))
    return X_pos, X_neg


class TestCriterion1GradU:
    def test_gradient_matches_finite_differences(self):
        start = time.perf_counter()
        r = selftest.check_grad_u()
        elapsed = time.perf_counter() - start
        assert r.tol == 1e-5
        detail = f"max relative error {r.max_err:.3e} (tol 1e-5), {elapsed:.1f}s (budget 10s)"
        report(1, "weight-gradient correctness", r.passed and elapsed < 10.0, detail)


class TestCriterion2GradC:
    def test_c_gradient_matches_finite_differences(self):
        start = time.perf_counter()
        r = selftest.check_grad_c()
        elapsed = time.perf_counter() - start
        assert r.tol == 1e-4
        detail = f"max relative error {r.max_err:.3e} (tol 1e-4), {elapsed:.2f}s (budget 1s)"
        report(2, "trade-off-gradient correctness", r.passed and elapsed < 1.0, detail)


class TestCriterion3RiskDecomposition:
    def test_closed_form_and_assembled_identity(self):
        r = selftest.check_decomposition()
        assert r.tol == 1e-10
        report(3, "risk decomposition identity", r.passed, f"{r.detail} (tol 1e-10)")


class TestCriterion4SamplerFidelity:
    N_ACCEPTED = 100_000

    def test_gmm_and_hmm_sampler_fidelity(self):
        assert selftest.N_ACCEPTED == self.N_ACCEPTED
        start = time.perf_counter()
        results = selftest.check_sampler()
        elapsed = time.perf_counter() - start
        # (TV distance, |rate - Z| in standard errors) for the mixture, then the chain
        assert [r.tol for r in results] == [0.02, 3.0, 0.02, 3.0]
        ok = all(r.passed for r in results) and elapsed < 120.0
        pairs = zip(results[::2], results[1::2])
        details = "; ".join(f"{tv.detail}, {rate.detail}" for tv, rate in pairs)
        report(4, "sampler fidelity", ok, f"{details}; {elapsed:.0f}s (budget 120s)")


class TestCriterion5GaussianIntegrals:
    def test_monte_carlo_reproduces_closed_forms(self):
        rng = np.random.default_rng(505)
        worst_err = 0.0
        worst_dis = 0.0
        for _ in range(5):
            dim = int(rng.integers(2, 8))
            u = rng.normal(size=dim) * rng.uniform(0.3, 1.5)
            phi_bar = rng.normal(size=dim)
            phi_bar /= np.linalg.norm(phi_bar)
            y = int(rng.choice([-1, 1]))
            w = rng.normal(size=(100_000, dim)) + u
            signs = np.where(w @ phi_bar > 0, 1, -1)
            mc_err = float(np.mean(signs != y))
            closed = one_draw_risks(u, phi_bar, y)
            worst_err = max(worst_err, abs(mc_err - closed.R_S))
            w2 = rng.normal(size=(100_000, dim)) + u
            signs2 = np.where(w2 @ phi_bar > 0, 1, -1)
            mc_dis = float(np.mean(signs != signs2))
            worst_dis = max(worst_dis, abs(mc_dis - closed.d_S))
        ok = worst_err < 0.005 and worst_dis < 0.005
        report(
            5,
            "Gaussian-integral specializations",
            ok,
            f"max |MC - closed form|: error {worst_err:.4f}, disagreement {worst_dis:.4f} (tol 0.005)",
        )


def _batch_responsibilities(params, X):
    diff = X[:, None, :] - params.means[None]
    log_a = np.log(params.weights)[None] - 0.5 * np.sum(
        diff * diff / params.variances[None] + np.log(2 * np.pi * params.variances)[None], axis=2
    )
    log_a -= logsumexp(log_a, axis=1, keepdims=True)
    a = np.maximum(np.exp(log_a), 1e-12)
    return a / a.sum(axis=1, keepdims=True)


def _batch_blocks(X, a, k):
    n, d = X.shape
    K = a.shape[1]
    width = 2 * d + 2
    blocks = np.zeros((n, K * width))
    rows = np.arange(n)
    base = k * width
    for j in range(d):
        blocks[rows, base + j] = X[:, j]
        blocks[rows, base + d + j] = X[:, j] ** 2
    blocks[rows, base + 2 * d] = 1.0
    blocks[rows, base + 2 * d + 1] = np.log(a[rows, k])
    return blocks


def _holdout_gibbs_risk(task, X, y, rng):
    """Mean closed-form error over one hidden draw per held-out point."""
    a_p = _batch_responsibilities(task.backend_plus.params, X)
    a_m = _batch_responsibilities(task.backend_minus.params, X)
    k_p = (rng.random(X.shape[0])[:, None] > np.cumsum(a_p, axis=1)).sum(axis=1)
    k_m = (rng.random(X.shape[0])[:, None] > np.cumsum(a_m, axis=1)).sum(axis=1)
    phi = np.hstack(
        [_batch_blocks(X, a_p, k_p), _batch_blocks(X, a_m, k_m), np.ones((X.shape[0], 1))]
    )
    phi_bar = phi / np.linalg.norm(phi, axis=1, keepdims=True)
    return float(np.mean(phi_tail(y * (phi_bar @ task.u))))


class TestCriterion6BoundValidity:
    N_TRIALS = 200

    def test_bound_holds_at_stated_confidence(self):
        start = time.perf_counter()
        violations = 0
        for trial in range(self.N_TRIALS):
            rng = np.random.default_rng(10_000 + trial)
            Xl_p, Xl_m = two_blobs(rng, 15)
            Xu_p, Xu_m = two_blobs(rng, 5)
            S_l = [(x, 1) for x in Xl_p] + [(x, -1) for x in Xl_m]
            S_u = list(Xu_p) + list(Xu_m)
            bp = GmmBackend.from_data(Xl_p, 2, np.random.default_rng(trial * 2 + 1))
            bm = GmmBackend.from_data(Xl_m, 2, np.random.default_rng(trial * 2 + 2))
            cfg = TrainConfig(
                max_outer_iters=4, restarts=1, seed=trial, c_update="fixed", C_init=1.0
            )
            tilt = TiltConfig(C=1.0, n_draws=3)
            task = train(S_l, S_u, bp, bm, cfg, tilt)
            bound = evaluate_bounds(S_l, S_u, task, tilt, 0.05, seed=trial + 777)[
                "bound_semisupervised_raw"
            ]
            X_test = np.vstack(two_blobs(rng, 5000))
            y_test = np.concatenate([np.ones(5000), -np.ones(5000)])
            risk = _holdout_gibbs_risk(task, X_test, y_test, np.random.default_rng(5_000 + trial))
            violations += risk > bound
        elapsed = time.perf_counter() - start
        ok = violations <= 19 and elapsed < 1200.0
        report(
            6,
            "bound validity",
            ok,
            f"{violations}/{self.N_TRIALS} violations (allowed 19), {elapsed:.0f}s (budget 1200s)",
        )


class TestCriterion7EndToEnd:
    def test_vector_task_reaches_map_oracle_band(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20_240_601)
        Xtr_p, Xtr_m = two_blobs(rng, 100)
        Xte_p, Xte_m = two_blobs(rng, 100)

        def map_oracle(x):
            return -np.sum((x - CENTER) ** 2) + np.sum((x + CENTER) ** 2)

        oracle_acc = 0.5 * (
            np.mean([map_oracle(x) > 0 for x in Xte_p])
            + np.mean([map_oracle(x) < 0 for x in Xte_m])
        )
        S_l = [(x, 1) for x in Xtr_p] + [(x, -1) for x in Xtr_m]
        test = [(x, 1) for x in Xte_p] + [(x, -1) for x in Xte_m]
        bp = GmmBackend.from_data(Xtr_p, 2, np.random.default_rng(1))
        bm = GmmBackend.from_data(Xtr_m, 2, np.random.default_rng(2))
        cfg = TrainConfig(max_outer_iters=15, restarts=2, seed=5, c_update="gradient")
        task = multi_restart_train(S_l, [], bp, bm, cfg)
        acc = evaluate(test, task, 5, np.random.default_rng(11))
        elapsed = time.perf_counter() - start
        ok = oracle_acc >= 0.97 and acc >= 0.95 and elapsed < 300.0
        report(
            7,
            "end-to-end learning (vectors)",
            ok,
            f"oracle {oracle_acc:.3f} (floor 0.97), trained {acc:.3f} (floor 0.95), "
            f"{elapsed:.0f}s (budget 300s)",
        )

    def test_sequence_task_reaches_likelihood_ratio_band(self):
        start = time.perf_counter()
        gen_pos = HmmParams(
            initial=np.array([0.5, 0.5]),
            transition=np.array([[0.85, 0.15], [0.15, 0.85]]),
            emission=np.array([[0.6, 0.2, 0.1, 0.1], [0.1, 0.1, 0.2, 0.6]]),
        )
        gen_neg = HmmParams(
            initial=np.array([0.5, 0.5]),
            transition=np.array([[0.45, 0.55], [0.55, 0.45]]),
            emission=np.array([[0.15, 0.55, 0.2, 0.1], [0.1, 0.2, 0.55, 0.15]]),
        )
        rng = np.random.default_rng(2024)
        tr_p = [sample_hmm_sequence(gen_pos, 20, rng) for _ in range(50)]
        tr_m = [sample_hmm_sequence(gen_neg, 20, rng) for _ in range(50)]
        te_p = [sample_hmm_sequence(gen_pos, 20, rng) for _ in range(50)]
        te_m = [sample_hmm_sequence(gen_neg, 20, rng) for _ in range(50)]

        def lr(s):
            return (
                forward_backward([s], gen_pos)[0].log_likelihood
                - forward_backward([s], gen_neg)[0].log_likelihood
            )

        oracle_acc = 0.5 * (np.mean([lr(s) > 0 for s in te_p]) + np.mean([lr(s) < 0 for s in te_m]))
        S_l = [(s, 1) for s in tr_p] + [(s, -1) for s in tr_m]
        test = [(s, 1) for s in te_p] + [(s, -1) for s in te_m]
        bp = HmmBackend.from_data(tr_p, 2, 4, np.random.default_rng(1))
        bm = HmmBackend.from_data(tr_m, 2, 4, np.random.default_rng(2))
        cfg = TrainConfig(max_outer_iters=12, restarts=2, seed=5, c_update="gradient")
        task = multi_restart_train(S_l, [], bp, bm, cfg)
        acc = evaluate(test, task, 5, np.random.default_rng(11))
        elapsed = time.perf_counter() - start
        ok = oracle_acc >= 0.95 and acc >= 0.90 and elapsed < 300.0
        report(
            7,
            "end-to-end learning (sequences)",
            ok,
            f"oracle {oracle_acc:.3f} (floor 0.95), trained {acc:.3f} (floor 0.90), "
            f"{elapsed:.0f}s (budget 300s)",
        )


class TestCriterion8SemiSupervisedEffect:
    def test_unlabeled_data_does_not_hurt_and_contracts_disagreement(self):
        sup_accs, semi_accs, d_decreased = [], [], 0
        for p in range(20):
            rng = np.random.default_rng(3000 + p)
            Xl_p, Xl_m = two_blobs(rng, 5)
            Xu_p, Xu_m = two_blobs(rng, 50)
            Xt_p, Xt_m = two_blobs(rng, 100)
            S_l = [(x, 1) for x in Xl_p] + [(x, -1) for x in Xl_m]
            S_u = list(Xu_p) + list(Xu_m)
            test = [(x, 1) for x in Xt_p] + [(x, -1) for x in Xt_m]
            bp = GmmBackend.from_data(Xl_p, 2, np.random.default_rng(p * 2 + 1))
            bm = GmmBackend.from_data(Xl_m, 2, np.random.default_rng(p * 2 + 2))
            cfg = TrainConfig(
                max_outer_iters=10, restarts=1, seed=p, c_update="fixed", C_init=1.0, gamma_u=2.0
            )
            tilt = TiltConfig(C=1.0, n_draws=8)
            # a neutral (zero) starting weight leaves the disagreement at its
            # maximum, so contraction during training is observable
            u_init = np.zeros(2 * bp.block_dim() + 1)
            sup = train(S_l, [], bp, bm, cfg, tilt, initial_u=u_init)
            semi = train(S_l, S_u, bp, bm, cfg, tilt, initial_u=u_init)
            sup_accs.append(evaluate(test, sup, 5, np.random.default_rng(900 + p)))
            semi_accs.append(evaluate(test, semi, 5, np.random.default_rng(900 + p)))
            d_decreased += semi.history[-1].d_S < semi.history[0].d_S
        sup_mean = 100.0 * float(np.mean(sup_accs))
        semi_mean = 100.0 * float(np.mean(semi_accs))
        ok = semi_mean >= sup_mean - 1.0 and d_decreased >= 16
        report(
            8,
            "semi-supervised effect",
            ok,
            f"semi {semi_mean:.2f}% vs supervised {sup_mean:.2f}% (allowed -1pt); "
            f"disagreement decreased in {d_decreased}/20 runs (need 16)",
        )


SONAR_PATH = os.environ.get("PACGIBBS_SONAR_PATH", os.path.join("data", "sonar.csv"))


class TestCriterion9SonarSoftTarget:
    @pytest.mark.skipif(
        not os.path.exists(SONAR_PATH),
        reason=f"Sonar dataset not supplied at {SONAR_PATH} (set PACGIBBS_SONAR_PATH)",
    )
    def test_sonar_benchmark_near_reference(self):
        from pacgibbs.data import load_vectors, make_splits, materialize_vector_split, one_vs_rest_tasks

        ds = load_vectors(SONAR_PATH)
        accs = []
        for task_def in one_vs_rest_tasks(ds):
            for p, split in enumerate(make_splits(ds, task_def, 20, 0.0, seed=0)):
                X_l, y_l, _, X_test, y_test = materialize_vector_split(ds, split)
                S_l = list(zip(list(X_l), [int(v) for v in y_l]))
                pos = np.stack([x for x, y in S_l if y == 1])
                neg = np.stack([x for x, y in S_l if y == -1])
                bp = GmmBackend.from_data(pos, 4, np.random.default_rng(2 * p + 1))
                bm = GmmBackend.from_data(neg, 4, np.random.default_rng(2 * p + 2))
                cfg = TrainConfig(max_outer_iters=15, restarts=2, seed=p, c_update="gradient")
                task = multi_restart_train(S_l, [], bp, bm, cfg)
                test_pairs = list(zip(list(X_test), [int(v) for v in y_test]))
                accs.append(evaluate(test_pairs, task, 5, np.random.default_rng(700 + p)))
        mean_acc = 100.0 * float(np.mean(accs))
        ok = abs(mean_acc - 80.60) <= 5.0
        report(9, "reference dataset accuracy (soft)", ok, f"mean accuracy {mean_acc:.2f}% vs 80.60 +/- 5")


class TestCriterion10Determinism:
    def test_cli_training_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(42)
        X_pos, X_neg = two_blobs(rng, 16)
        data = tmp_path / "d.csv"
        lines = [",".join(f"{v:.6f}" for v in x) + ",pos" for x in X_pos]
        lines += [",".join(f"{v:.6f}" for v in x) + ",neg" for x in X_neg]
        data.write_text("\n".join(lines) + "\n")
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main(
                [
                    "train",
                    "--set", f"data.path={data}",
                    "--set", f"run.output_dir={out}",
                    "--set", "trainer.max_outer_iters=4",
                    "--set", "trainer.restarts=2",
                    "--set", "gmm.components=2",
                ]
            )
            assert code == 0
            outs.append(out)
        model_same = filecmp.cmp(outs[0] / "model.bin", outs[1] / "model.bin", shallow=False)
        telem_same = filecmp.cmp(outs[0] / "telemetry.csv", outs[1] / "telemetry.csv", shallow=False)
        report(
            10,
            "training determinism",
            model_same and telem_same,
            f"model byte-identical: {model_same}, telemetry byte-identical: {telem_same}",
        )
