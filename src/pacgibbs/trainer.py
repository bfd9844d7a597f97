"""EM-like bound-minimization training loop.

One outer iteration: (E) draw hidden-sample sets from the tilted
posterior of every training example; (M1) re-estimate the positive
model from the stacked hidden draws of positive-labeled examples, one
``(x, draws)`` pair per example, and the negative model from
negative-labeled ones; (M2) take one gradient step on the
weight-posterior mean ``u``; (M3) optionally step the trade-off
constant ``C``.  The loop stops when the surrogate objective changes by
less than ``convergence_tol`` for three consecutive iterations.  Each
task is trained by one run of this loop.

The prior mean ``u0`` is fit once, before the loop, on held-aside
fractions of the data by minimizing the label risk plus half the
disagreement over untilted hidden draws, restarting from random points
in ``[-init_range, init_range]^dim`` and keeping the best.  The descent
evaluates J once per candidate point (``bounds.Surrogate``) and takes
each step's gradient from the margins of the candidate it accepted.

The fixed-rate step of the reference procedure diverges easily on this
non-convex objective, so each ``u`` step is wrapped in a backtracking
guard: the step size is halved (up to 20 times) until the surrogate does
not increase on the current iteration's samples.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import (
    RiskReport,
    Surrogate,
    bound_semisupervised,
    bound_supervised,
    empirical_risks,
    grad_C,
    grad_u,
    kl_weights,
    stack_features,
    surrogate_objective,
)
from .errors import InvalidArgumentError, TrainingAbort
from .features import GenerativeBackend
from .predictor import evaluate
from .sampler import TiltConfig, blocks, rejection_sample, rounds, width_groups

C_UPDATE_MODES = ("gradient", "cross_validation", "fixed")
MIN_C = 1e-3
MAX_U_NORM = 1e6
DEGRADED_ABORT_FRACTION = 0.2
U0_MAX_ITERS = 300
MAX_HALVINGS = 20

# spawn_key namespaces for seed-derived random streams; a value, once used,
# keys its stream in every output, so retired values are not reused
_PHASE_U0_SAMPLES = 0
_PHASE_LOOP = 1
_PHASE_U0_STARTS = 2
_PHASE_FRACTIONS = 3
_PHASE_CV = 5


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Independent, reproducible stream for a (seed, key path) pair."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


@dataclass
class TrainConfig:
    """Training hyperparameters; defaults follow the evaluation protocol."""

    gamma_u: float = 0.5
    gamma_c: float = 0.05
    max_outer_iters: int = 50
    restarts: int = 10  # random starts of the prior-mean fit (init_u0)
    init_range: float = 20.0  # half-width of the box they are drawn from
    u0_fraction: float = 0.5
    delta: float = 0.05
    C_init: float = 1.0
    c_update: str = "gradient"
    convergence_tol: float = 1e-4
    seed: int = 0

    def __post_init__(self):
        for name in ("gamma_u", "gamma_c", "init_range", "convergence_tol"):
            if not 0 < getattr(self, name) < math.inf:
                raise InvalidArgumentError(f"{name} must be positive and finite")
        # numpy draws the random starts only from a box of finite width.
        if not 2 * self.init_range < math.inf:
            raise InvalidArgumentError(f"2 * init_range must be finite, got {self.init_range:g}")
        # C = 0 disables the tilt entirely (plain Monte Carlo EM) and is
        # only meaningful when C is not being adapted.
        if not 0 <= self.C_init < math.inf or (self.C_init == 0 and self.c_update != "fixed"):
            raise InvalidArgumentError("C_init must be finite and positive (0 with c_update=fixed)")
        if not 0.0 < self.u0_fraction <= 1.0:
            raise InvalidArgumentError("u0_fraction must lie in (0, 1]")
        if not 0.0 < self.delta <= 1.0:
            raise InvalidArgumentError("delta must lie in (0, 1]")
        if self.c_update not in C_UPDATE_MODES:
            raise InvalidArgumentError(f"unknown c_update mode {self.c_update!r}")
        for name in ("restarts", "max_outer_iters"):
            if getattr(self, name) < 1:
                raise InvalidArgumentError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class TrainedTask:
    """Output of one training run."""

    u0: np.ndarray
    u: np.ndarray
    C: float
    backend_plus: GenerativeBackend
    backend_minus: GenerativeBackend
    history: list[RiskReport]
    flags: dict = field(default_factory=dict)
    delta: float = 0.05


def _sample_sets(S_l, S_u, bp, bm, u, tcfg, seed, *key):
    """One sampling pass; example ``i`` (labeled first) draws from ``derive_rng(seed, *key, i)``.

    Examples that use as many uniforms per draw (for sequences: of one
    length) are handled in stacks of at most ``sampler.BLOCK_ROWS``
    first-chunk rows: one posterior call per backend, and one proposal
    and tilt per round (``sampler.rounds``).  Each example's sampler then
    takes its own drawn attempts.
    """
    xs = [x for x, _ in S_l] + list(S_u)
    ys = [y for _, y in S_l] + [None] * len(S_u)
    sets = [None] * len(xs)
    for group in width_groups(xs, bp, bm)[1]:
        for block in blocks(len(group), tcfg.n_draws):
            idx = group[block]
            stack = [xs[i] for i in idx]
            posts = (bp.approx_posterior(stack), bm.approx_posterior(stack))
            rngs = [derive_rng(seed, *key, i) for i in idx]
            drawn = rounds(stack, [ys[i] for i in idx], bp, bm, u, tcfg, rngs, posts)
            for j, i in enumerate(idx):
                sets[i] = rejection_sample(xs[i], ys[i], bp, bm, u, tcfg, rngs[j], drawn[j])
    return sets[: len(S_l)], sets[len(S_l) :]


def _feature_batches(S_l, sets_l, sets_u, shape):
    """The labeled and unlabeled (m, n, D) feature batches of one sampling pass."""
    labeled = stack_features([s.phi_bar for s in sets_l], [y for _, y in S_l], shape=shape)
    return labeled, stack_features([s.phi_bar for s in sets_u], shape=shape)


def _backtracking_step(evaluate, grad: np.ndarray, u: np.ndarray, current: tuple, gamma: float):
    """One descent step; halve the rate until the objective does not increase.

    ``evaluate(v)`` returns a tuple that starts with the objective at ``v``,
    ``current`` is that tuple at ``u``; returns the point taken and its tuple."""
    step = gamma
    for _ in range(MAX_HALVINGS + 1):
        cand = u - step * grad
        result = evaluate(cand)
        if result[0] <= current[0]:
            return cand, result
        step *= 0.5
    return u, current


def _descend(evaluate, u: np.ndarray, gamma: float, max_iters: int):
    """Descent from ``u``; ``evaluate(v)`` returns (J(v), gradient), where
    ``gradient()`` gives grad J(v) from the margins of that evaluation, so
    each step's gradient comes from the evaluation that accepted its point
    and a rejected candidate costs no gradient."""
    current = evaluate(u)
    for _ in range(max_iters):
        u_new, taken = _backtracking_step(evaluate, current[1](), u, current, gamma)
        if taken[0] >= current[0] - 1e-14:
            return u_new, taken[0]
        u, current = u_new, taken
    return u, current[0]


def init_u0(
    S_l_fraction,
    S_u_fraction,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    cfg: TrainConfig,
    tilt_cfg: TiltConfig,
    max_iters: int = U0_MAX_ITERS,
) -> np.ndarray:
    """Prior mean: minimize label risk + half disagreement on held-aside fractions.

    Hidden features are drawn once from the untilted model posteriors
    (C = 0 sampling); the objective is the surrogate without its
    quadratic term and without C-scaling.  Descent runs from
    ``cfg.restarts`` random starts, uniform in ``[-cfg.init_range,
    cfg.init_range]^dim``, plus one model-based start (the backends'
    natural weights, which realize the generative discriminant in
    feature space -- random starts alone almost always sit on the
    objective's saturated plateaus); the best final value wins.  With
    ``max_iters`` = 0 that is the best start as-is.  These starts are
    the only use of ``cfg.restarts`` and ``cfg.init_range``.
    """
    if not S_l_fraction:
        raise InvalidArgumentError("u0 initialization requires labeled examples")
    S_u_fraction = list(S_u_fraction or [])
    dim = backend_plus.block_dim() + backend_minus.block_dim() + 1
    untilted = replace(tilt_cfg, C=0.0)
    sets_l, sets_u = _sample_sets(
        S_l_fraction, S_u_fraction, backend_plus, backend_minus, np.zeros(dim), untilted,
        cfg.seed, _PHASE_U0_SAMPLES,
    )
    labeled, unlabeled = _feature_batches(S_l_fraction, sets_l, sets_u, (tilt_cfg.n_draws, dim))
    surrogate = Surrogate(labeled, unlabeled)
    starts = [
        derive_rng(cfg.seed, _PHASE_U0_STARTS, r).uniform(-cfg.init_range, cfg.init_range, dim)
        for r in range(cfg.restarts)
    ]
    starts.append(
        np.concatenate(
            [backend_plus.natural_weights(), -backend_minus.natural_weights(), [0.0]]
        )
    )
    best_u, best_j = None, math.inf
    for start in starts:
        u_r, j_r = _descend(lambda v: surrogate(v, v, 1.0), start, cfg.gamma_u, max_iters)
        if j_r < best_j:
            best_u, best_j = u_r, j_r
    return best_u


def _hidden_kl(sample_sets, m: int) -> float:
    """Per-example posterior-vs-model KL, estimated from the sampler.

    Accepted draws estimate the tilted-posterior expectation of the log
    tilt; the acceptance rate estimates the normalizer.  Clamped at 0
    (the exact quantity is nonnegative; estimates can dip below).
    """
    total = 0.0
    for s in sample_sets:
        rate = max(s.acceptance_rate, np.finfo(float).tiny)
        total += max(0.0, np.mean(s.exponents) - np.log(rate))
    return total / m


def _evaluate(labeled, unlabeled, sets_l, sets_u, u, u0, C, delta, m, m_l, m_u, n) -> RiskReport:
    """Full risk report at the current state, on the current samples.

    ``bound_raw`` is the semi-supervised bound when there is unlabeled
    data and the supervised one otherwise; with every example labeled the
    combined risk e + d/2 collapses to R by the decomposition identity,
    so the two coincide.
    """
    risks = empirical_risks(labeled, unlabeled, u)
    klw = kl_weights(u, u0)
    kl_hidden = _hidden_kl(sets_l + sets_u, m)
    kl_total = klw + kl_hidden
    J = surrogate_objective(labeled, unlabeled, u, u0, C, m, m_l, m_u, n)
    if C == 0.0:
        raw = float("inf")  # the bound degenerates as C -> 0; vacuous
    elif m_u > 0:
        raw = bound_semisupervised(risks.e_S, risks.d_S, kl_total, C, delta, m)
    else:
        raw = bound_supervised(risks.R_S, kl_total, C, delta, m)
    rates = [s.acceptance_rate for s in sets_l + sets_u]
    return RiskReport(
        e_S=risks.e_S,
        d_S=risks.d_S,
        R_S=risks.R_S,
        kl_w=klw,
        J=J,
        bound=min(raw, 1.0),
        bound_raw=raw,
        kl_hidden=kl_hidden,
        acceptance_rate=float(np.mean(rates)),
        C=C,
    )


def train(
    S_l,
    S_u,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    cfg: TrainConfig,
    tilt_cfg: TiltConfig | None = None,
    initial_u: np.ndarray | None = None,
) -> TrainedTask:
    """Run the full loop on labeled pairs ``S_l`` and unlabeled inputs ``S_u``.

    The supplied backends are cloned, never mutated.  With no
    ``initial_u`` the loop starts from the fitted prior mean.
    """
    S_l = list(S_l)
    S_u = list(S_u or [])
    if not S_l:
        raise InvalidArgumentError("training requires labeled examples")
    m_l, m_u = len(S_l), len(S_u)
    m = m_l + m_u
    bp, bm = backend_plus.clone(), backend_minus.clone()
    dim = bp.block_dim() + bm.block_dim() + 1

    if tilt_cfg is None:
        tilt_cfg = TiltConfig(C=cfg.C_init)
    n = tilt_cfg.n_draws

    frac_rng = derive_rng(cfg.seed, _PHASE_FRACTIONS)
    n_l0 = max(1, math.ceil(cfg.u0_fraction * m_l))
    idx_l = frac_rng.permutation(m_l)[:n_l0]
    idx_u = frac_rng.permutation(m_u)[: int(round(cfg.u0_fraction * m_u))]
    u0 = init_u0(
        [S_l[i] for i in idx_l], [S_u[i] for i in idx_u], bp, bm, cfg, tilt_cfg
    )

    u = u0.copy() if initial_u is None else np.asarray(initial_u, dtype=float).copy()
    if u.shape != (dim,):
        raise InvalidArgumentError(f"initial u must have dimension {dim}")
    C = float(cfg.C_init)
    if cfg.c_update == "cross_validation":
        C = select_C_by_cv(S_l, backend_plus, backend_minus, cfg, tilt_cfg)

    history: list[RiskReport] = []
    degraded_counts: list[int] = []
    prev_j = None
    consecutive_small = 0
    for it in range(cfg.max_outer_iters):
        tcfg = replace(tilt_cfg, C=C)
        sets_l, sets_u = _sample_sets(S_l, S_u, bp, bm, u, tcfg, cfg.seed, _PHASE_LOOP, it)
        n_degraded = sum(s.degraded for s in sets_l) + sum(s.degraded for s in sets_u)
        degraded_counts.append(n_degraded)
        if n_degraded > DEGRADED_ABORT_FRACTION * m:
            raise TrainingAbort(
                f"iteration {it}: {n_degraded}/{m} examples exhausted the sampling "
                f"budget (>{DEGRADED_ABORT_FRACTION:.0%}); lower C or raise max_attempts"
            )

        plus_draws = [(x, s.h_plus) for (x, y), s in zip(S_l, sets_l) if y == 1]
        minus_draws = [(x, s.h_minus) for (x, y), s in zip(S_l, sets_l) if y == -1]
        if plus_draws:
            bp.update_parameters(plus_draws)
        if minus_draws:
            bm.update_parameters(minus_draws)

        labeled, unlabeled = _feature_batches(S_l, sets_l, sets_u, (n, dim))
        report = _evaluate(
            labeled, unlabeled, sets_l, sets_u, u, u0, C, cfg.delta, m, m_l, m_u, n
        )
        history.append(report)

        def j_of(v):
            return (surrogate_objective(labeled, unlabeled, v, u0, C, m, m_l, m_u, n),)

        g = grad_u(labeled, unlabeled, u, u0, C, m, m_l, m_u, n)
        u, (j_after,) = _backtracking_step(j_of, g, u, (report.J,), cfg.gamma_u)
        # Components first: the squared norm of a huge finite u overflows.
        if np.any(np.abs(u) > MAX_U_NORM) or np.linalg.norm(u) > MAX_U_NORM:
            raise TrainingAbort(f"iteration {it}: ||u|| exceeded {MAX_U_NORM:g}; diverged")

        if cfg.c_update == "gradient":
            step = cfg.gamma_c * grad_C(j_after, report.R_S, report.d_S, C, cfg.delta, m)
            C = max(C - step, MIN_C)

        if prev_j is not None and abs(report.J - prev_j) < cfg.convergence_tol:
            consecutive_small += 1
            if consecutive_small >= 3:
                prev_j = report.J
                break
        else:
            consecutive_small = 0
        prev_j = report.J

    return TrainedTask(
        u0=u0,
        u=u,
        C=C,
        backend_plus=bp,
        backend_minus=bm,
        history=history,
        flags={
            "degraded_per_iteration": degraded_counts,
            "bound_is_heuristic": cfg.c_update != "fixed",
        },
        delta=cfg.delta,
    )


def multi_restart_train(
    S_l,
    S_u,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    cfg: TrainConfig,
    tilt_cfg: TiltConfig | None = None,
) -> TrainedTask:
    """One training run per task: :func:`train` from the fitted prior mean.

    A :class:`TrainingAbort` propagates with its own diagnostic.
    """
    # perfbench/tracing.py patches this name and trainer.train until ROADMAP item 5.
    return train(S_l, S_u, backend_plus, backend_minus, cfg, tilt_cfg)


def evaluate_bounds(
    S_l,
    S_u,
    task: TrainedTask,
    tilt_cfg: TiltConfig,
    delta: float,
    seed: int,
) -> dict:
    """Risk and bound components of a trained task on the given data.

    Hidden samples are drawn from the tilted posteriors at the task's
    (u, C); both the supervised and the semi-supervised bound are
    reported raw (callers clamp for display).
    """
    S_l = list(S_l)
    S_u = list(S_u or [])
    m_l, m_u = len(S_l), len(S_u)
    m = m_l + m_u
    tcfg = replace(tilt_cfg, C=task.C)
    bp, bm = task.backend_plus, task.backend_minus
    sets_l, sets_u = _sample_sets(S_l, S_u, bp, bm, task.u, tcfg, seed, _PHASE_LOOP, 0)
    shape = (tcfg.n_draws, bp.block_dim() + bm.block_dim() + 1)
    labeled, unlabeled = _feature_batches(S_l, sets_l, sets_u, shape)
    r = _evaluate(
        labeled, unlabeled, sets_l, sets_u, task.u, task.u0, task.C, delta, m, m_l, m_u,
        tcfg.n_draws,
    )
    return {
        "R_S": r.R_S,
        "e_S": r.e_S,
        "d_S": r.d_S,
        "kl_w": r.kl_w,
        "kl_hidden": r.kl_hidden,
        "bound_supervised_raw": bound_supervised(r.R_S, r.kl_w + r.kl_hidden, task.C, delta, m),
        "bound_semisupervised_raw": r.bound_raw,
    }


def select_C_by_cv(
    S_l,
    backend_plus: GenerativeBackend,
    backend_minus: GenerativeBackend,
    cfg: TrainConfig,
    tilt_cfg: TiltConfig,
    n_votes: int = 5,
) -> float:
    """Pick C from {2^-6 .. 2^6} by stratified 10-fold CV accuracy on S_l."""
    ys = np.array([y for _, y in S_l])
    pos = np.flatnonzero(ys == 1)
    neg = np.flatnonzero(ys == -1)
    n_folds = min(10, pos.size, neg.size)
    if n_folds < 2:
        warnings.warn("too few examples per class for CV; keeping C_init")
        return float(cfg.C_init)

    rng = derive_rng(cfg.seed, _PHASE_CV)
    fold_of = np.empty(len(S_l), dtype=int)
    for group in (pos, neg):
        perm = rng.permutation(group)
        fold_of[perm] = np.arange(perm.size) % n_folds

    inner_cfg = replace(cfg, c_update="fixed", restarts=1)
    best_c, best_acc = float(cfg.C_init), -1.0
    for k in range(-6, 7):
        C = 2.0**k
        accs = []
        for f in range(n_folds):
            train_set = [S_l[i] for i in range(len(S_l)) if fold_of[i] != f]
            val_set = [S_l[i] for i in range(len(S_l)) if fold_of[i] == f]
            cfg_f = replace(inner_cfg, C_init=C, seed=cfg.seed + 1000 * (k + 7) + f)
            try:
                task = train(train_set, [], backend_plus, backend_minus, cfg_f, tilt_cfg)
            except TrainingAbort:
                accs.append(0.0)
                continue
            accs.append(evaluate(val_set, task, n_votes, derive_rng(cfg_f.seed, _PHASE_CV, 1)))
        mean_acc = float(np.mean(accs))
        if mean_acc > best_acc:
            best_c, best_acc = C, mean_acc
    return best_c
