"""Built-in verification checks runnable from the CLI.

Each check reports its maximum observed error against a tolerance; the
CLI exits nonzero if any check fails.  The gradient checks accept an
injected implementation so the harness itself can be tested against a
deliberately broken gradient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import bounds
from .gmm import GmmBackend, GmmParams
from .numerics import finite_diff_gradient, gauss_pdf, phi_tail
from .sampler import TiltConfig, rejection_sample, tilt_exponents
from .features import assemble


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_err < self.tol


def check_phi_complement() -> CheckResult:
    grid = np.linspace(-8.0, 8.0, 2001)
    err = np.abs(phi_tail(grid) + phi_tail(-grid) - 1.0).max()
    return CheckResult("phi_tail complement sum", float(err), 1e-12)


def check_phi_derivative() -> CheckResult:
    grid = np.linspace(-5.0, 5.0, 101)
    h = 1e-6
    fd = (phi_tail(grid + h) - phi_tail(grid - h)) / (2.0 * h)
    err = np.abs(fd + gauss_pdf(grid)).max()
    return CheckResult("phi_tail derivative = -gauss_pdf", float(err), 1e-6)


def check_decomposition() -> CheckResult:
    grid = np.linspace(-6.0, 6.0, 1201)
    p, q = phi_tail(grid), phi_tail(-grid)
    closed = np.abs(p * p + p * q - p).max()
    rng = np.random.default_rng(7)
    u = rng.normal(size=6)
    feats = rng.normal(size=(4, 3, 6))
    feats /= np.linalg.norm(feats, axis=2, keepdims=True)
    labeled = bounds.stack_features(feats, [1 if i % 2 == 0 else -1 for i in range(4)])
    # Score the labeled set both ways: its own feature rows feed d_S too.
    both_ways = bounds.empirical_risks(labeled, bounds.stack_features(feats), u)
    assembled = abs(both_ways.e_S + 0.5 * both_ways.d_S - both_ways.R_S)
    return CheckResult("risk decomposition identity", float(max(closed, assembled)), 1e-10)


def check_grad_u(grad_u_impl=None) -> CheckResult:
    grad_u_impl = grad_u_impl or bounds.grad_u
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(5):
        dim, n, m_l, m_u = 8, 3, 4, 3
        feats = rng.normal(size=(m_l + m_u, n, dim))
        feats /= np.linalg.norm(feats, axis=2, keepdims=True)
        labels = [int(rng.choice([-1, 1])) for _ in range(m_l)]
        labeled = bounds.stack_features(feats[:m_l], labels)
        unlabeled = bounds.stack_features(feats[m_l:])
        u = rng.normal(size=dim)
        u0 = rng.normal(size=dim)
        C = float(rng.uniform(0.2, 3.0))
        m = m_l + m_u

        def j_of(v):
            return bounds.surrogate_objective(labeled, unlabeled, v, u0, C, m, m_l, m_u, n)

        analytic = grad_u_impl(labeled, unlabeled, u, u0, C, m, m_l, m_u, n)
        numeric = finite_diff_gradient(j_of, u, 1e-6)
        rel = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        worst = max(worst, float(rel))
    return CheckResult("grad_u vs finite differences", worst, 1e-5)


def check_grad_c(grad_c_impl=None) -> CheckResult:
    grad_c_impl = grad_c_impl or bounds.grad_C
    rng = np.random.default_rng(13)
    worst = 0.0
    for _ in range(5):
        R = float(rng.uniform(0.05, 0.5))
        d = float(rng.uniform(0.0, 0.5))
        kl_const = float(rng.uniform(0.0, 2.0))
        C = float(rng.uniform(0.3, 3.0))
        delta, m = 0.05, int(rng.integers(10, 200))

        def bound_of_c(c):
            j = c * (R + d) + kl_const
            return (1.0 - np.exp(-j - np.log(delta) / m)) / (1.0 - np.exp(-c))

        analytic = grad_c_impl(C * (R + d) + kl_const, R, d, C, delta, m)
        h = 1e-6
        numeric = (bound_of_c(C + h) - bound_of_c(C - h)) / (2.0 * h)
        rel = abs(analytic - numeric) / max(abs(numeric), 1e-12)
        worst = max(worst, float(rel))
    return CheckResult("grad_C vs finite differences", worst, 1e-4)


def tiny_gmm_pair():
    """Fixed two-component, 1-d mixtures for enumerable sampler checks."""
    plus = GmmBackend(
        GmmParams(
            weights=np.array([0.6, 0.4]),
            means=np.array([[0.0], [2.0]]),
            variances=np.array([[1.0], [0.5]]),
        ),
        variance_floor=np.array([1e-8]),
    )
    minus = GmmBackend(
        GmmParams(
            weights=np.array([0.5, 0.5]),
            means=np.array([[-1.0], [1.0]]),
            variances=np.array([[0.8], [1.2]]),
        ),
        variance_floor=np.array([1e-8]),
    )
    return plus, minus


def check_sampler_enumeration(n_accepted: int = 50000) -> CheckResult:
    """Accepted-draw frequencies must match the enumerated tilted posterior."""
    bp, bm = tiny_gmm_pair()
    x = np.array([0.5])
    rng = np.random.default_rng(17)
    u = rng.normal(size=2 * bp.block_dim() + 1)
    cfg = TiltConfig(C=2.0, m=4, m_l=2, m_u=2, n_draws=n_accepted, max_attempts=60 * n_accepted)
    a_p = bp.approx_posterior(x)
    a_m = bm.approx_posterior(x)
    # Every (z_plus, z_minus) pair as one stack, z_plus-major.
    z_p, z_m = np.repeat(np.eye(2), 2, axis=0), np.tile(np.eye(2), (2, 1))
    _, phi_bar = assemble(bp.feature_block(x, z_p, a_p), bm.feature_block(x, z_m, a_m))
    accept = np.exp(tilt_exponents(phi_bar, 1, u, cfg)).reshape(2, 2)
    target = np.outer(a_p, a_m) * accept
    target /= target.sum()
    result = rejection_sample(x, 1, bp, bm, u, cfg, rng)
    freq = np.zeros((2, 2))
    np.add.at(freq, (np.argmax(result.h_plus, axis=1), np.argmax(result.h_minus, axis=1)), 1.0)
    freq /= freq.sum()
    tv = 0.5 * np.abs(freq - target).sum()
    return CheckResult("rejection sampler vs enumerated posterior", float(tv), 0.025)


def run_all(grad_u_impl=None, grad_c_impl=None) -> list[CheckResult]:
    return [
        check_phi_complement(),
        check_phi_derivative(),
        check_decomposition(),
        check_grad_u(grad_u_impl),
        check_grad_c(grad_c_impl),
        check_sampler_enumeration(),
    ]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {r.name}: max error {r.max_err:.3e} (tolerance {r.tol:.0e})")
    return "\n".join(lines)
