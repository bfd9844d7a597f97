"""Built-in verification checks, runnable from the CLI.

These are the one copy of release criteria 1-4: the acceptance suite
calls the same checks and pins their tolerances.  Each check reports its
largest observed error against a tolerance; the CLI exits nonzero if any
check fails.  The gradient checks accept an injected implementation so
the harness itself can be tested against a deliberately broken gradient.
The enumeration oracles and the tiny fixed models they run on are shared
with the test suite.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import bounds
from .features import assemble
from .gmm import GmmBackend, GmmParams
from .hmm import HmmBackend, HmmParams
from .numerics import finite_diff_gradient, gauss_pdf, phi_tail
from .sampler import TiltConfig, rejection_sample, tilt_exponents

N_ACCEPTED = 100_000  # accepted draws per sampler-fidelity case


@dataclass
class CheckResult:
    name: str
    max_err: float
    tol: float
    detail: str = ""

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


def _random_features(rng: np.random.Generator, m: int, n: int, dim: int, m_l: int):
    """``m`` examples of ``n`` unit-norm feature rows, and labels for the first ``m_l``."""
    feats = rng.normal(size=(m, n, dim))
    feats /= np.linalg.norm(feats, axis=2, keepdims=True)
    return feats, [int(rng.choice([-1, 1])) for _ in range(m_l)]


def grad_u_error(labeled, unlabeled, u, u0, C, m, m_l, m_u, n, grad_u_impl=None) -> float:
    """Relative error of ``grad_u`` against central differences of ``J`` at ``u``."""
    grad_u_impl = grad_u_impl or bounds.grad_u

    def j_of(v):
        return bounds.surrogate_objective(labeled, unlabeled, v, u0, C, m, m_l, m_u, n)

    analytic = grad_u_impl(labeled, unlabeled, u, u0, C, m, m_l, m_u, n)
    numeric = finite_diff_gradient(j_of, u, 1e-6)
    return float(np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-300))


def grad_c_error(R, d, kl_const, C, delta, m, grad_c_impl=None) -> float:
    """Relative error of ``grad_C`` against central differences of the bound in C,
    at ``J = C (R + d) + kl_const``."""
    grad_c_impl = grad_c_impl or bounds.grad_C

    def bound_of_c(c):
        j = c * (R + d) + kl_const
        return (1.0 - math.exp(-j - math.log(delta) / m)) / (1.0 - math.exp(-c))

    numeric = (bound_of_c(C + 1e-6) - bound_of_c(C - 1e-6)) / 2e-6
    analytic = grad_c_impl(C * (R + d) + kl_const, R, d, C, delta, m)
    return float(abs(analytic - numeric) / abs(numeric))


def check_grad_u(grad_u_impl=None) -> CheckResult:
    """Criterion 1: ``grad_u_error`` on 20 random instances (dimension 2-30,
    1-5 draws, up to 20 labeled and 20 unlabeled examples)."""
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(20):
        dim = int(rng.integers(2, 31))
        n = int(rng.integers(1, 6))
        m_l = int(rng.integers(1, 21))
        m_u = int(rng.integers(0, 21))
        feats, labels = _random_features(rng, m_l + m_u, n, dim, m_l)
        labeled = bounds.stack_features(feats[:m_l], labels)
        unlabeled = bounds.stack_features(feats[m_l:])
        u = rng.normal(size=dim)
        u0 = rng.normal(size=dim)
        C = float(rng.uniform(0.1, 3.0))
        rel = grad_u_error(labeled, unlabeled, u, u0, C, m_l + m_u, m_l, m_u, n, grad_u_impl)
        worst = max(worst, rel)
    return CheckResult("grad_u vs finite differences", worst, 1e-5)


def check_grad_c(grad_c_impl=None) -> CheckResult:
    """Criterion 2: ``grad_c_error`` on 5 random instances."""
    rng = np.random.default_rng(202)
    worst = 0.0
    for _ in range(5):
        R = float(rng.uniform(0.05, 0.6))
        d = float(rng.uniform(0.0, 0.6))
        kl_const = float(rng.uniform(0.0, 3.0))
        C = float(rng.uniform(0.2, 4.0))
        delta = float(rng.choice([0.5, 0.05, 0.005]))
        m = int(rng.integers(10, 300))
        worst = max(worst, grad_c_error(R, d, kl_const, C, delta, m, grad_c_impl))
    return CheckResult("grad_C vs finite differences", worst, 1e-4)


def check_decomposition() -> CheckResult:
    """Criterion 3: ``R_S = e_S + d_S / 2``, in closed form on a 2401-point
    grid and as ``empirical_risks`` assembles it on 10 random instances."""
    grid = np.linspace(-6.0, 6.0, 2401)
    p, q = phi_tail(grid), phi_tail(-grid)
    closed = float(np.abs(p * p + p * q - p).max())
    rng = np.random.default_rng(303)
    assembled = 0.0
    for _ in range(10):
        dim, n, m_l = int(rng.integers(2, 12)), int(rng.integers(1, 5)), int(rng.integers(1, 15))
        feats, labels = _random_features(rng, m_l, n, dim, m_l)
        u = rng.normal(size=dim) * rng.uniform(0.1, 5.0)
        # Score the labeled set both ways: its own feature rows feed d_S too.
        labeled, same_rows = bounds.stack_features(feats, labels), bounds.stack_features(feats)
        r = bounds.empirical_risks(labeled, same_rows, u)
        assembled = max(assembled, float(abs(r.e_S + 0.5 * r.d_S - r.R_S)))
    return CheckResult(
        "risk decomposition identity",
        max(closed, assembled),
        1e-10,
        f"closed-form error {closed:.2e}, assembled error {assembled:.2e}",
    )


def check_sampler() -> list[CheckResult]:
    """Criterion 4: accepted draws against the enumerated tilted posterior.

    Two cases at C = 1.2, ``N_ACCEPTED`` draws each: a mixture pair (2 x 2
    component pairs) and a 2-state chain pair over 4 steps (2^4 x 2^4 path
    pairs).  Per case, the TV distance between draw frequencies and the
    enumeration, and |acceptance rate - Z| in standard errors.
    """
    bp, bm = tiny_gmm_pair()
    rng = np.random.default_rng(404)
    u = rng.normal(size=2 * bp.block_dim() + 1) * 0.8
    mixture = _fidelity(
        "mixture", np.array([0.5]), bp, bm, u, rng, enumerate_gmm_tilt, component_pair
    )
    bp, bm = tiny_hmm_pair()
    rng = np.random.default_rng(405)
    u = rng.normal(size=2 * bp.block_dim() + 1) * 0.5
    chain = _fidelity(
        "chain", np.array([0, 2, 1, 0]), bp, bm, u, rng, enumerate_hmm_tilt,
        lambda qp, qm: (tuple(qp), tuple(qm)),
    )
    return mixture + chain


def _fidelity(case, x, bp, bm, u, rng, enumerate_tilt, key) -> list[CheckResult]:
    cfg = TiltConfig(C=1.2, n_draws=N_ACCEPTED, max_attempts=60 * N_ACCEPTED)
    probs, z_norm = enumerate_tilt(x, 1, bp, bm, u, cfg)
    out = rejection_sample(x, 1, bp, bm, u, cfg, rng)
    tv = tv_distance(probs, [key(hp, hm) for hp, hm in zip(out.h_plus, out.h_minus)])
    return [
        CheckResult(
            f"{case} sampler vs enumerated posterior (TV)", tv, 0.02, f"{case} TV {tv:.4f}"
        ),
        CheckResult(
            f"{case} acceptance rate vs Z (standard errors)",
            rate_error(out, z_norm),
            3.0,
            f"rate {out.acceptance_rate:.4f} vs Z {z_norm:.4f}",
        ),
    ]


def tv_distance(probs: dict, keys: list) -> float:
    """Total-variation distance between the frequencies of ``keys`` and ``probs``."""
    freq = Counter(keys)
    return float(0.5 * sum(abs(freq[k] / len(keys) - p) for k, p in probs.items()))


def rate_error(out, z_norm: float) -> float:
    """|acceptance rate - Z| of a sampler result, in standard errors of the rate."""
    return abs(out.acceptance_rate - z_norm) / math.sqrt(z_norm * (1.0 - z_norm) / out.attempts)


def component_pair(hp, hm) -> tuple[int, int]:
    """The (k_plus, k_minus) key of one mixture draw, as ``enumerate_gmm_tilt`` keys it."""
    return int(np.argmax(hp)), int(np.argmax(hm))


def tiny_gmm_pair():
    """Fixed two-component, 1-d mixtures for enumerable sampler checks."""
    return tuple(
        GmmBackend(
            GmmParams(np.array(weights), np.array(means)[:, None], np.array(variances)[:, None]),
            variance_floor=np.array([1e-8]),
        )
        # (weights, means, variances) of the plus and the minus model
        for weights, means, variances in (
            ([0.6, 0.4], [0.0, 2.0], [1.0, 0.5]),
            ([0.5, 0.5], [-1.0, 1.0], [0.8, 1.2]),
        )
    )


def tiny_hmm_pair(n_symbols: int = 3):
    """Fixed two-state HMMs for enumerable sampler checks."""
    return tuple(
        HmmBackend(
            HmmParams(np.array(initial), np.array(transition), np.array(emission)[:, :n_symbols])
        )
        # (initial, transition, emission) of the plus and the minus model
        for initial, transition, emission in (
            ([0.7, 0.3], [[0.8, 0.2], [0.3, 0.7]], [[0.6, 0.3, 0.1], [0.1, 0.3, 0.6]]),
            ([0.4, 0.6], [[0.5, 0.5], [0.6, 0.4]], [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4]]),
        )
    )


def _enumerate_tilt(x, y, u, cfg, plus, minus):
    """Brute-force tilted posterior over every pair of hidden values.

    ``plus`` and ``minus`` are (backend, keys, stacked hidden values,
    untilted probabilities) of each side.  Returns (probabilities keyed by
    (key_plus, key_minus), normalizer), where the normalizer is the
    acceptance probability under the untilted proposal.
    """
    (bp, keys_p, h_p, w_p), (bm, keys_m, h_m, w_m) = plus, minus
    ip, im = np.array(list(itertools.product(range(len(keys_p)), range(len(keys_m))))).T
    _, phi_bar = assemble(
        bp.feature_block([x], h_p[ip], bp.approx_posterior([x])),
        bm.feature_block([x], h_m[im], bm.approx_posterior([x])),
    )
    labels = np.full(len(phi_bar), 0 if y is None else y)
    mass = w_p[ip] * w_m[im] * np.exp(tilt_exponents(phi_bar, labels, u, cfg))
    z_norm = sum(mass.tolist())
    probs = {(keys_p[a], keys_m[b]): w / z_norm for a, b, w in zip(ip, im, mass.tolist())}
    return probs, z_norm


def enumerate_gmm_tilt(x, y, bp, bm, u, cfg):
    """Tilted posterior over all (k_plus, k_minus) component pairs; see ``_enumerate_tilt``."""
    sides = []
    for backend in (bp, bm):
        (a,) = backend.approx_posterior([x])
        sides.append((backend, range(a.size), np.eye(a.size), a))
    return _enumerate_tilt(x, y, u, cfg, *sides)


def enumerate_hmm_joint(x, params):
    """All-path joint probabilities P(x, q); sums to the exact likelihood."""
    x = np.asarray(x, dtype=int)
    out = {}
    for q in itertools.product(range(params.n_states), repeat=x.size):
        p = params.initial[q[0]] * params.emission[q[0], x[0]]
        for t in range(1, x.size):
            p *= params.transition[q[t - 1], q[t]] * params.emission[q[t], x[t]]
        out[q] = p
    return out


def enumerate_hmm_tilt(x, y, bp, bm, u, cfg):
    """Tilted posterior over all (q_plus, q_minus) path pairs; see ``_enumerate_tilt``."""
    sides = []
    for backend in (bp, bm):
        joint = enumerate_hmm_joint(x, backend.params)
        lik = sum(joint.values())
        paths = list(joint)
        sides.append((backend, paths, np.array(paths), np.array([joint[q] / lik for q in paths])))
    return _enumerate_tilt(x, y, u, cfg, *sides)


def run_all(grad_u_impl=None, grad_c_impl=None) -> list[CheckResult]:
    return [
        check_phi_complement(),
        check_phi_derivative(),
        check_decomposition(),
        check_grad_u(grad_u_impl),
        check_grad_c(grad_c_impl),
        *check_sampler(),
    ]


def format_report(results: list[CheckResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        line = f"{status}  {r.name}: max error {r.max_err:.3e} (tolerance {r.tol:g})"
        lines.append(line + (f"; {r.detail}" if r.detail else ""))
    return "\n".join(lines)
