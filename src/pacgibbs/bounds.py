"""Risks, KL terms, risk bounds, the training surrogate and its gradients.

The classifier weight is Gaussian, ``w ~ N(u, I)`` with prior ``N(u0, I)``,
so the per-sample expectations over ``w`` have closed forms in the unit
feature ``phi_bar``:

* misclassification:  ``E_w I(sign(w.phi_bar) != y) = phi_tail(y * u.phi_bar)``
* disagreement of two independent draws:
  ``E I(f_w1 != f_w2) = 2 * phi_tail(a) * phi_tail(-a)`` with ``a = u.phi_bar``

Sampled hidden configurations enter as feature batches built by
:func:`stack_features`: one float array of shape (m, n, D) per example set,
holding n unit-norm rows (one per hidden draw) of dimension D for each of
the m examples.  In the labeled batch every row is already multiplied by
its example's label y = +-1, so its margins are the signed margins
``y a_ij``; the unlabeled batch holds the rows as drawn.  The surrogate
objective ``J(u)`` replaces the intractable log-normalizers with their
Jensen bound::

    J(u) = ||u - u0||^2 / (2m)
         + (C / (m_l n)) sum_ij  phi_tail(y_i a_ij)
         + (C / (m_u n)) sum_ij  phi_tail(a_ij) phi_tail(-a_ij)

and its analytic ``u``-gradient is written once, in :class:`Surrogate`,
which gives both from one set of margins.  Both work on whole batches,
yet give the same bits as one pass per example: negation is exact in
IEEE arithmetic, so signed rows give the signed margins exactly, the
batches stack along the example axis with one (n, D) product per
example, and sums over examples run left to right from +0.0
(``_sum_examples``), as a per-example ``+=`` loop does.
The trade-off constant ``C`` has its own descent direction, implemented
exactly as the derivative of the bound treated as a function of ``C``
with the risk terms entering ``J`` linearly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, InvalidArgumentError
from .numerics import gauss_pdf, phi_tail

# A feature batch: float array of shape (m, n, D), rows unit-norm; in a
# labeled batch each example's rows are multiplied by its label.
FeatureBatch = np.ndarray

_UNIT_TOL = 1e-6


@dataclass
class RiskReport:
    """Per-evaluation risk summary.

    ``bound`` is clamped to [0, 1] for reporting; ``bound_raw`` preserves
    the unclamped value.  ``acceptance_rate`` and ``C`` ride along for
    training telemetry.
    """

    e_S: float = float("nan")
    d_S: float = float("nan")
    R_S: float = float("nan")
    kl_w: float = float("nan")
    J: float = float("nan")
    bound: float = float("nan")
    bound_raw: float = float("nan")
    kl_hidden: float = float("nan")
    acceptance_rate: float = float("nan")
    C: float = float("nan")


def _check_unit_rows(mat: np.ndarray):
    if not np.all(np.isfinite(mat)):
        raise ContractViolationError("feature rows must be finite")
    norms = np.linalg.norm(mat, axis=-1)
    if np.any(np.abs(norms - 1.0) > _UNIT_TOL):
        raise ContractViolationError(
            f"feature rows must be unit-norm (max deviation {np.abs(norms - 1.0).max():.3g})"
        )


def stack_features(matrices, labels=None, shape: tuple[int, int] | None = None) -> FeatureBatch:
    """Stack per-example (n, D) feature matrices into one (m, n, D) batch.

    ``matrices`` is a sequence of matrices or an (m, n, D) array; it is
    copied, never modified.  With ``labels`` (one +1 or -1 per example)
    each example's rows are multiplied by its label, which makes the
    batch a labeled one.  ``shape`` = (n, D) gives an empty set its row
    shape.  Raises :class:`ContractViolationError` if a row is not finite
    or not unit-norm.
    """
    batch = np.array(matrices, dtype=float)
    if len(batch) == 0 and shape is not None:
        batch = batch.reshape(0, *shape)
    if batch.ndim != 3:
        raise InvalidArgumentError(f"features must stack to shape (m, n, D), got {batch.shape}")
    if labels is not None:
        signs = np.asarray(labels, dtype=float)
        if signs.shape != (len(batch),) or not np.all(np.abs(signs) == 1.0):
            raise InvalidArgumentError("labels must be one -1 or +1 per example")
        batch *= signs[:, None, None]
    _check_unit_rows(batch)
    return batch


def kl_weights(u: np.ndarray, u0: np.ndarray) -> float:
    """KL(N(u, I) || N(u0, I)) = ||u - u0||^2 / 2."""
    u = np.asarray(u, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    if u.shape != u0.shape:
        raise InvalidArgumentError("u and u0 must have equal dimensions")
    diff = u - u0
    with np.errstate(over="ignore"):  # beyond the double range the KL is inf
        return 0.5 * float(diff @ diff)


def _sum_examples(values: np.ndarray):
    """Sum over the example axis, left to right from +0.0.

    This gives the bits of a per-example ``total += value`` loop; a plain
    ``np.sum`` adds pairwise and can differ in the last bits.
    """
    return values.cumsum(axis=0)[-1] + 0.0


def _weighted_rows(weights: np.ndarray, batch: FeatureBatch) -> np.ndarray:
    """Per example, the weighted mean of its rows: ``weights[i] @ batch[i] / n``."""
    return np.matmul(weights[:, None, :], batch)[:, 0, :] / batch.shape[1]


def empirical_risks(labeled: FeatureBatch, unlabeled: FeatureBatch, u: np.ndarray) -> RiskReport:
    """Sample-averaged risks at ``u``: e_S on labeled, d_S on unlabeled, R_S on labeled.

    e_S pairs the two independent weight draws on the same hidden sample
    (``phi_tail(y a)^2`` per draw).  An empty unlabeled set yields d_S = 0
    (supervised mode); an empty labeled set is an error.
    """
    if not len(labeled):
        raise InvalidArgumentError("empirical_risks requires at least one labeled example")
    p = phi_tail(np.matmul(labeled, u))
    d_S = 0.0
    if len(unlabeled):
        a = np.matmul(unlabeled, u)
        d_S = float(np.mean((2.0 * phi_tail(a) * phi_tail(-a)).mean(axis=1)))
    return RiskReport(
        e_S=float(np.mean((p * p).mean(axis=1))), d_S=d_S, R_S=float(np.mean(p.mean(axis=1)))
    )


def _validate_counts(labeled, unlabeled, m: int, m_l: int, m_u: int, n: int):
    if m_l != len(labeled) or m_u != len(unlabeled):
        raise InvalidArgumentError("m_l/m_u must match the sizes of the feature batches")
    if m_l < 1:
        raise InvalidArgumentError("need at least one labeled example")
    if m != m_l + m_u:
        raise InvalidArgumentError(f"m must equal m_l + m_u ({m} != {m_l} + {m_u})")
    if n < 1:
        raise InvalidArgumentError("need at least one hidden draw per example")


class Surrogate:
    """J(u) and its ``u``-gradient over one fixed (labeled, unlabeled) batch pair.

    The batches are stacked once, when it is built; ``m_l``, ``m_u`` and
    the draws per example ``n`` come from their shapes.  Each call takes
    one ``phi_tail`` call on ``[a_l; a_u; -a_u]``, and its gradient one
    ``gauss_pdf`` call on the same margins.
    """

    def __init__(self, labeled: FeatureBatch, unlabeled: FeatureBatch):
        if len(labeled) < 1:
            raise InvalidArgumentError("need at least one labeled example")
        self.rows = np.concatenate([labeled, unlabeled])
        self.m_l, self.m_u = len(labeled), len(unlabeled)

    def __call__(self, u: np.ndarray, u0: np.ndarray, C: float):
        """The pair (J(u), gradient), where ``gradient()`` returns grad J(u)."""
        m_l, m_u = self.m_l, self.m_u
        m, n = m_l + m_u, self.rows.shape[1]
        a = np.matmul(self.rows, u)
        tails = phi_tail(np.concatenate([a, -a[m_l:]]))
        t_l, t_u, t_neg = tails[:m_l], tails[m_l:m], tails[m:]
        value = kl_weights(u, u0) / m + C * _sum_examples(np.add.reduce(t_l, axis=1) / n) / m_l
        if m_u > 0:
            value += C * _sum_examples(np.add.reduce(t_u * t_neg, axis=1) / n) / m_u

        def gradient() -> np.ndarray:
            weights = gauss_pdf(a)
            weights[m_l:] *= t_u - t_neg
            rows = _weighted_rows(weights, self.rows)
            grad = (u - u0) / m - C * _sum_examples(rows[:m_l]) / m_l
            if m_u > 0:
                grad += C * _sum_examples(rows[m_l:]) / m_u
            return grad

        return float(value), gradient


def surrogate_objective(labeled, unlabeled, u, u0, C: float, m, m_l, m_u, n) -> float:
    """The Jensen surrogate J(u) over fixed hidden samples."""
    _validate_counts(labeled, unlabeled, m, m_l, m_u, n)
    return Surrogate(labeled, unlabeled)(u, u0, C)[0]


def grad_u(labeled, unlabeled, u, u0, C: float, m, m_l, m_u, n) -> np.ndarray:
    """Analytic gradient of the surrogate J(u) with respect to ``u``."""
    _validate_counts(labeled, unlabeled, m, m_l, m_u, n)
    return Surrogate(labeled, unlabeled)(u, u0, C)[1]()


def _check_bound_args(risk: float, kl_total: float, C: float, delta: float, m: int):
    if not C > 0:
        raise InvalidArgumentError(f"C must be positive, got {C}")
    if not 0.0 < delta <= 1.0:
        raise InvalidArgumentError(f"delta must lie in (0, 1], got {delta}")
    if not 0.0 <= risk <= 1.0:
        raise InvalidArgumentError(f"risk must lie in [0, 1], got {risk}")
    if kl_total < 0.0:
        raise InvalidArgumentError(f"KL must be nonnegative, got {kl_total}")
    if m < 1:
        raise InvalidArgumentError(f"m must be at least 1, got {m}")


def bound_supervised(R_S: float, kl_total: float, C: float, delta: float, m: int) -> float:
    """High-probability upper bound on the true Gibbs risk (labeled data only).

    Returns the raw value; callers clamp to 1 for display.
    """
    _check_bound_args(R_S, kl_total, C, delta, m)
    exponent = -C * R_S - (kl_total - np.log(delta)) / m
    return float((1.0 - np.exp(exponent)) / (1.0 - np.exp(-C)))


def bound_semisupervised(
    e_S: float, d_S: float, kl_total: float, C: float, delta: float, m: int
) -> float:
    """Semi-supervised bound: the supervised form at combined risk e_S + d_S/2."""
    return bound_supervised(e_S + 0.5 * d_S, kl_total, C, delta, m)


def grad_C(J_Q: float, R_Sl: float, d_Su: float, C: float, delta: float, m: int) -> float:
    """Descent direction for the trade-off constant.

    Derivative in ``C`` of ``[1 - exp(-J - log(delta)/m)] / (1 - exp(-C))``
    with the risk terms entering J at rate ``R_Sl + d_Su``.
    """
    if not C > 0:
        raise InvalidArgumentError(f"C must be positive, got {C}")
    if not 0.0 < delta <= 1.0:
        raise InvalidArgumentError(f"delta must lie in (0, 1], got {delta}")
    expm = np.exp(-C)
    inner = np.exp(-J_Q - np.log(delta) / m)
    first = -expm / (1.0 - expm) ** 2 * (1.0 - inner)
    second = (R_Sl + d_Su) * inner / (1.0 - expm)
    return float(first + second)
