"""Gaussian tail/density primitives and the finite-difference test oracle.

The classifier's closed-form risk expressions are built from two special
functions: the upper Gaussian tail ``phi_tail`` and the standard normal
density ``gauss_pdf``.  Both accept scalars or numpy arrays and are pure,
so they are safe for unrestricted concurrent use.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

_INV_SQRT_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_erfc = None  # scipy.special.erfc, once phi_tail has imported it


def _check_finite(a, name: str):
    arr = np.asarray(a, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite, got {a!r}")
    return arr


def phi_tail(a):
    """Upper tail mass of the standard normal at ``a``.

    Computed as ``0.5 * erfc(a / sqrt(2))``, which is stable in both tails
    (direct quadrature of the defining integral is used only as a test
    oracle).  Strictly decreasing, with ``phi_tail(a) + phi_tail(-a) == 1``
    to machine precision.
    """
    global _erfc
    if _erfc is None:
        # Imported on first use: scipy.special takes ~0.35 s to load, and predict never gets here.
        from scipy.special import erfc as _erfc

    arr = _check_finite(a, "a")
    out = 0.5 * _erfc(arr * _INV_SQRT_2)
    return float(out) if arr.ndim == 0 else out


def gauss_pdf(a):
    """Standard normal density ``exp(-a^2/2) / sqrt(2*pi)`` (unit std, zero mean)."""
    arr = _check_finite(a, "a")
    out = _INV_SQRT_2PI * np.exp(-0.5 * arr * arr)
    return float(out) if arr.ndim == 0 else out


def finite_diff_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar field ``f`` at ``x``.

    Component ``i`` is ``(f(x + eps*e_i) - f(x - eps*e_i)) / (2*eps)``.
    Evaluation failures of ``f`` propagate unchanged.
    """
    if eps <= 0:
        raise InvalidArgumentError(f"eps must be positive, got {eps}")
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        step = np.zeros_like(x)
        step.flat[i] = eps
        grad.flat[i] = (f(x + step) - f(x - step)) / (2.0 * eps)
    return grad
