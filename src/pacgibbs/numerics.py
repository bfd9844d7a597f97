"""Gaussian tail/density primitives and the finite-difference test oracle.

The classifier's closed-form risk expressions are built from two special
functions: the upper Gaussian tail ``phi_tail`` and the standard normal
density ``gauss_pdf``.  Both accept scalars or numpy arrays and are pure,
so they are safe for unrestricted concurrent use.  ``phi_tail`` uses the
standard library's ``math.erfc``, so the package needs nothing beyond numpy
at run time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidArgumentError

_INV_SQRT_2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _check_finite(a, name: str):
    arr = np.asarray(a, dtype=float)
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} must be finite, got {a!r}")
    return arr


def phi_tail(a):
    """Upper tail mass of the standard normal at ``a``.

    Computed as ``0.5 * erfc(a * (1/sqrt(2)))`` with ``math.erfc`` mapped
    over the values, which is stable in both tails (direct quadrature of the
    defining integral is used only as a test oracle).  Non-increasing, with
    ``phi_tail(a) + phi_tail(-a) == 1`` to machine precision; it reaches 0
    from ``a`` of about 38.5.
    """
    arr = _check_finite(a, "a")
    x = arr * _INV_SQRT_2
    if arr.ndim == 0:
        return 0.5 * math.erfc(float(x))
    return 0.5 * np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)


def gauss_pdf(a):
    """Standard normal density ``exp(-a^2/2) / sqrt(2*pi)`` (unit std, zero mean).

    ``|a|`` is capped at 40, where the density has already underflowed to 0,
    so that squaring a huge ``a`` cannot overflow.
    """
    arr = np.minimum(np.abs(_check_finite(a, "a")), 40.0)
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
