"""Scalar special functions used by the weight optimisation.

Only the principal branch of the Lambert W function on the non-negative
axis is needed: the weight formulas evaluate W at deg(v) * log(1 + lambda),
which is never negative.
"""

from __future__ import annotations

import math

from .errors import InputError, NumericError

ABS_TOL = 1e-12
MAX_ITER = 100


def lambert_w(x: float) -> float:
    """Principal-branch Lambert W on x >= 0: the w >= 0 with w * e^w = x.

    Halley's method from the initial guess log(1 + x), which is globally
    convergent on the non-negative axis.  Returns the first iterate whose
    residual satisfies |w * e^w - x| <= ABS_TOL * (1 + x); because the
    iteration converges cubically this is accurate to near machine
    precision in practice.  NumericError after MAX_ITER iterations.
    """
    x = float(x)
    if math.isnan(x) or x < 0:
        raise InputError("lambert_w requires x >= 0")
    if x == 0.0:
        return 0.0
    w = math.log1p(x)
    for _ in range(MAX_ITER):
        ew = math.exp(w)
        f = w * ew - x
        if abs(f) <= ABS_TOL * (1.0 + x):
            return w
        wp1 = w + 1.0
        w -= f / (ew * wp1 - (w + 2.0) * f / (2.0 * wp1))
    raise NumericError(f"lambert_w failed to converge for x={x!r}")
