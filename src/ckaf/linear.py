"""Linear complex adaptive filters: NCLMS and widely-linear NCLMS.

Prediction is h^H x (conjugate on the weights), so the instantaneous
cost |d - h^H x|^2 has conjugate-Wirtinger gradient -e* x and the
steepest-descent update is h <- h + mu' e* x with the step normalized
by the input power. The widely-linear variant adds a conjugate branch
g^H x*, normalized by the augmented-input power ||x||^2 + ||x*||^2.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np


class ComplexNlms:
    """Normalized complex LMS, optionally widely linear.

    Parameters
    ----------
    n_taps:
        Weight vector length (filter length L + 1).
    mu:
        Normalized step size.
    eps:
        Regularizer guarding the power normalization against
        vanishing input power.
    widely_linear:
        When True, a conjugate branch g is maintained and the output
        is h^H x + g^H x*.
    """

    def __init__(self, n_taps: int, mu: float, eps: float = 1e-8, widely_linear: bool = False):
        n_taps = int(n_taps)
        if n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {n_taps}")
        if mu < 0:
            raise ValueError(f"mu must be nonnegative, got {mu}")
        if eps < 0:
            raise ValueError(f"eps must be nonnegative, got {eps}")
        self.n_taps = n_taps
        self.mu = float(mu)
        self.eps = float(eps)
        self.widely_linear = bool(widely_linear)
        self.h = np.zeros(n_taps, dtype=complex)
        self.g: Optional[np.ndarray] = np.zeros(n_taps, dtype=complex) if widely_linear else None

    def _coerce(self, x) -> np.ndarray:
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        if x.shape != (self.n_taps,):
            raise ValueError(f"input length {x.shape} does not match filter length ({self.n_taps},)")
        return x

    def predict(self, x) -> complex:
        """Filter output h^H x (+ g^H x* when widely linear)."""
        return self._output(self._coerce(x))

    def _output(self, x: np.ndarray) -> complex:
        y = np.vdot(self.h, x)
        if self.widely_linear:
            y += np.vdot(self.g, x.conj())
        return complex(y)

    def update(self, x, d: complex) -> tuple[complex, complex]:
        """One normalized-LMS step; returns (prediction, error), both pre-update."""
        x = self._coerce(x)
        d = complex(d)
        power = np.vdot(x, x).real
        # a non-finite entry of x makes its power non-finite
        if not (math.isfinite(power) and cmath.isfinite(d)):
            raise ValueError("non-finite input sample; update rejected")
        y = self._output(x)
        e = d - y
        if self.widely_linear:
            step = self.mu / (2.0 * power + self.eps) * e.conjugate()
            self.h += step * x
            self.g += step * x.conj()
        else:
            self.h += self.mu / (power + self.eps) * e.conjugate() * x
        return y, e
