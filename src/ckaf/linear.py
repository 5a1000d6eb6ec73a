"""Linear complex adaptive filters: NCLMS and widely-linear NCLMS.

Prediction is h^H x (conjugate on the weights), so the instantaneous
cost |d - h^H x|^2 has conjugate-Wirtinger gradient -e* x and the
steepest-descent update is h <- h + mu' e* x with the step normalized
by the input power. The widely-linear variant adds a conjugate branch
g^H x*: it is the same NLMS on the augmented input [x, x*] with
weights [h, g], normalized by the augmented-input power
||x||^2 + ||x*||^2 = 2 ||x||^2.
"""

from __future__ import annotations

import cmath
import math
from typing import Optional

import numpy as np

from .kernels import row_sq_norms


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
        # `not >=` also rejects NaN
        if not mu >= 0:
            raise ValueError(f"mu must be nonnegative, got {mu}")
        if not eps >= 0:
            raise ValueError(f"eps must be nonnegative, got {eps}")
        self.n_taps = n_taps
        self.mu = float(mu)
        self.eps = float(eps)
        self.widely_linear = bool(widely_linear)
        # [h] or [h, g]: the weights of the (augmented) input
        self._w = np.zeros(2 * n_taps if widely_linear else n_taps, dtype=complex)

    @property
    def h(self) -> np.ndarray:
        """Weights of x; a view, so writing into it changes the filter."""
        return self._w[: self.n_taps]

    @h.setter
    def h(self, value) -> None:
        self._w[: self.n_taps] = value

    @property
    def g(self) -> Optional[np.ndarray]:
        """Weights of x* (a view), or None when the filter is strictly linear."""
        return self._w[self.n_taps :] if self.widely_linear else None

    @g.setter
    def g(self, value) -> None:
        if not self.widely_linear:
            raise AttributeError("a strictly linear filter has no conjugate branch")
        self._w[self.n_taps :] = value

    def _sample(self, x) -> tuple[np.ndarray, float]:
        """Validate one input vector; return the row the weights act on
        (x, or [x, x*] when widely linear) and the power that normalizes its step."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        if x.shape != (self.n_taps,):
            raise ValueError(f"input length {x.shape} does not match filter length ({self.n_taps},)")
        power = float(np.vdot(x, x).real)
        # a non-finite entry of x makes its power non-finite
        if not math.isfinite(power):
            raise ValueError("non-finite input sample; update rejected")
        if self.widely_linear:
            return np.concatenate([x, x.conj()]), 2.0 * power
        return x, power

    def predict(self, x) -> complex:
        """Filter output h^H x (+ g^H x* when widely linear)."""
        return self._output(self._sample(x)[0])

    def _output(self, x: np.ndarray) -> complex:
        if not self.widely_linear:
            return complex(np.vdot(self._w, x))
        # h^H x and g^H x* are summed apart, so that g = 0 leaves h^H x exact
        n = self.n_taps
        return complex(np.vdot(self._w[:n], x[:n]) + np.vdot(self._w[n:], x[n:]))

    def _update(self, x: np.ndarray, power: float, d: complex) -> tuple[complex, complex]:
        """The normalized-LMS step on one validated (augmented) row x."""
        y = self._output(x)
        e = d - y
        self._w += self.mu / (power + self.eps) * e.conjugate() * x
        return y, e

    def update(self, x, d: complex) -> tuple[complex, complex]:
        """One normalized-LMS step; returns (prediction, error), both pre-update."""
        x, power = self._sample(x)
        d = complex(d)
        if not cmath.isfinite(d):
            raise ValueError("non-finite input sample; update rejected")
        if not power + self.eps > 0:
            raise ValueError("zero input power with eps = 0; update rejected")
        return self._update(x, power, d)

    def run(self, inputs, targets) -> np.ndarray:
        """Update through a whole stream; return the N pre-update errors.

        inputs is an (N, n_taps) complex block with N targets. The block
        is validated once, and a bad block raises before any state
        changes. Each sample then takes the step of `update`, so the
        errors and the final weights equal N calls of `update` bit for
        bit. The run stops after the first step whose squared error is
        not finite; the errors then end at that step.
        """
        x = np.asarray(inputs, dtype=complex)
        if x.ndim != 2 or x.shape[1] != self.n_taps:
            raise ValueError(f"input length {x.shape[1:]} does not match filter length ({self.n_taps},)")
        # a non-finite entry, or one too large to square, makes the power non-finite
        with np.errstate(over="ignore", invalid="ignore"):
            powers = row_sq_norms(x)
        if not np.isfinite(powers).all():
            raise ValueError("non-finite input sample; run rejected")
        if not (powers + self.eps > 0).all():
            raise ValueError("zero input power with eps = 0; run rejected")
        targets = np.asarray(targets, dtype=complex)
        if targets.shape != x.shape[:1]:
            raise ValueError(f"{x.shape[0]} inputs but targets of shape {targets.shape}")
        if not np.isfinite(targets).all():
            raise ValueError("non-finite desired value; run rejected")
        if self.widely_linear:
            augmented = np.empty((x.shape[0], 2 * self.n_taps), dtype=complex)
            augmented[:, : self.n_taps] = x
            np.conjugate(x, out=augmented[:, self.n_taps :])
            x, powers = augmented, 2.0 * powers
        errors = np.empty(targets.size, dtype=complex)
        for i, (row, power, d) in enumerate(zip(x, map(float, powers), map(complex, targets))):
            e = errors[i] = self._update(row, power, d)[1]
            if not math.isfinite(e.real * e.real + e.imag * e.imag):
                return errors[: i + 1]
        return errors
