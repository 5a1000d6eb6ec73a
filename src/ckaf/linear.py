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

_EPS = 1e-8  # regularizes the power normalization against a vanishing input power


class ComplexNlms:
    """Normalized complex LMS, optionally widely linear.

    Parameters
    ----------
    n_taps:
        Weight vector length (filter length L + 1).
    mu:
        Normalized step size.
    widely_linear:
        When True, a conjugate branch g is maintained and the output
        is h^H x + g^H x*.
    """

    def __init__(self, n_taps: int, mu: float, *, widely_linear: bool = False):
        # an integer type, so that 2.5 taps are not truncated to 2 nor the string "3" parsed
        if not (isinstance(n_taps, (int, np.integer)) and n_taps >= 1):
            raise ValueError(f"n_taps must be an integer >= 1, got {n_taps!r}")
        # the negated comparison also rejects NaN
        if not 0 <= mu < math.inf:
            raise ValueError(f"mu must be nonnegative and finite, got {mu}")
        self.n_taps = n_taps
        self.mu = float(mu)
        self.widely_linear = bool(widely_linear)
        # [h] or [h, g], the weights of x and x*
        self._w = np.zeros(2 * n_taps if widely_linear else n_taps, dtype=complex)

    @property
    def h(self) -> np.ndarray:
        """Weights of x; a view, so writing into it changes the filter."""
        return self._w[: self.n_taps]

    @property
    def g(self) -> Optional[np.ndarray]:
        """Weights of x* (a view), or None when the filter is strictly linear."""
        return self._w[self.n_taps :] if self.widely_linear else None

    def _step(self, w: np.ndarray, x: np.ndarray, gain, d) -> tuple[np.ndarray, np.ndarray]:
        """The normalized-LMS step of R filters on R input rows (unit stride), with gains mu / (power + _EPS):
        the outputs h^H x (+ g^H x*) and errors, both pre-update."""
        y = np.vecdot(w[:, : self.n_taps], x)
        if self.widely_linear:
            # h^H x and g^H x* are summed apart, so that g = 0 leaves h^H x exact
            y += np.vecdot(w[:, self.n_taps :], x.conj())
        e = d - y
        c = (gain * e.conj())[:, np.newaxis]
        w[:, : self.n_taps] += c * x
        if self.widely_linear:
            w[:, self.n_taps :] += c * x.conj()
        return y, e

    def update(self, x, d: complex) -> tuple[complex, complex]:
        """One normalized-LMS step; returns (prediction, error), both pre-update."""
        x = np.atleast_1d(np.asarray(x, dtype=complex))
        if x.shape != (self.n_taps,):
            raise ValueError(f"input length {x.shape} does not match filter length ({self.n_taps},)")
        power = float(np.vdot(x, x).real)
        # a non-finite entry of x makes its power non-finite
        if not math.isfinite(power):
            raise ValueError("non-finite input sample; update rejected")
        d = complex(d)
        if not cmath.isfinite(d):
            raise ValueError("non-finite desired value; update rejected")
        gain = self.mu / ((2.0 * power if self.widely_linear else power) + _EPS)
        y, e = self._step(self._w[np.newaxis], x[np.newaxis], gain, d)
        return complex(y[0]), complex(e[0])

    def run(self, inputs, targets) -> np.ndarray:
        """Update through an (N, n_taps) stream with N targets; return the N pre-update errors.

        An (R, N, n_taps) stack with (R, N) targets steps R copies of the current
        weights and returns (R, N) errors; the filter's own weights stay as they
        were. Bad input raises before any state changes. With unit-stride input
        rows, a stream's errors (and a single stream's weights) equal N calls of
        `update` bit for bit up to its first non-finite squared error; the run
        stops once no stream has a finite one.
        """
        x = np.asarray(inputs, dtype=complex)
        if x.ndim not in (2, 3):
            raise ValueError(f"expected an (N, {self.n_taps}) block or an (R, N, {self.n_taps}) stack, got shape {x.shape}")
        if x.shape[-1] != self.n_taps:
            raise ValueError(f"input length {x.shape[-1:]} does not match filter length ({self.n_taps},)")
        powers = row_sq_norms(x)
        if not np.isfinite(powers).all():
            raise ValueError("non-finite input sample; run rejected")
        targets = np.asarray(targets, dtype=complex)
        if targets.shape != x.shape[:-1]:
            raise ValueError(f"{x.shape[-2]} inputs but targets of shape {targets.shape}")
        if not np.isfinite(targets).all():
            raise ValueError("non-finite desired value; run rejected")
        stacked = x.ndim == 3
        x, targets, powers = (a if stacked else a[np.newaxis] for a in (x, targets, powers))
        # a stack steps copies of the weights; one stream steps the filter's own in place
        w = np.repeat(self._w[np.newaxis], len(x), axis=0) if stacked else self._w[np.newaxis]
        np.multiply(powers, 2.0 if self.widely_linear else 1.0, out=powers)  # in place, as a stack's gains are large
        gains = np.divide(self.mu, np.add(powers, _EPS, out=powers), out=powers)
        errors = np.empty(targets.shape[::-1], dtype=complex)
        with np.errstate(all="ignore"):  # a diverged stream keeps stepping beside the others
            for i, (x_i, gain, d) in enumerate(zip(x.swapaxes(0, 1), gains.T, targets.T)):
                e = errors[i] = self._step(w, x_i, gain, d)[1]
                # a finite sum of squared errors cheaply proves that one of them is finite
                if not cmath.isfinite(np.vdot(e, e)) and not np.isfinite(e.real * e.real + e.imag * e.imag).any():
                    errors = errors[: i + 1]
                    break
        return errors.T if stacked else errors[:, 0]
