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
from typing import Iterator, Optional, Sequence

import numpy as np

from .kernels import row_sq_norms

_EPS = 1e-8  # regularizes the power normalization against a vanishing input power
_BLOCK = 512  # steps of errors a bank hands out at once: a caller that squares them holds one block, not the stream


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
        w, e = self._w.reshape(-1, self.n_taps), np.empty(1, dtype=complex)
        return complex(_step(w[:1], w[1:] if self.widely_linear else None, slice(1), x, gain, d, e)[0]), complex(e[0])


def _step(h: np.ndarray, g: Optional[np.ndarray], wide, x: np.ndarray, gain, d, e: np.ndarray) -> np.ndarray:
    """The normalized-LMS step of weight rows h (A, ..., taps), the rows `wide` widely linear with conjugate weights g
    (else None), on unit-stride inputs x (..., taps) with gains mu / (power + _EPS): errors into e, outputs returned."""
    y = np.vecdot(h, x)
    if g is not None:
        xc = x.conj()
        # h^H x and g^H x* are summed apart, so that g = 0 leaves h^H x exact, and only the widely linear rows add
        y[wide] += np.vecdot(g, xc)
    np.subtract(d, y, out=e)
    c = (gain * e.conj())[..., np.newaxis]
    h += c * x
    if g is not None:
        g += c[wide] * xc
    return y


def run_bank(filters: Sequence[ComplexNlms], inputs, targets) -> Iterator[np.ndarray]:
    """Step copies of the weights of A >= 1 filters of one length, widely linear ones adjacent, over an (R, N, taps)
    stack with (R, N) targets, or one (N, taps) stream, one normalized-LMS step per sample for all A x R rows; yield
    the (n, A, R), or (n, A), pre-update errors in blocks of _BLOCK steps. The filters never change: `update` is what
    moves a filter's weights. Bad input raises before any step. With unit-stride input rows, a row's errors equal
    `update`'s bit for bit up to its first non-finite squared error; the bank stops once no row has a finite one."""
    if len({f.n_taps for f in filters}) != 1:  # no filter, or filters of several lengths
        raise ValueError(f"a bank takes one or more filters of one length, got lengths {[f.n_taps for f in filters]}")
    taps, x, targets = filters[0].n_taps, np.asarray(inputs, dtype=complex), np.asarray(targets, dtype=complex)
    if x.ndim not in (2, 3):
        raise ValueError(f"expected an (N, {taps}) block or an (R, N, {taps}) stack, got shape {x.shape}")
    if x.shape[-1] != taps:
        raise ValueError(f"input length {x.shape[-1:]} does not match filter length ({taps},)")
    if targets.shape != x.shape[:-1]:
        raise ValueError(f"{x.shape[-2]} inputs but targets of shape {targets.shape}")
    x, targets = np.moveaxis(x, -2, 0), np.moveaxis(targets, -1, 0)  # time-major views
    # the powers are taken block by block, here and in the steps, so that no (N, R) array of them is held
    if not all(np.isfinite(row_sq_norms(x[t : t + _BLOCK])).all() for t in range(0, len(x), _BLOCK)):
        raise ValueError("non-finite input sample; run rejected")
    if not np.isfinite(targets).all():
        raise ValueError("non-finite desired value; run rejected")
    wide = [a for a, f in enumerate(filters) if f.widely_linear]
    weights = np.array([np.broadcast_to(w, x.shape[1:]) for w in [f.h for f in filters] + [filters[a].g for a in wide]])
    h, g = weights[: len(filters)], weights[len(filters) :] if wide else None
    wide = slice(wide[0], wide[-1] + 1) if wide else None  # a broadcast error if they are not adjacent
    for t in range(0, max(len(x), 1), _BLOCK):  # an empty stream yields one empty block
        powers = row_sq_norms(x[t : t + _BLOCK])
        gains = np.stack([f.mu / (powers * (2.0 if f.widely_linear else 1.0) + _EPS) for f in filters], axis=1)
        errors, n, stopped = np.empty(gains.shape, dtype=complex), 0, False
        with np.errstate(all="ignore"):  # a diverged row keeps stepping beside the others
            for n, (x_t, gain, d, e) in enumerate(zip(x[t : t + _BLOCK], gains, targets[t : t + _BLOCK], errors), 1):
                _step(h, g, wide, x_t, gain, d, e)
                total = np.vdot(e, e)  # a finite sum of squared errors cheaply proves that one of them is finite
                stopped = not cmath.isfinite(total) and not np.isfinite(e.real * e.real + e.imag * e.imag).any()
                if stopped:
                    break
        yield errors[:n]
        if stopped:
            return
