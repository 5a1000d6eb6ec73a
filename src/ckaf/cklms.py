"""Complex kernel LMS with a growing dictionary and novelty sparsification.

The filter state is an expansion over stored input centers z_k with
one complex weight alpha_k each. A step observes (z, d), emits the
prediction

    y(z) = 2 * sum_k alpha_k * kappa(z, z_k),

forms the error e = d - y, and (if the novelty criterion admits z)
appends the center with weight alpha = mu * e / gamma, gamma being
2*kappa(z, z) in the normalized variant (NCKLMS) and 1 otherwise.
In the paper's (a, b) bookkeeping, 2*alpha = (a + b) + i (a - b).
Stored weights are never revisited: the algorithm is a pure LMS in the
complexified kernel space, and a sample rejected by the novelty
criterion contributes no update at all.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .kernels import GAUSSIAN, RealKernel, embed, row_sq_norms
from .wirtinger import instantaneous_cost_check  # re-exported: bench/workloads.py and criterion 3 import it here


def _lift(k: RealKernel, u: np.ndarray, u_sq) -> np.ndarray:
    """Lift an embedded u with squared norm u_sq, or an (N, 2*nu) block of them, to queries q.

    A center c is stored as the column col = (||c||^2, 1, c). With s = 1/sigma^2 the
    Gaussian q = (-s, -s ||u||^2, 2s u) gives q @ col = -||u - c||^2 / sigma^2, and the
    polynomial q = (0, 1, u) gives q @ col = 1 + u.c.
    """
    q = np.empty(u.shape[:-1] + (u.shape[-1] + 2,))
    if k.kind == GAUSSIAN:
        s = 1.0 / (k.sigma * k.sigma)
        q[..., 0] = -s
        q[..., 1] = -s * u_sq
        np.multiply(u, 2.0 * s, out=q[..., 2:])
    else:
        q[..., :2] = 0.0, 1.0
        q[..., 2:] = u
    return q


def _self_kernel(k: RealKernel, sq_norm):
    """kappa(c, c) from the squared norm of the embedded c; inf past the float range."""
    if k.kind == GAUSSIAN:
        return 1.0
    try:
        return (1.0 + sq_norm) ** k.degree
    except OverflowError:
        return np.inf


@dataclass(frozen=True)
class NoveltyCriterion:
    """Admission thresholds for new dictionary centers.

    A candidate is rejected when its feature-space distance to the
    dictionary falls below delta1, or (otherwise) when the magnitude of
    its prediction error falls below delta2. A zero threshold never
    rejects, so (0, 0) admits every sample whose error is not NaN.
    """

    delta1: float
    delta2: float

    def __post_init__(self):
        # `not >=` also rejects NaN
        if not self.delta1 >= 0 or not self.delta2 >= 0:
            raise ValueError(f"novelty thresholds must be nonnegative, got ({self.delta1}, {self.delta2})")


class StepResult(NamedTuple):
    prediction: complex
    error: complex
    admitted: bool


class RunResult(NamedTuple):
    """Per-step outputs of CklmsFilter.run, one entry per sample."""

    errors: np.ndarray  # complex
    admitted: np.ndarray  # bool


class CklmsFilter:
    """Complex kernel LMS / normalized complex kernel LMS filter.

    Parameters
    ----------
    kernel:
        Real kernel evaluated on the R^(2*nu) identification of the
        complex inputs.
    mu:
        Step size.
    normalized:
        When True (NCKLMS) the per-step weights are divided by
        gamma = 2*kappa(z, z); for the Gaussian kernel gamma == 2.
    novelty:
        NoveltyCriterion controlling dictionary growth; the default
        (0, 0) admits every sample whose error is not NaN.

    `pickle` and `copy.deepcopy` carry the whole filter, configuration
    included, so a restored copy continues the stream bit for bit.
    """

    def __init__(
        self,
        kernel: RealKernel,
        mu: float,
        normalized: bool = True,
        novelty: NoveltyCriterion = NoveltyCriterion(0.0, 0.0),
    ):
        if not 0 < mu < math.inf:
            raise ValueError(f"mu must be positive and finite, got {mu}")
        self.kernel = kernel
        self.mu = float(mu)
        self.normalized = bool(normalized)
        self.novelty = novelty
        self._dim: Optional[int] = None
        self._n = 0
        # one column (||c||^2, 1, c) per embedded center c, and alpha_k as (re, im) columns
        self._cols = np.empty((0, 0))
        self._alpha = np.empty((2, 0))

    @property
    def dictionary_size(self) -> int:
        return self._n

    @property
    def centers(self) -> np.ndarray:
        cols = self._cols[2:, : self._n]
        return (cols[: self._dim] + 1j * cols[self._dim :]).T

    @property
    def coeffs(self) -> np.ndarray:
        """The (a, b) pairs as a_k + i b_k, with a = Re alpha + Im alpha, b = Re alpha - Im alpha."""
        re, im = self._alpha[:, : self._n]
        return (re + im) + 1j * (re - im)

    def _check_width(self, width: int) -> None:
        if self._dim is not None and width != 2 * self._dim:
            raise ValueError(f"input length {width // 2} does not match dictionary dimension {self._dim}")

    def _sample(self, z) -> tuple[np.ndarray, float, np.ndarray]:
        """Validate and embed one input vector; return u, its squared norm and its lifted query."""
        u = embed(z)
        if u.ndim != 1:
            raise ValueError(f"expected a 1-D complex vector, got shape {np.shape(z)}")
        self._check_width(u.size)
        u_sq = float(np.vdot(u, u))  # overflows to inf without a warning
        if not math.isfinite(u_sq) or not math.isfinite(_self_kernel(self.kernel, u_sq)):
            raise ValueError("non-finite input sample; step rejected")
        return u, u_sq, _lift(self.kernel, u, u_sq)

    def _predict(self, q: np.ndarray) -> tuple[np.ndarray, complex]:
        """The kernel row kappa(z, z_k) over the centers, from one GEMV with the lifted query q of z,
        and the prediction 2 * sum_k alpha_k kappa(z, z_k); an empty dictionary predicts 0."""
        n = self._n
        if n == 0:
            return np.empty(0), 0j
        k = q @ self._cols[:, :n]
        if self.kernel.kind == GAUSSIAN:
            np.minimum(k, 0.0, out=k)  # the norm expansion can round the exponent above 0
            np.exp(k, out=k)
        else:
            np.power(k, self.kernel.degree, out=k)
        y_re, y_im = (self._alpha[:, :n] @ k).tolist()
        return k, complex(2.0 * y_re, 2.0 * y_im)

    def _step(self, u: np.ndarray, u_sq: float, q: np.ndarray, d: complex) -> StepResult:
        """The recursion on one validated sample: predict, measure the error, maybe admit z."""
        k, prediction = self._predict(q)
        e = d - prediction
        n, novelty = self._n, self.novelty
        # the error gate is one comparison, so it goes first; a NaN error fails it
        admitted = abs(e) >= novelty.delta2
        # a zero delta1 never rejects, so the row reduction is skipped
        if admitted and n > 0 and novelty.delta1 > 0:
            if self.kernel.kind == GAUSSIAN:
                # kappa(z, z) = kappa(z_k, z_k) = 1, so ||Phi(z) - Phi(z_k)||^2 = 4 (1 - kappa(z, z_k))
                dist_sq = 4.0 * (1.0 - float(k.max()))
            else:
                # ||Phi(z) - Phi(z_k)||^2 = 2 (kappa(z,z) - 2 kappa(z,z_k) + kappa(z_k,z_k))
                kcc = _self_kernel(self.kernel, self._cols[0, :n])
                dist_sq = 2.0 * (_self_kernel(self.kernel, u_sq) + float(np.min(kcc - 2.0 * k)))
            admitted = not math.sqrt(max(dist_sq, 0.0)) < novelty.delta1
        if admitted:
            gamma = 2.0 * _self_kernel(self.kernel, u_sq) if self.normalized else 1.0
            alpha = self.mu / gamma * e
            if self._dim is None:
                self._dim = u.size // 2
                self._cols = np.ones((u.size + 2, 16))
                self._alpha = np.empty((2, 16))
            elif n == self._cols.shape[1]:
                self._cols = np.concatenate([self._cols, np.ones_like(self._cols)], axis=1)
                self._alpha = np.concatenate([self._alpha, np.empty_like(self._alpha)], axis=1)
            # row 1 of the store is all ones from its allocation
            self._cols[0, n] = u_sq
            self._cols[2:, n] = u
            self._alpha[0, n], self._alpha[1, n] = alpha.real, alpha.imag
            self._n = n + 1
        return StepResult(prediction, e, admitted)

    def predict(self, z) -> complex:
        """Filter output at z; an empty dictionary predicts 0."""
        return self._predict(self._sample(z)[2])[1]

    def step(self, z, d: complex) -> StepResult:
        """Process one sample: predict, measure the error, maybe grow."""
        u, u_sq, q = self._sample(z)
        d = complex(d)
        if not cmath.isfinite(d):
            raise ValueError("non-finite desired value; step rejected")
        return self._step(u, u_sq, q, d)

    def run(self, inputs, targets) -> RunResult:
        """Process a whole stream: an (N, nu) complex block and its N targets.

        The block is validated and embedded once, and a bad block raises
        before any state changes. Each sample then takes the recursion of
        `step`, so the result equals N calls of `step` bit for bit. The run
        stops after the first step whose squared error is not finite; the
        returned arrays then end at that step.
        """
        rows = embed(inputs)
        if rows.ndim != 2:
            raise ValueError(f"expected an (N, nu) block of complex inputs, got shape {np.shape(inputs)}")
        self._check_width(rows.shape[1])
        targets = np.asarray(targets, dtype=complex)
        if targets.shape != rows.shape[:1]:
            raise ValueError(f"{rows.shape[0]} inputs but targets of shape {targets.shape}")
        if not np.isfinite(targets).all():
            raise ValueError("non-finite desired value; run rejected")
        sq_norms = row_sq_norms(rows)
        # kappa(z, z) grows with ||z||^2, so the largest norm decides whether every one is finite
        largest = float(sq_norms.max(initial=0.0))
        if not np.isfinite(sq_norms).all() or not math.isfinite(_self_kernel(self.kernel, largest)):
            raise ValueError("non-finite input sample; run rejected")
        queries = _lift(self.kernel, rows, sq_norms)
        n = targets.size
        errors = np.empty(n, dtype=complex)
        admitted = np.zeros(n, dtype=bool)
        for i, (u, u_sq, q, d) in enumerate(zip(rows, map(float, sq_norms), queries, map(complex, targets))):
            _, e, admitted[i] = self._step(u, u_sq, q, d)
            errors[i] = e
            if not math.isfinite(e.real * e.real + e.imag * e.imag):
                n = i + 1
                break
        return RunResult(errors[:n], admitted[:n])
