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

from .kernels import GAUSSIAN, RealKernel, embed, kernel_row, lift, polynomial_feature_map, row_sq_norms, self_kernel
from .wirtinger import GradientCheckReport, WirtingerPair, check_gradient


@dataclass(frozen=True)
class NoveltyCriterion:
    """Admission thresholds for new dictionary centers.

    A candidate is rejected when its feature-space distance to the
    dictionary falls below delta1, or (otherwise) when the magnitude of
    its prediction error falls below delta2. A zero threshold never
    rejects, so (0, 0) is equivalent to no criterion at all.
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

    predictions: np.ndarray  # complex
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
        Optional NoveltyCriterion controlling dictionary growth; None
        admits every sample.
    """

    def __init__(
        self,
        kernel: RealKernel,
        mu: float,
        normalized: bool = True,
        novelty: Optional[NoveltyCriterion] = None,
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
        if not math.isfinite(u_sq) or not math.isfinite(self_kernel(self.kernel, u_sq)):
            raise ValueError("non-finite input sample; step rejected")
        return u, u_sq, lift(self.kernel, u, u_sq)

    def _row(self, q: np.ndarray) -> np.ndarray:
        """The one kernel row kappa(z, z_k) over the centers, from the lifted query q of z."""
        n = self._n
        if n == 0:
            return np.empty(0)
        return kernel_row(self.kernel, self._cols[:, :n], q)

    def _output(self, k: np.ndarray) -> complex:
        y_re, y_im = (self._alpha[:, : self._n] @ k).tolist()
        return complex(2.0 * y_re, 2.0 * y_im)

    def _novel(self, u_sq: float, k: np.ndarray, e: complex) -> bool:
        if self.novelty is None:
            return True
        # the error gate is one comparison, so it goes first; `not >=` rejects a NaN error
        if not abs(e) >= self.novelty.delta2:
            return False
        if self._n == 0:
            return True
        if self.kernel.kind == GAUSSIAN:
            # kappa(z, z) = kappa(z_k, z_k) = 1, so ||Phi(z) - Phi(z_k)||^2 = 4 (1 - kappa(z, z_k))
            dist_sq = 4.0 * (1.0 - float(k.max()))
        else:
            # ||Phi(z) - Phi(z_k)||^2 = 2 (kappa(z,z) - 2 kappa(z,z_k) + kappa(z_k,z_k))
            kcc = self_kernel(self.kernel, self._cols[0, : self._n])
            dist_sq = 2.0 * (self_kernel(self.kernel, u_sq) + float(np.min(kcc - 2.0 * k)))
        return not math.sqrt(max(dist_sq, 0.0)) < self.novelty.delta1

    def _step(self, u: np.ndarray, u_sq: float, q: np.ndarray, d: complex) -> StepResult:
        """The recursion on one validated sample: predict, measure the error, maybe grow."""
        k = self._row(q)
        prediction = self._output(k)
        e = d - prediction
        admitted = self._novel(u_sq, k, e)
        if admitted:
            gamma = 2.0 * self_kernel(self.kernel, u_sq) if self.normalized else 1.0
            self._append(u, u_sq, self.mu / gamma * e)
        return StepResult(prediction, e, admitted)

    def predict(self, z) -> complex:
        """Filter output at z; an empty dictionary predicts 0."""
        return self._output(self._row(self._sample(z)[2]))

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
        if not np.isfinite(sq_norms).all() or not math.isfinite(self_kernel(self.kernel, largest)):
            raise ValueError("non-finite input sample; run rejected")
        queries = lift(self.kernel, rows, sq_norms)
        n = targets.size
        predictions = np.empty(n, dtype=complex)
        errors = np.empty(n, dtype=complex)
        admitted = np.zeros(n, dtype=bool)
        for i, (u, u_sq, q, d) in enumerate(zip(rows, map(float, sq_norms), queries, map(complex, targets))):
            predictions[i], e, admitted[i] = self._step(u, u_sq, q, d)
            errors[i] = e
            if not math.isfinite(e.real * e.real + e.imag * e.imag):
                n = i + 1
                break
        return RunResult(predictions[:n], errors[:n], admitted[:n])

    def _append(self, u: np.ndarray, u_sq: float, alpha: complex) -> None:
        n = self._n
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

    def save_dictionary(self, path) -> None:
        """Write the dictionary as flat text, one line per entry.

        Each line holds the center components followed by the (a, b)
        coefficient a + ib, every complex number as a real/imaginary
        pair of decimal floats, full double precision.
        """
        with open(path, "w", encoding="utf-8") as fh:
            for row, coeff in zip(self.centers, self.coeffs):
                parts = []
                for v in row:
                    parts.append(f"{float(v.real)!r} {float(v.imag)!r}")
                parts.append(f"{float(coeff.real)!r} {float(coeff.imag)!r}")
                fh.write(" ".join(parts) + "\n")


def load_dictionary(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a dictionary written by save_dictionary: (centers, coeffs)."""
    centers = []
    coeffs = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            vals = [float(tok) for tok in line.split()]
            if len(vals) < 4 or len(vals) % 2:
                raise ValueError(f"malformed dictionary line: {line!r}")
            cplx = [complex(vals[i], vals[i + 1]) for i in range(0, len(vals), 2)]
            centers.append(cplx[:-1])
            coeffs.append(cplx[-1])
    if not centers:
        return np.empty((0, 0), dtype=complex), np.empty(0, dtype=complex)
    return np.asarray(centers, dtype=complex), np.asarray(coeffs, dtype=complex)


def instantaneous_cost_check(
    n_trials: int = 50,
    tol: float = 1e-5,
    rng_seed: int = 0,
    degree: int = 2,
) -> list[GradientCheckReport]:
    """Check the analytic cost gradient in an explicit-feature surrogate.

    The polynomial kernel of the given degree admits an explicit
    monomial feature map phi; complexifying it as Phi(z) = (1+i) phi(z)
    makes the kernel filter's instantaneous cost |d - <Phi(z), w>|^2 an
    ordinary field on C^M, where its analytic conjugate gradient
    -e* Phi(z) (and its conjugate, since the cost is real) can be
    compared against finite differences.
    """
    rng = np.random.default_rng(rng_seed)
    reports = []
    for _ in range(n_trials):
        nu = int(rng.integers(1, 3))
        z = 0.7 * (rng.standard_normal(nu) + 1j * rng.standard_normal(nu))
        d = complex(rng.standard_normal() + 1j * rng.standard_normal())
        phi = polynomial_feature_map(embed(z), degree)
        big_phi = (1.0 + 1.0j) * phi
        w0 = 0.5 * (rng.standard_normal(big_phi.size) + 1j * rng.standard_normal(big_phi.size))

        def cost(w, big_phi=big_phi, d=d):
            e = d - np.sum(big_phi * np.conj(w))
            return abs(e) ** 2

        def analytic(w, big_phi=big_phi, d=d):
            e = d - np.sum(big_phi * np.conj(w))
            d_zstar = -np.conj(e) * big_phi
            return WirtingerPair(d_z=np.conj(d_zstar), d_zstar=d_zstar)

        reports.append(check_gradient(cost, analytic, w0, tol=tol))
    return reports
