"""Real positive-definite kernels evaluated on complex inputs.

Complex vectors z = x + iy in C^nu are identified with real vectors
(x, y) in R^(2*nu), all real parts first, then all imaginary parts.
A real kernel kappa on R^(2*nu) then induces a complex RKHS via the
complexified feature map Phi(z) = phi(z) + i*phi(z), whose inner
product and distance reduce to kernel values:

    <Phi(z1), Phi(z2)> = 2*kappa(z1, z2)
    ||Phi(z1) - Phi(z2)||^2 = 2*(kappa(z1,z1) - 2*kappa(z1,z2) + kappa(z2,z2))
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

GAUSSIAN = "gaussian"
POLYNOMIAL = "polynomial"


@dataclass(frozen=True)
class RealKernel:
    """A real positive-definite kernel with its parameters.

    kind is "gaussian" (kappa(u, v) = exp(-||u - v||^2 / sigma^2)) or
    "polynomial" (kappa(u, v) = (1 + u.v)^degree). The Gaussian uses
    sigma^2 in the denominator with no extra factor of 2.
    """

    kind: str
    sigma: Optional[float] = None
    degree: Optional[int] = None

    def __post_init__(self):
        if self.kind == GAUSSIAN:
            sigma = np.nan if self.sigma is None else float(self.sigma)
            # a lifted query holds 2/sigma^2, so sigma^2 and 2/sigma^2 must be finite and nonzero
            if not (sigma > 0 and 0 < sigma * sigma < np.inf and np.isfinite(2.0 / (sigma * sigma))):
                raise ValueError(f"gaussian kernel requires finite sigma^2 > 0 and 1/sigma^2, got {self.sigma}")
        elif self.kind == POLYNOMIAL:
            # an integer type: a fractional power of a negative 1 + u.v is NaN
            if not (isinstance(self.degree, (int, np.integer)) and self.degree >= 1):
                raise ValueError(f"polynomial kernel requires an integer degree >= 1, got {self.degree!r}")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def gaussian(cls, sigma: float) -> "RealKernel":
        return cls(GAUSSIAN, sigma=float(sigma))

    @classmethod
    def polynomial(cls, degree: int) -> "RealKernel":
        return cls(POLYNOMIAL, degree=degree)


def embed(z) -> np.ndarray:
    """Map z in C^nu to (Re z_1..Re z_nu, Im z_1..Im z_nu) in R^(2*nu).

    z must be a 1-D complex vector with nu >= 1, or an (N, nu) block of
    them that is embedded row by row, with finite entries.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 2 or z.shape[-1] == 0:
        raise ValueError(f"expected a nonempty complex vector or an (N, nu) block of them, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("complex input vector contains non-finite entries")
    return np.concatenate([z.real, z.imag], axis=-1)


def row_sq_norms(rows: np.ndarray) -> np.ndarray:
    """||r||^2 for every row r (along the last axis) of a real or complex array.

    A unit-stride row is summed by one BLAS dot product, as u @ u or np.vdot(x, x)
    sums a single vector, so a row's norm is the same to the bit whether it is
    computed here for a whole block or for one sample. A row that is not
    finite, or too large to square, gets a non-finite norm without a warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return np.ascontiguousarray(np.vecdot(rows, rows).real)  # real, not a view of complex products


def lift(k: RealKernel, u: np.ndarray, u_sq) -> np.ndarray:
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


def kernel_row(k: RealKernel, cols: np.ndarray, q: np.ndarray) -> np.ndarray:
    """kappa(u, c) for every center column (||c||^2, 1, c) of `cols`, from one GEMV.

    q is the lifted query of u. The Gaussian exponent is clamped at 0,
    because the norm expansion can round above it. This is the hot path
    of the kernel filters.
    """
    g = q @ cols
    if k.kind == GAUSSIAN:
        np.minimum(g, 0.0, out=g)
        return np.exp(g, out=g)
    return np.power(g, k.degree, out=g)


def self_kernel(k: RealKernel, sq_norm):
    """kappa(c, c) from the squared norm of the embedded c; inf past the float range."""
    if k.kind == GAUSSIAN:
        return 1.0
    try:
        return (1.0 + sq_norm) ** k.degree
    except OverflowError:
        return np.inf


def kernel_eval_many(k: RealKernel, z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """kappa(z, c) by its definition on the R^(2*nu) identification, for every row c of `centers`.

    z is a length-nu complex vector, centers an (m, nu) complex array, both
    with finite entries; returns a length-m float array. A squared distance
    or kernel value that overflows raises.
    """
    u, rows = embed(z), embed(np.atleast_2d(centers))
    if u.shape != rows.shape[1:]:
        raise ValueError(f"dimension mismatch: z of shape {np.shape(z)}, centers of width {rows.shape[1] // 2}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        dist_sq = row_sq_norms(rows - u)
        kappa = np.exp(-dist_sq / (k.sigma * k.sigma)) if k.kind == GAUSSIAN else (1.0 + rows @ u) ** k.degree
    if not (np.isfinite(dist_sq) & np.isfinite(kappa)).all():
        raise ValueError("a squared distance or kernel value overflows; input rejected")
    return kappa


def kernel_eval(k: RealKernel, z1, z2) -> float:
    """kappa(z1, z2): kernel_eval_many with the one center z2."""
    return float(kernel_eval_many(k, z1, [z2])[0])
