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
            # the CKLMS lifted query holds 2/sigma^2, so sigma^2 and 2/sigma^2 must be finite and nonzero
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

    z must be a 1-D complex vector with nu >= 1, or an (N, nu) block of them,
    embedded row by row. A caller rejects a non-finite entry by its squared norm.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim > 2 or z.shape[-1] == 0:
        raise ValueError(f"expected a nonempty complex vector or an (N, nu) block of them, got shape {z.shape}")
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


def kernel_eval_many(k: RealKernel, z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """kappa(z, c) by its definition on the R^(2*nu) identification, for every row c of `centers`.

    z is a length-nu complex vector, centers an (m, nu) complex array; returns
    a length-m float array. A non-finite input, or a squared distance or
    kernel value that overflows, raises.
    """
    u, rows = embed(z), embed(np.atleast_2d(centers))
    if u.shape != rows.shape[1:]:
        raise ValueError(f"dimension mismatch: z of shape {np.shape(z)}, centers of width {rows.shape[1] // 2}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is rejected below
        dist_sq = row_sq_norms(rows - u)
        kappa = np.exp(-dist_sq / (k.sigma * k.sigma)) if k.kind == GAUSSIAN else (1.0 + rows @ u) ** k.degree
    if not (np.isfinite(dist_sq) & np.isfinite(kappa)).all():
        raise ValueError("a non-finite input, or a squared distance or kernel value that overflows; input rejected")
    return kappa


def kernel_eval(k: RealKernel, z1, z2) -> float:
    """kappa(z1, z2): kernel_eval_many with the one center z2."""
    return float(kernel_eval_many(k, z1, [z2])[0])
