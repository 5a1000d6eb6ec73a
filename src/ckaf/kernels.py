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
            if self.sigma is None or not self.sigma > 0:
                raise ValueError(f"gaussian kernel requires sigma > 0, got {self.sigma}")
        elif self.kind == POLYNOMIAL:
            if self.degree is None or int(self.degree) < 1:
                raise ValueError(f"polynomial kernel requires degree >= 1, got {self.degree}")
        else:
            raise ValueError(f"unknown kernel kind {self.kind!r}")

    @classmethod
    def gaussian(cls, sigma: float) -> "RealKernel":
        return cls(GAUSSIAN, sigma=float(sigma))

    @classmethod
    def polynomial(cls, degree: int) -> "RealKernel":
        return cls(POLYNOMIAL, degree=int(degree))


def embed(z) -> np.ndarray:
    """Map z in C^nu to (Re z_1..Re z_nu, Im z_1..Im z_nu) in R^(2*nu).

    z must be a 1-D complex vector with finite entries.
    """
    z = np.atleast_1d(np.asarray(z, dtype=complex))
    if z.ndim != 1:
        raise ValueError(f"expected a 1-D complex vector, got shape {z.shape}")
    if not np.isfinite(z).all():
        raise ValueError("complex input vector contains non-finite entries")
    return np.concatenate([z.real, z.imag])


def kernel_row(k: RealKernel, rows: np.ndarray, sq_norms: np.ndarray, u: np.ndarray, u_sq: float) -> np.ndarray:
    """kappa(u, c) for every embedded row c of `rows`, from one GEMV.

    rows is an (m, 2*nu) float array of embedded centers with squared
    norms sq_norms, u an embedded input with squared norm u_sq. Both
    kernels need only G = rows @ u: the Gaussian takes
    ||c - u||^2 = ||c||^2 + ||u||^2 - 2G, clamped at 0 because the
    expansion can round below it, and the polynomial kernel (1 + G)^p.
    This is the hot path of the kernel filters.
    """
    if k.kind == GAUSSIAN:
        d2 = sq_norms + u_sq
        d2 -= rows @ (u + u)  # u + u is exact, so this subtracts exactly 2G
        np.maximum(d2, 0.0, out=d2)
        d2 /= -(k.sigma * k.sigma)
        return np.exp(d2, out=d2)
    g = rows @ u
    g += 1.0
    return np.power(g, k.degree, out=g)


def self_kernel(k: RealKernel, sq_norm):
    """kappa(c, c) from the squared norm of the embedded c."""
    if k.kind == GAUSSIAN:
        return 1.0
    return (1.0 + sq_norm) ** k.degree


def kernel_eval_many(k: RealKernel, z: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Evaluate kappa(z, c) for every row c of `centers`.

    z is a length-nu complex vector, centers an (m, nu) complex array;
    returns a length-m float array, computed by kernel_row on the
    R^(2*nu) embeddings.
    """
    z = np.asarray(z, dtype=complex)
    centers = np.atleast_2d(np.asarray(centers, dtype=complex))
    if z.shape[-1] != centers.shape[-1]:
        raise ValueError(f"dimension mismatch: {z.shape[-1]} vs {centers.shape[-1]}")
    rows = np.concatenate([centers.real, centers.imag], axis=1)
    u = np.concatenate([z.real, z.imag])
    return kernel_row(k, rows, np.einsum("ij,ij->i", rows, rows), u, float(u @ u))


def kernel_eval(k: RealKernel, z1, z2) -> float:
    """kappa evaluated on the R^(2*nu) identification of z1, z2."""
    u, v = embed(z1), embed(z2)
    if u.size != v.size:
        raise ValueError(f"dimension mismatch: {u.size // 2} vs {v.size // 2}")
    # a one-row GEMV sums like the dot products of the norms, so z1 == z2
    # gives a distance of exactly 0
    return float(kernel_row(k, v[np.newaxis, :], np.array([v @ v]), u, float(u @ u))[0])


def polynomial_feature_map(u, degree: int) -> np.ndarray:
    """Explicit monomial feature map phi of the polynomial kernel.

    For real u, phi(u).phi(v) = (1 + u.v)^degree. Supported for
    degree 1 and 2; used to build finite-dimensional surrogates where
    the implicit RKHS geometry can be checked coordinate by coordinate.
    """
    u = np.atleast_1d(np.asarray(u, dtype=float))
    if degree == 1:
        return np.concatenate([[1.0], u])
    if degree == 2:
        p = u.size
        iu, ju = np.triu_indices(p, k=1)
        return np.concatenate(
            [
                [1.0],
                np.sqrt(2.0) * u,
                u * u,
                np.sqrt(2.0) * u[iu] * u[ju],
            ]
        )
    raise ValueError(f"explicit feature map only implemented for degree 1 or 2, got {degree}")
