"""Kernel evaluation, embedding, and complexified-geometry tests."""

import numpy as np
import pytest

from ckaf.kernels import (
    RealKernel,
    embed,
    kernel_eval,
    kernel_eval_many,
    kernel_row,
    lift,
    polynomial_feature_map,
    row_sq_norms,
)


def unembed(v):
    """Reference inverse of embed: (x, y) in R^(2*nu) back to x + iy."""
    nu = v.size // 2
    return v[:nu] + 1j * v[nu:]


def complexified_inner(k, z1, z2):
    """Reference <Phi(z1), Phi(z2)> for Phi = phi + i*phi, assembled from
    real inner products: <a + ib, c + id> = <a,c> + <b,d> + i(<b,c> - <a,d>)
    with a = b = phi(z1) and c = d = phi(z2), each equal to kappa(z1, z2)."""
    kv = kernel_eval(k, z1, z2)
    return complex(kv + kv, kv - kv)


def feature_distance_sq(k, z1, z2):
    """Reference ||Phi(z1) - Phi(z2)||^2 from three kernel values."""
    return 2.0 * (kernel_eval(k, z1, z1) - 2.0 * kernel_eval(k, z1, z2) + kernel_eval(k, z2, z2))


def test_embed_scalar():
    np.testing.assert_array_equal(embed([1 + 2j]), [1.0, 2.0])


def test_embed_zero():
    np.testing.assert_array_equal(embed(np.zeros(3, dtype=complex)), np.zeros(6))


def test_embed_block_layout():
    # all real parts first, then all imaginary parts
    np.testing.assert_array_equal(embed([3 - 4j, -1 + 0j]), [3.0, -1.0, -4.0, 0.0])


def test_embed_unembed_bijective():
    rng = np.random.default_rng(0)
    for _ in range(20):
        z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        np.testing.assert_array_equal(unembed(embed(z)), z)


def test_embed_rejects_nonfinite():
    with pytest.raises(ValueError):
        embed([1 + 1j, np.nan + 0j])


@pytest.mark.parametrize("z", [[], np.empty((3, 0), dtype=complex)], ids=["vector", "block"])
def test_embed_rejects_empty_vectors(z):
    with pytest.raises(ValueError, match="nonempty"):
        embed(z)


def test_kernel_eval_rejects_empty_vectors():
    with pytest.raises(ValueError, match="nonempty"):
        kernel_eval(RealKernel.gaussian(1.0), [], [])


def test_gaussian_self_similarity_exact():
    k = RealKernel.gaussian(3.7)
    rng = np.random.default_rng(1)
    for _ in range(10):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert kernel_eval(k, z, z) == 1.0


def test_gaussian_known_value():
    # distance^2 = 25 = sigma^2 -> exp(-1)
    k = RealKernel.gaussian(5.0)
    assert kernel_eval(k, [0j], [5 + 0j]) == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_polynomial_known_value():
    k = RealKernel.polynomial(2)
    assert kernel_eval(k, [1 + 1j], [1 + 1j]) == pytest.approx(9.0, rel=1e-12)


def test_kernel_matches_explicit_embedding():
    rng = np.random.default_rng(2)
    for k in (RealKernel.gaussian(2.0), RealKernel.polynomial(3)):
        for _ in range(25):
            z1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            z2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            u, v = embed(z1), embed(z2)
            if k.kind == "gaussian":
                expected = np.exp(-np.sum((u - v) ** 2) / k.sigma**2)
            else:
                expected = (1.0 + u @ v) ** k.degree
            assert kernel_eval(k, z1, z2) == pytest.approx(expected, rel=1e-12)


def test_symmetry_exact():
    rng = np.random.default_rng(3)
    for k in (RealKernel.gaussian(1.5), RealKernel.polynomial(2)):
        for _ in range(25):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert kernel_eval(k, a, b) == kernel_eval(k, b, a)


def test_gaussian_range():
    k = RealKernel.gaussian(0.8)
    rng = np.random.default_rng(4)
    for _ in range(50):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = kernel_eval(k, a, b)
        assert 0.0 < v <= 1.0


def test_gram_matrix_positive_semidefinite():
    rng = np.random.default_rng(5)
    for k in (RealKernel.gaussian(2.0), RealKernel.polynomial(2)):
        for _ in range(10):
            m = int(rng.integers(2, 11))
            pts = rng.standard_normal((m, 2)) + 1j * rng.standard_normal((m, 2))
            gram = np.array([[kernel_eval(k, a, b) for b in pts] for a in pts])
            assert np.min(np.linalg.eigvalsh(gram)) >= -1e-10


def test_dimension_mismatch_raises():
    k = RealKernel.gaussian(1.0)
    with pytest.raises(ValueError, match="mismatch"):
        kernel_eval(k, [1 + 1j], [1 + 1j, 2 + 2j])


def test_invalid_kernel_parameters():
    with pytest.raises(ValueError):
        RealKernel.gaussian(0.0)
    with pytest.raises(ValueError):
        RealKernel.gaussian(-1.0)
    with pytest.raises(ValueError):
        RealKernel.polynomial(0)
    with pytest.raises(ValueError):
        RealKernel("triangle")


@pytest.mark.parametrize("degree", [2.5, 2.0, 0, -1, None, "2"])
def test_polynomial_degree_must_be_integer_at_least_one(degree):
    with pytest.raises(ValueError, match="integer degree >= 1"):
        RealKernel("polynomial", degree=degree)
    with pytest.raises(ValueError, match="integer degree >= 1"):
        RealKernel.polynomial(degree)


def test_polynomial_degree_accepts_numpy_integer():
    k = RealKernel.polynomial(np.int64(3))
    assert kernel_eval(k, [1 + 0j], [1 + 0j]) == 8.0


def test_complexified_inner_self():
    k = RealKernel.gaussian(5.0)
    z = np.array([0.3 - 0.4j, 1.0 + 0j])
    assert complexified_inner(k, z, z) == 2.0 + 0.0j


def test_complexified_inner_known_value():
    k = RealKernel.gaussian(5.0)
    v = complexified_inner(k, [0j], [5 + 0j])
    assert v == pytest.approx(2.0 * np.exp(-1.0), rel=1e-12)
    assert v.imag == 0.0


def test_complexified_inner_symmetric():
    rng = np.random.default_rng(6)
    for k in (RealKernel.gaussian(1.0), RealKernel.polynomial(2)):
        a = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        b = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert complexified_inner(k, a, b) == complexified_inner(k, b, a)


def test_complexified_inner_doubles_kernel():
    rng = np.random.default_rng(7)
    k = RealKernel.polynomial(2)
    z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    assert complexified_inner(k, z, z) == 2.0 * kernel_eval(k, z, z)


def test_feature_distance_zero_for_identical():
    k = RealKernel.gaussian(2.0)
    z = np.array([1 + 2j, -0.5j])
    assert feature_distance_sq(k, z, z) == 0.0


def test_feature_distance_gaussian_closed_form():
    k = RealKernel.gaussian(5.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        expected = 4.0 * (1.0 - kernel_eval(k, a, b))
        assert feature_distance_sq(k, a, b) == pytest.approx(expected, rel=1e-12)


def test_feature_distance_known_value():
    k = RealKernel.gaussian(5.0)
    assert feature_distance_sq(k, [0j], [5 + 0j]) == pytest.approx(4.0 * (1.0 - np.exp(-1.0)), rel=1e-12)


def test_feature_distance_matches_inner_product_expansion():
    # closed form vs <Pa - Pb, Pa - Pb> assembled from three inner products
    rng = np.random.default_rng(9)
    for k in (RealKernel.gaussian(1.3), RealKernel.polynomial(2)):
        for _ in range(20):
            a = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            b = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            via_inner = (
                complexified_inner(k, a, a)
                - complexified_inner(k, a, b)
                - complexified_inner(k, b, a)
                + complexified_inner(k, b, b)
            )
            d = feature_distance_sq(k, a, b)
            assert d >= 0.0
            assert abs(via_inner.imag) == 0.0
            assert d == pytest.approx(via_inner.real, rel=1e-12, abs=1e-15)


def test_kernel_eval_many_matches_scalar():
    rng = np.random.default_rng(10)
    for k in (RealKernel.gaussian(2.5), RealKernel.polynomial(2)):
        z = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        centers = rng.standard_normal((7, 3)) + 1j * rng.standard_normal((7, 3))
        many = kernel_eval_many(k, z, centers)
        singles = [kernel_eval(k, z, c) for c in centers]
        np.testing.assert_allclose(many, singles, rtol=1e-15)


def test_kernel_eval_many_rejects_nonfinite_like_kernel_eval():
    # a NaN z used to give a row of NaN
    k = RealKernel.gaussian(1.0)
    centers = np.array([[1 + 1j, 0j], [0j, 1j]])
    for z, cs in (([np.nan, 0j], centers), ([1j, 0j], np.where(centers == 1j, np.inf, centers))):
        with pytest.raises(ValueError, match="non-finite"):
            kernel_eval(k, z, cs[-1])
        with pytest.raises(ValueError, match="non-finite"):
            kernel_eval_many(k, z, cs)


@pytest.mark.parametrize("degree", [1, 2])
def test_polynomial_feature_map_reproduces_kernel(degree):
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        u = rng.standard_normal(p)
        v = rng.standard_normal(p)
        lhs = polynomial_feature_map(u, degree) @ polynomial_feature_map(v, degree)
        assert lhs == pytest.approx((1.0 + u @ v) ** degree, rel=1e-12)


def test_polynomial_feature_map_unsupported_degree():
    with pytest.raises(ValueError):
        polynomial_feature_map([1.0], 3)


def _direct_rows(k, z, centers):
    """kappa(z, c) per center from the direct difference (Gaussian) or the
    direct dot product of the embeddings (polynomial)."""
    if k.kind == "gaussian":
        diff = centers - z
        return np.exp(-np.sum(diff.real**2 + diff.imag**2, axis=1) / k.sigma**2)
    return (1.0 + centers.real @ z.real + centers.imag @ z.imag) ** k.degree


def _expansion_row(k, z, centers):
    """kappa(z, c) per center from kernel_row over columns (||c||^2, 1, c), as CklmsFilter stores them."""
    u, rows = embed(z), embed(centers)
    cols = np.vstack([row_sq_norms(rows), np.ones(len(rows)), rows.T])
    return kernel_row(k, cols, lift(k, u, row_sq_norms(u)[0]))


def test_norm_expansion_matches_direct_difference():
    rng = np.random.default_rng(12)
    for k in (RealKernel.gaussian(5.0), RealKernel.gaussian(0.7), RealKernel.polynomial(2)):
        for m in (1, 3, 17, 500):
            z = rng.standard_normal(6) + 1j * rng.standard_normal(6)
            centers = rng.standard_normal((m, 6)) + 1j * rng.standard_normal((m, 6))
            np.testing.assert_allclose(_expansion_row(k, z, centers), _direct_rows(k, z, centers), rtol=1e-13, atol=1e-13)


def test_norm_expansion_repeated_center_clamped():
    # ||c||^2 + ||z||^2 - 2 c.z can round below 0 at c == z; the clamp keeps
    # kappa <= 1, and the squared distance stays within rounding of 0
    k = RealKernel.gaussian(0.05)
    rng = np.random.default_rng(13)
    for m in (2, 5, 64):
        for _ in range(50):
            centers = 3.0 * (rng.standard_normal((m, 6)) + 1j * rng.standard_normal((m, 6)))
            i = int(rng.integers(m))
            row = _expansion_row(k, centers[i], centers)
            assert row[i] <= 1.0
            dist_sq = -k.sigma**2 * np.log(row[i])
            assert dist_sq <= 16 * np.finfo(float).eps * np.sum(np.abs(centers[i]) ** 2)


@pytest.mark.parametrize("sigma", [np.inf, np.nan, 1e-200, 1e-160, 1e160])
def test_gaussian_sigma_needs_finite_square_and_inverse_square(sigma):
    # sigma = inf gave a constant kernel; sigma = 1e-200 divided by a zero sigma^2
    with pytest.raises(ValueError, match="finite sigma"):
        RealKernel.gaussian(sigma)


def test_gaussian_sigma_extremes_with_finite_inverse_square_accepted():
    for sigma in (1e-150, 1e150):
        assert kernel_eval(RealKernel.gaussian(sigma), [1 + 1j], [1 + 1j]) == 1.0


@pytest.mark.parametrize(
    "z, c",
    [([1e200j], [1j]), ([1e154, 0j], [-1e154, 0j])],
    ids=["norm-overflow", "distance-overflow"],
)
def test_overflowing_squared_distance_rejected(z, c):
    # both used to warn and return kappa = 0; the second pair has finite squared norms
    k = RealKernel.gaussian(1.0)
    with pytest.raises(ValueError, match="overflows"):
        kernel_eval(k, z, c)
    with pytest.raises(ValueError, match="overflows"):
        kernel_eval_many(k, z, [c])


def test_kernel_eval_many_rejects_center_whose_squared_norm_overflows():
    for k in (RealKernel.gaussian(1.0), RealKernel.polynomial(2)):
        with pytest.raises(ValueError, match="overflows"):
            kernel_eval_many(k, [1j], [[1j], [1e200 + 0j]])


@pytest.mark.parametrize("kernel", [RealKernel.gaussian(1.0), RealKernel.polynomial(1)], ids=["gaussian", "polynomial"])
def test_kernel_eval_checks_distance_with_warning_free_norm(kernel):
    # a squared distance past the float range is rejected for either kernel, and no warning escapes
    for z, c in (([1j], [1e200 + 0j]), ([1e154, 0j], [-1e154, 0j])):
        with pytest.raises(ValueError, match="overflows"):
            kernel_eval(kernel, z, c)
        with pytest.raises(ValueError, match="overflows"):
            kernel_eval_many(kernel, z, [[1j] * len(z), c])
    # an exponent past the float range is kappa = 0 from both, not an error
    tight = RealKernel.gaussian(1e-150)
    assert kernel_eval(tight, [1j], [2j]) == 0.0
    np.testing.assert_array_equal(kernel_eval_many(tight, [1j], [[2j], [1j]]), [0.0, 1.0])
