"""Complex kernel LMS tests, checked against independent recursions."""

import copy

import numpy as np
import pytest

from ckaf.cklms import CklmsFilter, NoveltyCriterion
from ckaf.kernels import RealKernel, kernel_eval, kernel_eval_many


def _random_stream(rng, n, dim):
    zs = rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim))
    ds = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return zs, ds


def _admits(f, z, e):
    """Whether a step of f at z with prediction error e admits z; f itself is left unchanged."""
    return copy.deepcopy(f).step(z, f.predict(z) + e).admitted


class ComplexFormReference:
    """Independent bookkeeping: store per-step scaled errors mu*e/gamma and
    predict 2 * sum_k scaled_e_k * kappa(z, z_k)."""

    def __init__(self, kernel, mu, normalized):
        self.kernel = kernel
        self.mu = mu
        self.normalized = normalized
        self.centers = []
        self.scaled_errors = []

    def predict(self, z):
        if not self.centers:
            return 0j
        return 2.0 * complex(np.dot(self.scaled_errors, kernel_eval_many(self.kernel, z, self.centers)))

    def step(self, z, d):
        pred = self.predict(z)
        e = d - pred
        gamma = 2.0 * kernel_eval(self.kernel, z, z) if self.normalized else 1.0
        self.centers.append(np.asarray(z, dtype=complex))
        self.scaled_errors.append(self.mu * e / gamma)
        return pred


def _real_klms_reference(xs, ds, sigma, step):
    """Directly-coded real KLMS recursion: d_hat(n) = step * sum e(k) kappa."""
    preds = np.zeros(len(ds))
    errs = []
    for n, (x, d) in enumerate(zip(xs, ds)):
        y = step * sum(e * np.exp(-np.sum((x - xk) ** 2) / sigma**2) for xk, e in errs)
        preds[n] = y
        errs.append((x, d - y))
    return preds


class TestPredict:
    def test_empty_dictionary_predicts_zero(self):
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
        assert f.predict([1 + 1j, 2j]) == 0j
        assert f.dictionary_size == 0

    def test_new_filter_has_no_centers_or_coefficients(self):
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
        assert f.dictionary_size == 0
        assert f.centers.shape == (0, 0) and f.centers.dtype == complex
        assert f.coeffs.shape == (0,) and f.coeffs.dtype == complex

    def test_single_entry_at_its_own_center(self):
        # gaussian kappa(z, z) = 1, so output = (a+b) + i(a-b)
        f = CklmsFilter(RealKernel.gaussian(2.0), mu=0.5, normalized=True)
        z = np.array([0.3 - 1j])
        f.step(z, 2 - 3j)
        a, b = f.coeffs[0].real, f.coeffs[0].imag
        assert f.predict(z) == pytest.approx(complex(a + b, a - b), rel=1e-15)

    def test_far_dictionary_predicts_near_zero(self):
        f = CklmsFilter(RealKernel.gaussian(0.5), mu=0.5)
        f.step([0j], 1 + 1j)
        assert abs(f.predict([100 + 100j])) < 1e-12

    def test_dimension_mismatch(self):
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
        f.step([1j], 1.0)
        with pytest.raises(ValueError, match="dimension"):
            f.predict([1j, 2j])

    @pytest.mark.parametrize("call", [lambda f, z: f.step(z, 1.0), lambda f, z: f.predict(z)], ids=["step", "predict"])
    def test_a_block_of_inputs_is_rejected_state_unchanged(self, call):
        # an (N, nu) block is a stream for run; step and predict take one 1-D vector
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
        f.step([1j, 0.5], 1.0)
        centers, coeffs = f.centers.copy(), f.coeffs.copy()
        with pytest.raises(ValueError, match=r"expected a 1-D complex vector, got shape \(2, 2\)"):
            call(f, [[1j, 0.5], [0.5, 1j]])
        assert np.array_equal(f.centers, centers) and np.array_equal(f.coeffs, coeffs)


class TestStep:
    def test_first_step_hand_computed(self):
        # mu=1/2, gaussian (gamma=2), d=1+i: a = 0.5*(1+1)/2, b = 0.5*(1-1)/2
        f = CklmsFilter(RealKernel.gaussian(5.0), mu=0.5, normalized=True)
        res = f.step([0.7 + 0.1j], 1 + 1j)
        assert res.prediction == 0j
        assert res.error == 1 + 1j
        assert res.admitted
        assert f.coeffs[0] == 0.5 + 0j

    def test_unnormalized_gamma_is_one(self):
        f = CklmsFilter(RealKernel.gaussian(5.0), mu=0.25, normalized=False)
        f.step([1j], 2 + 4j)
        # a = 0.25*(2+4), b = 0.25*(2-4)
        assert f.coeffs[0] == pytest.approx(1.5 - 0.5j, rel=1e-15)

    def test_nonfinite_inputs_rejected_state_unchanged(self):
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
        f.step([1j], 1.0)
        with pytest.raises(ValueError):
            f.step([np.nan * 1j], 1.0)
        with pytest.raises(ValueError):
            f.step([0.5j], complex("inf"))
        assert f.dictionary_size == 1

    def test_existing_coefficients_never_modified(self):
        rng = np.random.default_rng(0)
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
        zs, ds = _random_stream(rng, 20, 2)
        snapshots = []
        for z, d in zip(zs, ds):
            f.step(z, d)
            snapshots.append(f.coeffs)
        for early, late in zip(snapshots, snapshots[1:]):
            np.testing.assert_array_equal(early, late[: early.size])

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            CklmsFilter(RealKernel.gaussian(1.0), mu=0.0)


class TestNovelty:
    def test_empty_dictionary_admits_large_error(self):
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
        assert _admits(f, [1j], 1.0)

    def test_duplicate_center_rejected(self):
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
        z = np.array([0.4 + 0.2j])
        f.step(z, 5.0)
        assert not _admits(f, z, 10.0)  # dis = 0 < delta1 regardless of error

    def test_small_error_rejected(self):
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
        f.step([0j], 5.0)
        res = f.step([50 + 50j], f.predict([50 + 50j]))  # zero error, far away
        assert not res.admitted
        assert f.dictionary_size == 1

    def test_distance_threshold_kernel_bound(self):
        # gaussian sigma=5, delta1=0.15: reject iff kappa > 1 - delta1^2/4
        sigma, d1 = 5.0, 0.15
        k = RealKernel.gaussian(sigma)
        f = CklmsFilter(k, mu=0.5, novelty=NoveltyCriterion(d1, 0.0))
        f.step([0j], 1 + 1j)
        kappa_cut = 1.0 - d1**2 / 4.0  # 0.994375
        # just inside the rejection region
        r_in = sigma * np.sqrt(-np.log(kappa_cut * 1.0000001))
        # clearly outside
        r_out = sigma * np.sqrt(-np.log(kappa_cut * 0.999))
        assert not _admits(f, [complex(r_in, 0)], 10.0)
        assert _admits(f, [complex(r_out, 0)], 10.0)

    def test_distance_threshold_polynomial(self):
        # ||Phi(z) - Phi(c)||^2 = 2 (kappa(z,z) - 2 kappa(z,c) + kappa(c,c))
        k = RealKernel.polynomial(2)
        kappa = lambda a, b: (1.0 + a.real @ b.real + a.imag @ b.imag) ** 2
        rng = np.random.default_rng(8)
        c = np.array([0.3 - 0.2j, 0.1j])
        zs = c + 0.05 * (rng.standard_normal((200, 2)) + 1j * rng.standard_normal((200, 2)))
        dist = np.array([np.sqrt(2.0 * (kappa(z, z) - 2.0 * kappa(z, c) + kappa(c, c))) for z in zs])
        d1 = float(np.median(dist))
        f = CklmsFilter(k, mu=0.5, novelty=NoveltyCriterion(d1, 0.0))
        f.step(c, 1 + 1j)
        decided = np.abs(dist - d1) > 1e-9
        assert decided.sum() > 190
        for z, far in zip(zs[decided], dist[decided] >= d1):
            assert _admits(f, z, 10.0) == far

    def test_repeated_center_distance_zero(self):
        # the norm expansion leaves only rounding residue, far below 1e-6
        rng = np.random.default_rng(9)
        for k in (RealKernel.gaussian(5.0), RealKernel.polynomial(2)):
            f = CklmsFilter(k, mu=0.5, novelty=NoveltyCriterion(1e-6, 0.0))
            zs, ds = _random_stream(rng, 40, 6)
            for z, d in zip(zs, ds):
                f.step(z, d)
            for z in f.centers:
                assert not _admits(f, z, 10.0)

    def test_novelty_none_admits_everything(self):
        rng = np.random.default_rng(1)
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
        zs, ds = _random_stream(rng, 50, 1)
        for z, d in zip(zs, ds):
            f.step(z, d)
        assert f.dictionary_size == 50

    def test_monotone_dictionary_growth(self):
        rng = np.random.default_rng(2)
        f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, novelty=NoveltyCriterion(0.5, 0.3))
        zs, ds = _random_stream(rng, 100, 1)
        prev = 0
        for z, d in zip(zs, ds):
            f.step(z, d)
            assert f.dictionary_size >= prev
            prev = f.dictionary_size
        assert prev <= 100

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            NoveltyCriterion(-0.1, 0.2)

    @pytest.mark.parametrize("thresholds", [(np.nan, 0.2), (0.15, np.nan)], ids=["delta1", "delta2"])
    def test_nan_threshold_rejected(self, thresholds):
        # a NaN delta1 used to admit the same center again and again, a NaN delta2 nothing at all
        with pytest.raises(ValueError, match="nonnegative"):
            NoveltyCriterion(*thresholds)


@pytest.mark.parametrize("kernel", [RealKernel.gaussian(1.0), RealKernel.polynomial(2)], ids=["gaussian", "polynomial"])
def test_step_agrees_with_predict_and_admit(kernel):
    # the gate by its definition: admit when |e| >= delta2 and the feature-space
    # distance to every center, sqrt(2 (kappa(z,z) - 2 kappa(z,c) + kappa(c,c))), is >= delta1
    rng = np.random.default_rng(10)
    d1, d2 = 0.5, 0.3
    f = CklmsFilter(kernel, mu=0.3, novelty=NoveltyCriterion(d1, d2))
    zs, ds = _random_stream(rng, 300, 1)
    outcomes = set()
    kcc = []  # kappa(c, c) of each center, in the order of f.centers
    for z, d in zip(zs, ds):
        y = f.predict(z)
        kzz = kernel_eval(kernel, z, z)
        dist = np.inf
        if kcc:
            dist_sq = 2.0 * (kzz - 2.0 * kernel_eval_many(kernel, z, f.centers) + kcc)
            dist = np.sqrt(max(dist_sq.min(), 0.0))
        res = f.step(z, d)
        assert res.prediction == y
        assert res.error == d - y
        if res.admitted:
            kcc.append(kzz)
        if abs(d - y) >= d2 and abs(dist - d1) <= 1e-9:
            continue  # too close to delta1 for the expansion and the direct difference to agree
        admitted = abs(d - y) >= d2 and dist >= d1
        assert res.admitted == admitted
        outcomes.add("admitted" if admitted else "distance" if abs(d - y) >= d2 else "error")
    assert outcomes == {"admitted", "distance", "error"}


def test_bookkeeping_equivalence_random_streams():
    """(a, b)-pair recombination vs the complex scaled-error form."""
    rng = np.random.default_rng(3)
    for trial in range(5):
        kernel = RealKernel.gaussian(2.0) if trial % 2 else RealKernel.polynomial(2)
        normalized = trial % 2 == 0
        f = CklmsFilter(kernel, mu=0.4, normalized=normalized)
        ref = ComplexFormReference(kernel, mu=0.4, normalized=normalized)
        zs, ds = _random_stream(rng, 200, 2)
        for z, d in zip(zs, ds):
            res = f.step(z, d)
            assert abs(res.prediction - ref.step(z, d)) < 1e-12


def test_real_stream_matches_direct_klms():
    """All-real data: unnormalized filter equals real KLMS run at step 2*mu."""
    rng = np.random.default_rng(4)
    mu, sigma = 0.2, 1.5
    xs = rng.standard_normal((300, 2))
    ds = rng.standard_normal(300)
    ref = _real_klms_reference(xs, ds, sigma, step=2 * mu)
    f = CklmsFilter(RealKernel.gaussian(sigma), mu=mu, normalized=False)
    for n, (x, d) in enumerate(zip(xs, ds)):
        res = f.step(x.astype(complex), complex(d))
        assert abs(res.prediction - ref[n]) < 1e-12
        assert res.prediction.imag == 0.0  # exactly


def test_real_stream_coefficients_collapse():
    """Im e = 0 makes a_k == b_k exactly, hence purely real predictions."""
    rng = np.random.default_rng(5)
    f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, normalized=True)
    for _ in range(100):
        res = f.step(rng.standard_normal(1).astype(complex), float(rng.standard_normal()))
        assert res.prediction.imag == 0.0
    assert np.array_equal(f.coeffs.real, f.coeffs.imag)


def test_coefficients_stay_finite_on_long_stream():
    rng = np.random.default_rng(6)
    f = CklmsFilter(RealKernel.gaussian(5.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
    zs, ds = _random_stream(rng, 2000, 6)
    for z, d in zip(zs, ds):
        res = f.step(z, d)
        assert np.isfinite(res.prediction.real) and np.isfinite(res.prediction.imag)
    assert np.all(np.isfinite(f.coeffs))


def _snapshot(f):
    return f.dictionary_size, f.centers.copy(), f.coeffs.copy()


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "plain"])
@pytest.mark.parametrize("novelty", [NoveltyCriterion(0, 0), NoveltyCriterion(0.5, 0.3)], ids=["all", "novelty"])
@pytest.mark.parametrize("kernel", [RealKernel.gaussian(1.0), RealKernel.polynomial(2)], ids=["gaussian", "polynomial"])
def test_run_matches_step_loop(kernel, novelty, normalized):
    """run over a stream gives the bits of step called on each sample."""
    rng = np.random.default_rng(11)
    zs, ds = _random_stream(rng, 300, 1)
    zs *= 0.5  # keeps the polynomial filter finite
    stepped = CklmsFilter(kernel, mu=0.1, normalized=normalized, novelty=novelty)
    steps = [stepped.step(z, d) for z, d in zip(zs, ds)]
    ran = CklmsFilter(kernel, mu=0.1, normalized=normalized, novelty=novelty)
    result = ran.run(zs, ds)
    assert result.errors.dtype == complex and result.admitted.dtype == bool
    assert np.array_equal(result.errors, [s.error for s in steps])
    assert np.array_equal(result.admitted, [s.admitted for s in steps])
    assert np.array_equal(ran.centers, stepped.centers)
    assert np.array_equal(ran.coeffs, stepped.coeffs)
    if novelty.delta1:
        outcomes = {"admitted" if s.admitted else "distance" if abs(s.error) >= 0.3 else "error" for s in steps}
        assert outcomes == {"admitted", "distance", "error"}


def test_run_continues_a_stepped_filter():
    rng = np.random.default_rng(12)
    zs, ds = _random_stream(rng, 60, 2)
    kernel, novelty = RealKernel.gaussian(1.0), NoveltyCriterion(0.15, 0.2)
    stepped = CklmsFilter(kernel, mu=0.5, novelty=novelty)
    steps = [stepped.step(z, d) for z, d in zip(zs, ds)]
    ran = CklmsFilter(kernel, mu=0.5, novelty=novelty)
    first, second = ran.run(zs[:25], ds[:25]), ran.run(zs[25:], ds[25:])
    assert np.array_equal(np.concatenate([first.errors, second.errors]), [s.error for s in steps])
    assert np.array_equal(ran.coeffs, stepped.coeffs)


def test_run_empty_stream():
    f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
    result = f.run(np.empty((0, 3), dtype=complex), [])
    assert result.errors.size == 0 and f.dictionary_size == 0


def test_step_rejects_empty_input_state_unchanged():
    f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
    with pytest.raises(ValueError, match="nonempty"):
        f.step([], 1.0)
    assert f.dictionary_size == 0
    f.step([1 + 1j], 1.0)
    with pytest.raises(ValueError, match="nonempty"):
        f.step(np.empty(0, dtype=complex), 1.0)
    assert f.dictionary_size == 1 and f.centers.shape == (1, 1)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda zs, ds: (np.where(np.arange(40)[:, None] == 30, np.nan, zs), ds),
        lambda zs, ds: (np.where(np.arange(40)[:, None] == 30, np.inf * 1j, zs), ds),
        lambda zs, ds: (zs, np.where(np.arange(40) == 30, np.inf, ds)),
        lambda zs, ds: (zs, np.where(np.arange(40) == 30, complex("nan"), ds)),
        lambda zs, ds: (zs[:, :1], ds),
        lambda zs, ds: (zs, ds[:-1]),
        lambda zs, ds: (zs[0], ds[:1]),
    ],
    ids=["nan-input", "inf-input", "inf-target", "nan-target", "taps", "lengths", "one-dimensional"],
)
def test_run_rejects_bad_block_state_unchanged(corrupt):
    rng = np.random.default_rng(13)
    f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
    f.run(*_random_stream(rng, 10, 2))
    before = _snapshot(f)
    with pytest.raises(ValueError):
        f.run(*corrupt(*_random_stream(rng, 40, 2)))
    after = _snapshot(f)
    assert after[0] == before[0]
    assert np.array_equal(after[1], before[1]) and np.array_equal(after[2], before[2])


@pytest.mark.parametrize("m", [1, 17, 500])
@pytest.mark.parametrize(
    "kernel",
    [RealKernel.gaussian(5.0), RealKernel.gaussian(0.7), RealKernel.polynomial(2)],
    ids=["gaussian-5", "gaussian-0.7", "polynomial"],
)
def test_predict_matches_expansion_over_centers(kernel, m):
    """predict(z) = 2 sum_k alpha_k kappa(z, z_k), with alpha_k from the (a, b) pairs
    (2 alpha = (a + b) + i (a - b)) and kappa by its definition."""
    rng = np.random.default_rng(14)
    zs, ds = _random_stream(rng, m, 3)
    f = CklmsFilter(kernel, mu=0.2)
    f.run(0.5 * zs, ds)
    a, b = f.coeffs.real, f.coeffs.imag
    two_alpha = (a + b) + 1j * (a - b)
    for z in 0.5 * _random_stream(rng, 5, 3)[0]:
        terms = two_alpha * np.array([kernel_eval(kernel, z, c) for c in f.centers])
        assert abs(f.predict(z) - terms.sum()) <= 1e-13 * max(1.0, np.abs(terms).sum())


def test_run_stores_admitted_inputs_bit_for_bit():
    rng = np.random.default_rng(15)
    zs, ds = _random_stream(rng, 400, 2)
    f = CklmsFilter(RealKernel.gaussian(0.7), mu=0.5, novelty=NoveltyCriterion(0.5, 0.3))
    result = f.run(zs, ds)
    assert 0 < result.admitted.sum() < zs.shape[0]
    assert np.array_equal(f.centers, zs[result.admitted])


def _direct_rows(k, z, centers):
    """kappa(z, c) per center from the direct difference (Gaussian) or the
    direct dot product of the embeddings (polynomial)."""
    if k.kind == "gaussian":
        diff = centers - z
        return np.exp(-np.sum(diff.real**2 + diff.imag**2, axis=1) / k.sigma**2)
    return (1.0 + centers.real @ z.real + centers.imag @ z.imag) ** k.degree


def _expansion_row(k, z, centers):
    """kappa(z, c) per center from the filter's own row over its stored columns (||c||^2, 1, c).

    Zero targets give every center a zero weight, so the filter admits them all and stays finite."""
    f = CklmsFilter(k, mu=1.0)
    f.run(centers, np.zeros(len(centers)))
    return f._predict(f._sample(z)[2])[0]


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


def test_stored_center_queried_again_kernel_at_most_one():
    # a one-center filter with alpha = 1 predicts 2 kappa(c, c); the norm
    # expansion of the exponent can round above 0 at z == c, and the clamp
    # keeps kappa <= 1 for every center of a stream
    rng = np.random.default_rng(16)
    kernel = RealKernel.gaussian(0.05)
    for c in 3.0 * _random_stream(rng, 200, 3)[0]:
        f = CklmsFilter(kernel, mu=1.0, normalized=False)
        f.step(c, 1.0)
        assert f.coeffs[0] == 1 + 1j  # alpha = 1
        y = f.predict(c)
        assert y.imag == 0.0 and y.real <= 2.0
        # the squared distance read back from kappa stays within rounding of 0
        assert -kernel.sigma**2 * np.log(y.real / 2.0) <= 16 * np.finfo(float).eps * np.vdot(c, c).real


def test_exp_then_clamp_at_one_equals_exp_of_exponent_clamped_at_zero():
    # the Gaussian row takes exp first and clamps at 1 after; that equals exp(min(x, 0)) only if exp is
    # exactly 1 at 0 and never crosses 1 for a tiny exponent of either sign, in the SIMD body and its tail
    rng = np.random.default_rng(26)
    x = rng.choice([-1.0, 1.0], 1024) * 10.0 ** rng.uniform(-300, -10, 1024)
    x[rng.choice(1024, 64, replace=False)] = 0.0
    for row in (x, x[3:]):  # and a row of odd length that starts off the vector alignment
        assert np.array_equal(np.minimum(np.exp(row), 1.0), np.exp(np.minimum(row, 0.0)))


def test_infinite_mu_rejected():
    # mu = inf used to be accepted and then diverged at the first step
    with pytest.raises(ValueError, match="finite"):
        CklmsFilter(RealKernel.gaussian(1.0), mu=np.inf)


def test_step_rejects_overflowing_input_power_state_unchanged():
    # finite entries whose squared norm overflows: the lifted query would carry -inf
    rng = np.random.default_rng(17)
    f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5)
    f.run(*_random_stream(rng, 10, 2))
    before = _snapshot(f)
    for call in (lambda z: f.step(z, 1.0), f.predict):
        with pytest.raises(ValueError, match="non-finite input sample"):
            call([1e200 + 0j, 1j])
    after = _snapshot(f)
    assert after[0] == before[0]
    assert np.array_equal(after[1], before[1]) and np.array_equal(after[2], before[2])


def test_run_rejects_overflowing_input_power_state_unchanged():
    rng = np.random.default_rng(18)
    f = CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
    f.run(*_random_stream(rng, 10, 2))
    before = _snapshot(f)
    zs, ds = _random_stream(rng, 40, 2)
    zs[30] = [1e155, 1e155j]
    with pytest.raises(ValueError, match="non-finite input sample"):
        f.run(zs, ds)
    after = _snapshot(f)
    assert after[0] == before[0]
    assert np.array_equal(after[1], before[1]) and np.array_equal(after[2], before[2])


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "plain"])
def test_polynomial_self_kernel_overflow_rejected_state_unchanged(normalized):
    # (1 + ||u||^2)^5 passes the float range although ||u||^2 = 1e140 does not; it used to raise OverflowError
    rng = np.random.default_rng(19)
    f = CklmsFilter(RealKernel.polynomial(5), mu=0.1, normalized=normalized, novelty=NoveltyCriterion(0.1, 0.1))
    f.run(*_random_stream(rng, 10, 1))
    before = _snapshot(f)
    for call in (lambda z: f.step(z, 1.0), f.predict):
        with pytest.raises(ValueError, match="non-finite input sample"):
            call([1e70 + 0j])
    zs, ds = _random_stream(rng, 40, 1)
    zs[30] = 1e70
    with pytest.raises(ValueError, match="non-finite input sample"):
        f.run(zs, ds)
    after = _snapshot(f)
    assert after[0] == before[0]
    assert np.array_equal(after[1], before[1]) and np.array_equal(after[2], before[2])
    f.step([1e30 + 0j], 1.0)  # (1 + 1e60)^5 is finite
