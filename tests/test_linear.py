"""Linear complex NLMS and widely-linear NLMS baseline tests."""

import numpy as np
import pytest

from ckaf.linear import ComplexNlms


class TestPredict:
    def test_zero_weights_predict_zero(self):
        for wl in (False, True):
            f = ComplexNlms(3, mu=0.5, widely_linear=wl)
            assert f.predict([1 + 2j, -1j, 0.5]) == 0j

    def test_conjugate_weight_convention(self):
        # h = (1, -i): h^H x = conj(1)*1 + conj(-i)*1 = 1 + i
        f = ComplexNlms(2, mu=0.5)
        f.h = np.array([1.0, -1.0j])
        assert f.predict([1.0, 1.0]) == 1 + 1j

    def test_widely_linear_zero_conjugate_branch_reduces_to_strict(self):
        rng = np.random.default_rng(0)
        strict = ComplexNlms(4, mu=0.5)
        wl = ComplexNlms(4, mu=0.5, widely_linear=True)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        strict.h = h.copy()
        wl.h = h.copy()  # wl.g stays zero
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert wl.predict(x) == strict.predict(x)

    def test_dimension_mismatch(self):
        f = ComplexNlms(3, mu=0.1)
        with pytest.raises(ValueError, match="length"):
            f.predict([1.0, 2.0])


class TestUpdate:
    def test_cold_start(self):
        f = ComplexNlms(2, mu=0.3)
        pred, err = f.update([1 + 1j, 2.0], 3 - 1j)
        assert pred == 0j
        assert err == 3 - 1j

    def test_hand_executed_step(self):
        # mu=1, eps=0, x=1, d=1: h becomes 1, next prediction is 1
        f = ComplexNlms(1, mu=1.0, eps=0.0)
        pred, err = f.update([1.0], 1.0)
        assert (pred, err) == (0j, 1 + 0j)
        assert f.h[0] == 1.0
        assert f.predict([1.0]) == 1 + 0j

    def test_zero_error_leaves_weights(self):
        f = ComplexNlms(2, mu=0.7)
        f.h = np.array([0.5 + 0.5j, -1j])
        x = np.array([1.0, 2.0 + 1j])
        d = f.predict(x)
        h_before = f.h.copy()
        _, err = f.update(x, d)
        assert err == 0j
        np.testing.assert_array_equal(f.h, h_before)

    def test_nonfinite_input_rejected_state_unchanged(self):
        f = ComplexNlms(2, mu=0.5, widely_linear=True)
        f.update([1.0, 1j], 1 + 1j)
        h, g = f.h.copy(), f.g.copy()
        with pytest.raises(ValueError, match="non-finite"):
            f.update([np.inf, 0j], 1.0)
        with pytest.raises(ValueError, match="non-finite"):
            f.update([1.0, 0j], complex("nan"))
        np.testing.assert_array_equal(f.h, h)
        np.testing.assert_array_equal(f.g, g)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            ComplexNlms(0, mu=0.1)
        with pytest.raises(ValueError):
            ComplexNlms(2, mu=-0.1)
        with pytest.raises(ValueError):
            ComplexNlms(2, mu=0.1, eps=-1e-9)

    @pytest.mark.parametrize("params", [{"mu": np.nan}, {"mu": 0.1, "eps": np.nan}], ids=["mu", "eps"])
    def test_nan_parameters_rejected(self, params):
        # a NaN mu or eps used to be accepted and then wrote NaN weights
        with pytest.raises(ValueError, match="nonnegative"):
            ComplexNlms(2, **params)

    def test_zero_power_without_eps_rejected_state_unchanged(self):
        for wl in (False, True):
            f = ComplexNlms(2, mu=0.5, eps=0.0, widely_linear=wl)
            f.update([1 + 1j, 1j], 1.0)
            h, g = f.h.copy(), None if f.g is None else f.g.copy()
            with pytest.raises(ValueError, match="zero input power"):
                f.update([0j, 0j], 1.0)
            np.testing.assert_array_equal(f.h, h)
            if wl:
                np.testing.assert_array_equal(f.g, g)
            # with the default eps a zero input is a valid step that changes nothing
            assert ComplexNlms(2, mu=0.5, widely_linear=wl).update([0j, 0j], 1.0) == (0j, 1 + 0j)


def _real_nlms_reference(xs, ds, n_taps, mu, eps):
    """Plain real NLMS, written independently of the complex code path."""
    w = np.zeros(n_taps)
    preds = []
    for x, d in zip(xs, ds):
        y = float(w @ x)
        e = d - y
        w = w + mu / (float(x @ x) + eps) * e * x
        preds.append(y)
    return np.array(preds)


def test_real_data_reproduces_real_nlms():
    rng = np.random.default_rng(1)
    n_taps, mu, eps = 4, 0.5, 1e-8
    xs = rng.standard_normal((200, n_taps))
    ds = rng.standard_normal(200)
    ref = _real_nlms_reference(xs, ds, n_taps, mu, eps)
    f = ComplexNlms(n_taps, mu=mu, eps=eps)
    preds = []
    for x, d in zip(xs, ds):
        pred, _ = f.update(x.astype(complex), complex(d))
        preds.append(pred)
        assert f.h.imag.max() == 0.0  # imaginary parts stay exactly zero
    np.testing.assert_allclose(np.array(preds).real, ref, atol=1e-12)
    assert np.max(np.abs(np.array(preds).imag)) == 0.0


def test_widely_linear_symmetry_on_real_input():
    """x = x* with h = g initially keeps h = g at every step."""
    rng = np.random.default_rng(2)
    f = ComplexNlms(3, mu=0.4, widely_linear=True)
    init = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    f.h = init.copy()
    f.g = init.copy()
    for _ in range(100):
        x = rng.standard_normal(3).astype(complex)
        d = complex(rng.standard_normal(), rng.standard_normal())
        f.update(x, d)
        np.testing.assert_array_equal(f.h, f.g)


def test_mse_non_increasing_on_linear_noiseless_data():
    """Statistical sanity: running mean of |e|^2 decays for mu in (0, 2)."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n_taps = 4
        w_true = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
        f = ComplexNlms(n_taps, mu=0.8)
        errs = []
        for _ in range(600):
            x = rng.standard_normal(n_taps) + 1j * rng.standard_normal(n_taps)
            d = complex(np.vdot(w_true, x))
            _, e = f.update(x, d)
            errs.append(abs(e) ** 2)
        errs = np.array(errs)
        first, second = errs[:300].mean(), errs[300:].mean()
        assert second <= first


def test_weights_finite_after_updates():
    rng = np.random.default_rng(3)
    f = ComplexNlms(3, mu=1.5, widely_linear=True)
    for _ in range(500):
        x = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        d = complex(rng.standard_normal(), rng.standard_normal())
        f.update(x, d)
    assert np.all(np.isfinite(f.h)) and np.all(np.isfinite(f.g))


def _stream(seed, n, n_taps, scale=1.0):
    rng = np.random.default_rng(seed)
    xs = scale * (rng.standard_normal((n, n_taps)) + 1j * rng.standard_normal((n, n_taps)))
    ds = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return xs, ds


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_run_matches_update_loop(wl):
    """run over a stream gives the bits of update called on each sample."""
    xs, ds = _stream(20, 500, 4)
    updated = ComplexNlms(4, mu=0.4, widely_linear=wl)
    errors = [updated.update(x, d)[1] for x, d in zip(xs, ds)]
    ran = ComplexNlms(4, mu=0.4, widely_linear=wl)
    got = ran.run(xs, ds)
    assert got.dtype == complex
    assert np.array_equal(got, errors)
    assert np.array_equal(ran.h, updated.h)
    if wl:
        assert np.array_equal(ran.g, updated.g)


def test_widely_linear_branches_assignable():
    f = ComplexNlms(2, mu=0.5, widely_linear=True)
    f.h = [1.0, 0j]
    f.g = np.array([0j, 1j])
    np.testing.assert_array_equal(f.h, [1.0, 0j])
    np.testing.assert_array_equal(f.g, [0j, 1j])
    # h^H x + g^H x* = 1 * (2 + i) + conj(i) * conj(3 - i) = (2 + i) + (-i)(3 + i)
    assert f.predict([2 + 1j, 3 - 1j]) == (2 + 1j) + (-1j) * (3 + 1j)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_run_stops_at_first_nonfinite_squared_error(wl):
    # mu = 10 is far outside the NLMS stability range (0, 2)
    xs, ds = _stream(21, 3000, 3)
    ref = ComplexNlms(3, mu=10.0, widely_linear=wl)
    errors = []
    for x, d in zip(xs, ds):
        e = ref.update(x, d)[1]
        errors.append(e)
        if not np.isfinite(e.real * e.real + e.imag * e.imag):
            break
    assert len(errors) < len(ds)
    assert np.array_equal(ComplexNlms(3, mu=10.0, widely_linear=wl).run(xs, ds), errors)


def _huge_row(xs):
    """The block with a finite entry too large for the power of its row to be finite."""
    xs = xs.copy()
    xs[30, 0] = 1e200
    return xs


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda xs, ds: (np.where(np.arange(40)[:, None] == 30, np.nan, xs), ds),
        lambda xs, ds: (np.where(np.arange(40)[:, None] == 30, np.inf, xs), ds),
        lambda xs, ds: (_huge_row(xs), ds),
        lambda xs, ds: (xs, np.where(np.arange(40) == 30, np.inf, ds)),
        lambda xs, ds: (xs, np.where(np.arange(40) == 30, complex("nan"), ds)),
        lambda xs, ds: (xs[:, :2], ds),
        lambda xs, ds: (xs, ds[:-1]),
        lambda xs, ds: (xs[0], ds[:1]),
    ],
    ids=["nan-input", "inf-input", "power-overflow", "inf-target", "nan-target", "taps", "lengths", "one-dimensional"],
)
@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_run_rejects_bad_block_state_unchanged(wl, corrupt):
    f = ComplexNlms(3, mu=0.5, widely_linear=wl)
    f.run(*_stream(22, 10, 3))
    h, g = f.h.copy(), None if f.g is None else f.g.copy()
    with pytest.raises(ValueError):
        f.run(*corrupt(*_stream(23, 40, 3)))
    np.testing.assert_array_equal(f.h, h)
    if wl:
        np.testing.assert_array_equal(f.g, g)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_run_rejects_zero_power_row_without_eps_state_unchanged(wl):
    # the zero row comes second: it used to raise ZeroDivisionError after the first update
    f = ComplexNlms(2, mu=0.5, eps=0.0, widely_linear=wl)
    with pytest.raises(ValueError, match="zero input power"):
        f.run([[1 + 1j, 1j], [0j, 0j]], [1, 1])
    assert not f.h.any()
    assert f.g is None or not f.g.any()


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_infinite_mu_rejected(wl):
    # mu = inf used to be accepted and then diverged at the first update
    with pytest.raises(ValueError, match="finite"):
        ComplexNlms(2, mu=np.inf, widely_linear=wl)
    assert ComplexNlms(2, mu=0.0, widely_linear=wl).mu == 0.0
