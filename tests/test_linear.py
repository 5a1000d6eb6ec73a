"""Linear complex NLMS and widely-linear NLMS baseline tests."""

import math

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
        with pytest.raises(ValueError, match="non-finite desired value"):
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
    "corrupt, message",
    [
        (lambda xs, ds: (np.where(np.arange(40)[:, None] == 30, np.nan, xs), ds), "non-finite input sample"),
        (lambda xs, ds: (np.where(np.arange(40)[:, None] == 30, np.inf, xs), ds), "non-finite input sample"),
        (lambda xs, ds: (_huge_row(xs), ds), "non-finite input sample"),
        (lambda xs, ds: (xs, np.where(np.arange(40) == 30, np.inf, ds)), "non-finite desired value"),
        (lambda xs, ds: (xs, np.where(np.arange(40) == 30, complex("nan"), ds)), "non-finite desired value"),
        (lambda xs, ds: (xs[:, :2], ds), r"input length \(2,\) does not match filter length \(3,\)"),
        # a stack used to report "input length (40, 2)"
        (lambda xs, ds: (np.stack([xs, xs])[..., :2], np.stack([ds, ds])), r"input length \(2,\) does not match"),
        (lambda xs, ds: (xs, ds[:-1]), "inputs but targets"),
        # a 1-D input used to report "input length ()"
        (lambda xs, ds: (xs[0], ds[:1]), r"expected an \(N, 3\) block or an \(R, N, 3\) stack"),
    ],
    ids=["nan-input", "inf-input", "power-overflow", "inf-target", "nan-target", "taps", "stack-taps", "lengths", "one-dimensional"],
)
@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_run_rejects_bad_block_state_unchanged(wl, corrupt, message):
    f = ComplexNlms(3, mu=0.5, widely_linear=wl)
    f.run(*_stream(22, 10, 3))
    h, g = f.h.copy(), None if f.g is None else f.g.copy()
    with pytest.raises(ValueError, match=message):
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


def _update_loop(f, xs, ds):
    """Errors of update over a stream, ending at the first non-finite squared error."""
    errors = []
    for x, d in zip(xs, ds):
        e = f.update(x, d)[1]
        errors.append(e)
        if not math.isfinite(e.real * e.real + e.imag * e.imag):
            break
    return np.array(errors)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_stacked_run_matches_update_loops_with_one_stream_diverging(wl):
    # at mu = 10 every stream diverges in time; targets scaled by 1e-250 put it off past the stream's end
    streams = [_stream(30 + j, 500, 3) for j in range(3)]
    xs = np.stack([x for x, _ in streams])
    ds = np.stack([d * (1.0 if j == 1 else 1e-250) for j, (_, d) in enumerate(streams)])
    stacked = ComplexNlms(3, mu=10.0, widely_linear=wl)
    got = stacked.run(xs, ds)
    assert got.shape == (3, 500)
    for j in range(3):
        ref = ComplexNlms(3, mu=10.0, widely_linear=wl)
        errors = _update_loop(ref, xs[j], ds[j])
        assert (errors.size < 500) == (j == 1)
        assert np.array_equal(got[j, : errors.size], errors, equal_nan=True)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_stacked_run_stops_once_every_stream_diverged(wl):
    streams = [_stream(33 + j, 2000, 3) for j in range(2)]
    xs, ds = np.stack([x for x, _ in streams]), np.stack([d for _, d in streams])
    got = ComplexNlms(3, mu=10.0, widely_linear=wl).run(xs, ds)
    lengths = [_update_loop(ComplexNlms(3, mu=10.0, widely_linear=wl), x, d).size for x, d in zip(xs, ds)]
    assert max(lengths) < 2000
    assert got.shape == (2, max(lengths))


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_single_stream_run_stops_with_the_weights_of_the_update_loop(wl):
    rng = np.random.default_rng(0)
    xs, ds = rng.standard_normal((3000, 3)).astype(complex), rng.standard_normal(3000).astype(complex)
    ref = ComplexNlms(3, mu=50.0, widely_linear=wl)
    errors = _update_loop(ref, xs, ds)
    ran = ComplexNlms(3, mu=50.0, widely_linear=wl)
    assert np.array_equal(ran.run(xs, ds), errors)
    assert errors.size < 3000 and np.abs(ran.h).max() > 1e150
    assert np.array_equal(ran.h, ref.h)
    assert not wl or np.array_equal(ran.g, ref.g)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_stacked_run_starts_every_stream_from_the_current_weights(wl):
    xs, ds = _stream(36, 40, 3)
    warm = ComplexNlms(3, mu=0.5, widely_linear=wl)
    warm.run(xs[:20], ds[:20])
    single = ComplexNlms(3, mu=0.5, widely_linear=wl)
    single.run(xs[:20], ds[:20])
    expected = single.run(xs[20:], ds[20:])
    got = warm.run(np.stack([xs[20:], xs[20:]]), np.stack([ds[20:], ds[20:]]))
    assert np.array_equal(got, [expected, expected])


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_stacked_run_leaves_the_weights_unchanged(wl):
    # a stack steps copies of the weights; the filter used to keep one weight row per stream
    f = ComplexNlms(3, mu=0.5, widely_linear=wl)
    xs, ds = _stream(37, 50, 3)
    f.run(xs[:10], ds[:10])
    h, g = f.h.copy(), None if f.g is None else f.g.copy()
    f.run(np.stack([xs, 2 * xs]), np.stack([ds, ds]))
    assert np.array_equal(f.h, h)
    assert f.g is None if not wl else np.array_equal(f.g, g)
    # the filter still takes single-stream calls, which continue from the same weights
    ref = ComplexNlms(3, mu=0.5, widely_linear=wl)
    ref.run(xs[:10], ds[:10])
    assert f.predict(xs[10]) == ref.predict(xs[10])
    assert f.update(xs[10], ds[10]) == ref.update(xs[10], ds[10])
    assert np.array_equal(f.run(xs[11:], ds[11:]), ref.run(xs[11:], ds[11:]))
    assert np.array_equal(f.h, ref.h)
    assert f.g is None if not wl else np.array_equal(f.g, ref.g)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_bad_stack_rejected_state_unchanged(wl):
    f = ComplexNlms(3, mu=0.5, widely_linear=wl)
    f.run(*_stream(38, 10, 3))
    h = f.h.copy()
    xs, ds = _stream(39, 40, 3)
    bad_x = np.stack([xs, np.where(np.arange(40)[:, None] == 30, np.nan, xs)])
    for stack_x, stack_d in ((bad_x, np.stack([ds, ds])), (np.stack([xs, xs]), np.stack([ds, ds[::-1]])[:, :-1])):
        with pytest.raises(ValueError):
            f.run(stack_x, stack_d)
    assert np.array_equal(f.h, h)
    assert f.update(xs[0], ds[0])  # still a single-stream filter
