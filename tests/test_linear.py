"""Linear complex NLMS and widely-linear NLMS baseline tests."""

import copy
import math

import numpy as np
import pytest

from ckaf import linear
from ckaf.linear import ComplexNlms, run_bank


class TestPredict:
    def test_zero_weights_predict_zero(self):
        for wl in (False, True):
            f = ComplexNlms(3, mu=0.5, widely_linear=wl)
            assert f.update([1 + 2j, -1j, 0.5], 0j)[0] == 0j

    def test_conjugate_weight_convention(self):
        # h = (1, -i): h^H x = conj(1)*1 + conj(-i)*1 = 1 + i
        f = ComplexNlms(2, mu=0.5)
        f.h[:] = [1.0, -1.0j]
        assert f.update([1.0, 1.0], 0j)[0] == 1 + 1j

    def test_widely_linear_zero_conjugate_branch_reduces_to_strict(self):
        rng = np.random.default_rng(0)
        strict = ComplexNlms(4, mu=0.5)
        wl = ComplexNlms(4, mu=0.5, widely_linear=True)
        h = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        strict.h[:] = h
        wl.h[:] = h  # wl.g stays zero
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        assert wl.update(x, 0j)[0] == strict.update(x, 0j)[0]

    def test_dimension_mismatch(self):
        f = ComplexNlms(3, mu=0.1)
        with pytest.raises(ValueError, match="length"):
            f.update([1.0, 2.0], 0j)


class TestUpdate:
    def test_cold_start(self):
        f = ComplexNlms(2, mu=0.3)
        pred, err = f.update([1 + 1j, 2.0], 3 - 1j)
        assert pred == 0j
        assert err == 3 - 1j

    def test_hand_executed_step(self):
        # mu=1, x=1, d=1: h becomes 1 / (1 + 1e-8), the power regularized by 1e-8, and so does the next prediction
        f = ComplexNlms(1, mu=1.0)
        pred, err = f.update([1.0], 1.0)
        assert (pred, err) == (0j, 1 + 0j)
        assert f.h[0] == 1.0 / (1.0 + 1e-8)
        assert f.update([1.0], 0j)[0] == 1.0 / (1.0 + 1e-8)

    def test_zero_error_leaves_weights(self):
        f = ComplexNlms(2, mu=0.7)
        f.h[:] = [0.5 + 0.5j, -1j]
        x = np.array([1.0, 2.0 + 1j])
        d = copy.deepcopy(f).update(x, 0j)[0]
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

    @pytest.mark.parametrize("n_taps", [2.5, 3.0, "3", 0, np.int64(0)], ids=repr)
    def test_tap_count_must_be_a_positive_integer(self, n_taps):
        with pytest.raises(ValueError, match="n_taps must be an integer >= 1"):
            ComplexNlms(n_taps, mu=0.1)

    def test_numpy_integer_tap_count_accepted(self):
        f = ComplexNlms(np.int64(3), mu=0.1)
        assert f.n_taps == 3
        assert f.update([1j, 0j, 1.0], 1.0)[1] == 1.0

    @pytest.mark.parametrize("params", [{"mu": np.nan}], ids=["mu"])
    def test_nan_parameters_rejected(self, params):
        # a NaN mu used to be accepted and then wrote NaN weights
        with pytest.raises(ValueError, match="nonnegative"):
            ComplexNlms(2, **params)

    @pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
    def test_zero_input_changes_nothing(self, wl):
        # the regularized power keeps the gain finite, so a zero input is a valid step that changes nothing
        f = ComplexNlms(2, mu=0.5, widely_linear=wl)
        f.update([1 + 1j, 1j], 1.0)
        h, g = f.h.copy(), None if f.g is None else f.g.copy()
        assert f.update([0j, 0j], 1.0) == (0j, 1 + 0j)
        np.testing.assert_array_equal(_bank([f], [[0j, 0j]], [1.0]), [[1 + 0j]])
        np.testing.assert_array_equal(f.h, h)
        if wl:
            np.testing.assert_array_equal(f.g, g)


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
    f = ComplexNlms(n_taps, mu=mu)
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
    f.h[:] = init
    f.g[:] = init
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


def _update_loop(f, xs, ds):
    """Errors of update over a stream, ending at the first non-finite squared error."""
    errors = []
    for x, d in zip(xs, ds):
        e = f.update(x, d)[1]
        errors.append(e)
        if not math.isfinite(e.real * e.real + e.imag * e.imag):
            break
    return np.array(errors)


def _bank(filters, xs, ds):
    """The errors of run_bank as one (N, A, R) array."""
    return np.concatenate(list(run_bank(filters, xs, ds)))


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_run_matches_update_loop(wl):
    """A bank of one filter over a stream, across block edges, gives the bits of update called on each sample."""
    xs, ds = _stream(20, 1100, 4)
    updated = ComplexNlms(4, mu=0.4, widely_linear=wl)
    errors = [updated.update(x, d)[1] for x, d in zip(xs, ds)]
    got = _bank([ComplexNlms(4, mu=0.4, widely_linear=wl)], xs, ds)
    assert got.dtype == complex and len(got) > 2 * linear._BLOCK
    assert np.array_equal(got[:, 0], errors)


def test_widely_linear_branches_assignable():
    f = ComplexNlms(2, mu=0.5, widely_linear=True)
    f.h[:] = [1.0, 0j]
    f.g[:] = [0j, 1j]
    np.testing.assert_array_equal(f.h, [1.0, 0j])
    np.testing.assert_array_equal(f.g, [0j, 1j])
    # h^H x + g^H x* = 1 * (2 + i) + conj(i) * conj(3 - i) = (2 + i) + (-i)(3 + i)
    assert f.update([2 + 1j, 3 - 1j], 0j)[0] == (2 + 1j) + (-1j) * (3 + 1j)
    # the branches are written through their views; rebinding them is not supported
    with pytest.raises(AttributeError):
        f.h = [0j, 0j]


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
    assert np.array_equal(_bank([ComplexNlms(3, mu=10.0, widely_linear=wl)], xs, ds)[:, 0], errors)


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
    _update_loop(f, *_stream(22, 10, 3))
    h, g = f.h.copy(), None if f.g is None else f.g.copy()
    with pytest.raises(ValueError, match=message):
        _bank([f], *corrupt(*_stream(23, 40, 3)))
    np.testing.assert_array_equal(f.h, h)
    if wl:
        np.testing.assert_array_equal(f.g, g)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_infinite_mu_rejected(wl):
    # mu = inf used to be accepted and then diverged at the first update
    with pytest.raises(ValueError, match="finite"):
        ComplexNlms(2, mu=np.inf, widely_linear=wl)
    assert ComplexNlms(2, mu=0.0, widely_linear=wl).mu == 0.0


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_stacked_run_matches_update_loops_with_one_stream_diverging(wl):
    # at mu = 10 every stream diverges in time; targets scaled by 1e-250 put it off past the stream's end
    streams = [_stream(30 + j, 500, 3) for j in range(3)]
    xs = np.stack([x for x, _ in streams])
    ds = np.stack([d * (1.0 if j == 1 else 1e-250) for j, (_, d) in enumerate(streams)])
    got = _bank([ComplexNlms(3, mu=10.0, widely_linear=wl)], xs, ds)[:, 0].T
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
    got = _bank([ComplexNlms(3, mu=10.0, widely_linear=wl)], xs, ds)[:, 0].T
    lengths = [_update_loop(ComplexNlms(3, mu=10.0, widely_linear=wl), x, d).size for x, d in zip(xs, ds)]
    assert max(lengths) < 2000
    assert got.shape == (2, max(lengths))


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_single_stream_bank_stops_where_the_update_loop_does(wl):
    rng = np.random.default_rng(0)
    xs, ds = rng.standard_normal((3000, 3)).astype(complex), rng.standard_normal(3000).astype(complex)
    ref = ComplexNlms(3, mu=50.0, widely_linear=wl)
    errors = _update_loop(ref, xs, ds)
    assert errors.size < 3000 and np.abs(ref.h).max() > 1e150
    assert np.array_equal(_bank([ComplexNlms(3, mu=50.0, widely_linear=wl)], xs, ds)[:, 0], errors)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_stacked_run_starts_every_stream_from_the_current_weights(wl):
    xs, ds = _stream(36, 40, 3)
    warm = ComplexNlms(3, mu=0.5, widely_linear=wl)
    _update_loop(warm, xs[:20], ds[:20])
    expected = _bank([warm], xs[20:], ds[20:])[:, 0]
    got = _bank([warm], np.stack([xs[20:], xs[20:]]), np.stack([ds[20:], ds[20:]]))[:, 0].T
    assert np.array_equal(got, [expected, expected])
    assert np.array_equal(expected, _update_loop(warm, xs[20:], ds[20:]))


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_stacked_run_leaves_the_weights_unchanged(wl):
    # a stack steps copies of the weights; the filter used to keep one weight row per stream
    f = ComplexNlms(3, mu=0.5, widely_linear=wl)
    xs, ds = _stream(37, 50, 3)
    _update_loop(f, xs[:10], ds[:10])
    h, g = f.h.copy(), None if f.g is None else f.g.copy()
    _bank([f], np.stack([xs, 2 * xs]), np.stack([ds, ds]))
    assert np.array_equal(f.h, h)
    assert f.g is None if not wl else np.array_equal(f.g, g)
    # the filter still takes updates, which continue from the same weights
    ref = ComplexNlms(3, mu=0.5, widely_linear=wl)
    _update_loop(ref, xs[:10], ds[:10])
    assert copy.deepcopy(f).update(xs[10], 0j)[0] == copy.deepcopy(ref).update(xs[10], 0j)[0]
    assert f.update(xs[10], ds[10]) == ref.update(xs[10], ds[10])
    assert np.array_equal(_update_loop(f, xs[11:], ds[11:]), _update_loop(ref, xs[11:], ds[11:]))
    assert np.array_equal(f.h, ref.h)
    assert f.g is None if not wl else np.array_equal(f.g, ref.g)


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_bad_stack_rejected_state_unchanged(wl):
    f = ComplexNlms(3, mu=0.5, widely_linear=wl)
    _update_loop(f, *_stream(38, 10, 3))
    h = f.h.copy()
    xs, ds = _stream(39, 40, 3)
    bad_x = np.stack([xs, np.where(np.arange(40)[:, None] == 30, np.nan, xs)])
    for stack_x, stack_d in ((bad_x, np.stack([ds, ds])), (np.stack([xs, xs]), np.stack([ds, ds[::-1]])[:, :-1])):
        with pytest.raises(ValueError):
            _bank([f], stack_x, stack_d)
    assert np.array_equal(f.h, h)
    assert f.update(xs[0], ds[0])  # still takes updates


def _bank_filters(order, diverging=None):
    """One NCLMS and one WL-NCLMS filter of 3 taps in the given order, the `diverging` one at mu = 10."""
    return [ComplexNlms(3, mu=10.0 if name == diverging else 0.5, widely_linear=name == "wl-nclms") for name in order]


ORDERS = [("nclms", "wl-nclms"), ("wl-nclms", "nclms")]


@pytest.mark.parametrize("diverging", ["nclms", "wl-nclms"])
@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_bank_matches_each_filters_update_loop_with_one_stream_diverging_in_one_filter(order, diverging):
    # at mu = 10 a stream diverges within ~400 steps; targets scaled by 1e-250 put it off past this length,
    # which spans two blocks, so only stream 1 diverges, and only in the filter at mu = 10
    streams = [_stream(40 + j, 560, 3) for j in range(3)]
    xs = np.stack([x for x, _ in streams])
    ds = np.stack([d * (1.0 if j == 1 else 1e-250) for j, (_, d) in enumerate(streams)])
    got = _bank(_bank_filters(order, diverging), xs, ds)
    assert got.shape == (560, 2, 3)
    for a, name in enumerate(order):
        for j in range(3):
            errors = _update_loop(_bank_filters(order, diverging)[a], xs[j], ds[j])
            assert (errors.size < 560) == (name == diverging and j == 1)
            assert np.array_equal(got[: errors.size, a, j], errors, equal_nan=True)


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_bank_stops_once_no_row_of_any_filter_has_a_finite_squared_error(order):
    # both filters at mu = 10; the tiny targets of stream 1 put its divergence past the first block
    streams = [_stream(50 + j, 2000, 3) for j in range(2)]
    xs = np.stack([x for x, _ in streams])
    ds = np.stack([streams[0][1], streams[1][1] * 1e-250])
    filters = [ComplexNlms(3, mu=10.0, widely_linear=name == "wl-nclms") for name in order]
    got = _bank(filters, xs, ds)
    lengths = [_update_loop(copy.deepcopy(f), x, d).size for f in filters for x, d in zip(xs, ds)]
    assert linear._BLOCK < max(lengths) < 2000
    assert got.shape == (max(lengths), 2, 2)


B = linear._BLOCK


@pytest.mark.parametrize(
    "length, step, everywhere",
    [
        pytest.param(B - 1, None, False, id="block-1"),
        pytest.param(B, None, False, id="block"),
        pytest.param(B + 1, None, False, id="block+1"),
        pytest.param(B, B - 1, False, id="block-stream-0-diverges-on-the-last-step"),
        pytest.param(B, B - 1, True, id="block-all-diverge-on-the-last-step"),
        pytest.param(B + 1, B - 1, False, id="block+1-stream-0-diverges-on-the-last-step-of-a-block"),
        pytest.param(B + 1, B - 1, True, id="block+1-all-diverge-on-the-last-step-of-a-block"),
        pytest.param(B + 1, B, False, id="block+1-stream-0-diverges-on-the-first-step-of-the-next-block"),
        pytest.param(B + 1, B, True, id="block+1-all-diverge-on-the-first-step-of-the-next-block"),
    ],
)
def test_bank_blocks_join_into_the_update_loops(length, step, everywhere):
    # a finite target of 1e300 makes the squared error at `step` overflow: in stream 0, or in every stream
    streams = [_stream(60 + j, length, 3) for j in range(2)]
    xs, ds = np.stack([x for x, _ in streams]), np.stack([d for _, d in streams])
    if step is not None:
        ds[: 2 if everywhere else 1, step] = 1e300
    blocks = list(run_bank(_bank_filters(ORDERS[0]), xs, ds))
    assert [len(b) for b in blocks[:-1]] == [B] * (len(blocks) - 1) and 1 <= len(blocks[-1]) <= B
    got = np.concatenate(blocks)
    assert len(got) == (step + 1 if everywhere else length)
    for a in range(2):
        for j in range(2):
            errors = _update_loop(_bank_filters(ORDERS[0])[a], xs[j], ds[j])
            assert errors.size == (step + 1 if step is not None and (everywhere or j == 0) else length)
            assert np.array_equal(got[: errors.size, a, j], errors, equal_nan=True)


@pytest.mark.parametrize("order", ORDERS, ids="-then-".join)
def test_bank_starts_from_the_current_weights_and_leaves_them_unchanged(order):
    filters = _bank_filters(order)
    for f, seed in zip(filters, (70, 71)):
        _update_loop(f, *_stream(seed, 30, 3))
    before = [f._w.copy() for f in filters]
    streams = [_stream(72 + j, 40, 3) for j in range(2)]
    xs, ds = np.stack([x for x, _ in streams]), np.stack([d for _, d in streams])
    expected = [[_update_loop(copy.deepcopy(f), x, d) for x, d in zip(xs, ds)] for f in filters]
    got = _bank(filters, xs, ds)
    assert np.array_equal(got.transpose(1, 2, 0), expected)
    for f, w in zip(filters, before):
        assert np.array_equal(f._w, w)
    assert filters[1].h.any()  # the warm-up moved the weights the bank started from


def test_bank_of_widely_linear_filters_that_are_not_adjacent_is_rejected_before_a_step():
    filters = [ComplexNlms(3, mu=0.5, widely_linear=wl) for wl in (True, False, True)]
    xs, ds = _stream(80, 10, 3)
    with pytest.raises(ValueError):
        _bank(filters, xs[np.newaxis], ds[np.newaxis])
    assert not any(f._w.any() for f in filters)


@pytest.mark.parametrize("lengths", [[], [3, 4], [4, 3]], ids=["no-filter", "3-then-4", "4-then-3"])
def test_bank_of_no_filter_or_of_several_lengths_is_rejected_before_a_step(lengths):
    # no filter used to raise IndexError, and filters of several lengths a numpy broadcast error
    filters = [ComplexNlms(n, mu=0.5, widely_linear=n == 4) for n in lengths]
    xs, ds = _stream(81, 10, 3)
    with pytest.raises(ValueError, match=rf"a bank takes one or more filters of one length, got lengths \{lengths}"):
        next(run_bank(filters, xs[np.newaxis], ds[np.newaxis]))
    assert not any(f._w.any() for f in filters)


@pytest.mark.parametrize("stack", [False, True], ids=["stream", "stack"])
def test_bank_leaves_every_filters_weights_unchanged(stack):
    # the WL-NCLMS filter at mu = 10 diverges within the stream, so the bank's copy of its weights ends non-finite
    filters = _bank_filters(ORDERS[0], diverging="wl-nclms")
    for f, seed in zip(filters, (82, 83)):
        _update_loop(f, *_stream(seed, 20, 3))
    before = [(f.h.copy(), None if f.g is None else f.g.copy()) for f in filters]
    xs, ds = _stream(84, 2000, 3)
    got = _bank(filters, np.stack([xs, xs]) if stack else xs, np.stack([ds, ds]) if stack else ds)
    assert len(got) == 2000 and not np.isfinite(got[-1, 1]).any()
    for f, (h, g) in zip(filters, before):
        assert np.array_equal(f.h, h) and (f.g is None if g is None else np.array_equal(f.g, g))
    assert filters[1].g.any()  # the warm-up moved the weights the bank started from


@pytest.mark.parametrize("wl", [False, True], ids=["nclms", "wl-nclms"])
def test_run_on_an_empty_stream_returns_no_errors(wl):
    f = ComplexNlms(3, mu=0.5, widely_linear=wl)
    assert [b.shape for b in run_bank([f], np.empty((0, 3)), [])] == [(0, 1)]
    assert [b.shape for b in run_bank([f], np.empty((2, 0, 3)), np.empty((2, 0)))] == [(0, 1, 2)]
    assert not f._w.any()


def _nlms_reference(xs, ds, mu, wl):
    """Plain NLMS, or WL-NLMS, on one complex stream, written apart from ckaf.linear: its pre-update errors."""
    h, g = np.zeros(xs.shape[1], dtype=complex), np.zeros(xs.shape[1], dtype=complex)
    errors = []
    for x, d in zip(xs, ds):
        e = d - (np.vdot(h, x) + np.vdot(g, x.conj()) if wl else np.vdot(h, x))
        p = np.vdot(x, x).real
        c = mu / ((2 * p if wl else p) + 1e-8) * e.conjugate()
        h = h + c * x
        g = g + c * x.conj()
        errors.append(e)
    return np.array(errors)


def test_bank_rows_equal_a_plain_nlms_recursion():
    # update and run_bank share one step, so this reference is the bank's independent check
    streams = [_stream(90 + j, 1500, 6) for j in range(4)]
    xs, ds = np.stack([x for x, _ in streams]), np.stack([d for _, d in streams])
    filters = [ComplexNlms(6, mu=0.5), ComplexNlms(6, mu=0.3, widely_linear=True)]
    got = _bank(filters, xs, ds)
    assert got.shape == (1500, 2, 4) and len(got) > linear._BLOCK
    for a, f in enumerate(filters):
        for j in range(4):
            assert np.array_equal(got[:, a, j], _nlms_reference(xs[j], ds[j], f.mu, f.widely_linear))
