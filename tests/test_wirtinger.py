"""Finite-difference Wirtinger oracle tests."""

import numpy as np
import pytest

import ckaf.cklms
import ckaf.wirtinger
from ckaf.wirtinger import (
    WirtingerPair,
    _polynomial_features,
    check_gradient,
    instantaneous_cost_check,
    numeric_wirtinger,
    property_suite,
)


def test_holomorphic_square():
    # z^2: plain derivative 2z, conjugate derivative vanishes
    pair = numeric_wirtinger(lambda w: w[0] ** 2, np.array([1 + 1j]), 1e-5)
    assert pair.d_z[0] == pytest.approx(2 + 2j, abs=1e-8)
    assert pair.d_zstar[0] == pytest.approx(0.0, abs=1e-8)


def test_mixed_monomial():
    # z (z*)^2 -> d_z = (z*)^2, d_z* = 2 z z*
    rng = np.random.default_rng(0)
    for _ in range(10):
        z = complex(rng.standard_normal(), rng.standard_normal())
        pair = numeric_wirtinger(lambda w: w[0] * np.conj(w[0]) ** 2, np.array([z]), 1e-5)
        assert pair.d_z[0] == pytest.approx(np.conj(z) ** 2, abs=1e-7)
        assert pair.d_zstar[0] == pytest.approx(2 * z * np.conj(z), abs=1e-7)


def test_real_valued_modulus():
    z = 2 - 1j
    pair = numeric_wirtinger(lambda w: (w[0] * np.conj(w[0])).real, np.array([z]), 1e-5)
    assert pair.d_z[0] == pytest.approx(np.conj(z), abs=1e-8)
    assert pair.d_zstar[0] == pytest.approx(z, abs=1e-8)
    assert pair.d_zstar[0] == pytest.approx(np.conj(pair.d_z[0]), abs=1e-8)


def test_real_field_conjugate_pair():
    """Real-valued fields: d_z* is the conjugate of d_z."""
    rng = np.random.default_rng(1)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        f = lambda w: float(np.abs(np.sum(a * w)) ** 2 + np.sum(w.real**2))
        w0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        pair = numeric_wirtinger(f, w0, 1e-5)
        np.testing.assert_allclose(pair.d_zstar, np.conj(pair.d_z), atol=1e-8)


def test_quadratic_step_convergence():
    """Halving h shrinks the error ~4x until the round-off floor.

    Uses the mixed monomial z^2 z* whose third derivatives do not cancel
    in the central-difference combination (holomorphic fields cancel)."""
    z0 = np.array([0.4 + 0.9j])
    f = lambda w: w[0] ** 2 * np.conj(w[0])
    exact = 2 * z0[0] * np.conj(z0[0])
    errors = []
    for h in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
        errors.append(abs(numeric_wirtinger(f, z0, h).d_z[0] - exact))
    for coarse, fine in zip(errors, errors[1:]):
        assert fine < coarse / 3.0  # O(h^2): nominal factor 4 with slack


def test_check_gradient_worked_example():
    f = lambda w: w[0] * np.conj(w[0]) ** 2
    ana = lambda w: WirtingerPair(d_z=np.conj(w) ** 2, d_zstar=2 * w * np.conj(w))
    report = check_gradient(f, ana, np.array([0.8 - 0.6j]), tol=1e-6)
    assert report.passed
    assert report.error < 1e-6


def test_check_gradient_detects_wrong_derivative():
    # z^2 with conjugate derivative wrongly set to 1: reported error ~ 1
    f = lambda w: w[0] ** 2
    ana = lambda w: WirtingerPair(d_z=2 * w, d_zstar=np.ones_like(w))
    report = check_gradient(f, ana, np.array([1 + 1j]), tol=1e-6)
    assert not report.passed
    assert report.error == pytest.approx(1.0, abs=1e-3)


def test_derivative_error_scales_each_coordinate_by_its_own_expected_value():
    # a 1% error in a small coordinate shows beside an exact large one, whose scale would read it as 1e-5
    assert ckaf.wirtinger._error(np.array([1000, 1.01]), np.array([1000, 1.0])) == pytest.approx(0.01)
    # an expected zero is judged absolutely
    assert ckaf.wirtinger._error(np.array([3e-7j]), np.zeros(1)) == pytest.approx(3e-7)


def test_check_gradient_rejects_infinite_tolerance():
    # tol = inf would pass any pair, here d_z = 5 and d_z* = 7 for T(w) = w
    wrong = lambda w: WirtingerPair(d_z=np.full_like(w, 5), d_zstar=np.full_like(w, 7))
    with pytest.raises(ValueError, match="tol must be positive"):
        check_gradient(lambda w: w[0], wrong, np.array([1 + 1j]), tol=float("inf"))


def test_probe_evaluates_the_field_4m_times_in_order():
    """re+h, re-h, im+h, im-h for each coordinate; check_gradient repeats
    that once per step of its ladder."""
    w0 = np.array([0.3 + 0.7j, -0.2 + 0.1j, 0.5 - 0.4j])
    probes, points = [], []

    def field(w):
        (j,) = np.flatnonzero(w != w0)
        d = w[j] - w0[j]
        probes.append((int(j), "im" if d.real == 0 else "re", "+" if d.real + d.imag > 0 else "-"))
        points.append(w.copy())  # the probe array is reused between calls
        return complex(np.sum(w))

    expected = [(j, part, sign) for j in range(w0.size) for part in ("re", "im") for sign in "+-"]
    numeric_wirtinger(field, w0, 1e-3)
    assert probes == expected  # 4m evaluations
    # each probe is w0 with exactly one coordinate moved by +-h or +-ih, to the bit
    for point, (j, part, sign) in zip(points, expected):
        moved = w0.copy()
        delta = 1e-3 if part == "re" else 1e-3j
        moved[j] = w0[j] + delta if sign == "+" else w0[j] - delta
        assert (point == moved).all()
    assert (w0 == np.array([0.3 + 0.7j, -0.2 + 0.1j, 0.5 - 0.4j])).all()  # the caller's point is left as it was
    probes.clear()
    check_gradient(field, lambda w: WirtingerPair(np.ones_like(w), np.zeros_like(w)), w0, tol=1e-6)
    assert probes == expected * 3  # 12m: one set per step of STEP_LADDER


@pytest.mark.parametrize("m", [1, 2, 3, 4, 16])
def test_random_vector_takes_the_draws_of_separate_real_and_imaginary_parts(m):
    # one draw of 2m normals gives the numbers of a draw of m real parts, then m imaginary ones
    g, twin = np.random.default_rng(5), np.random.default_rng(5)
    for scale in (0.5, 1.0, 0.7):
        got = ckaf.wirtinger._rand_cvec(g, m, scale)
        expected = scale * (twin.standard_normal(m) + 1j * twin.standard_normal(m))
        assert got.tobytes() == expected.tobytes()
    assert g.bit_generator.state == twin.bit_generator.state


@pytest.mark.parametrize("kind", ["generic", "holomorphic", "antiholomorphic"])
def test_quadratic_field_equals_its_six_term_sum(kind):
    """The matrix form c0 + l.v + v.(M v), v = [w, w*], is the field its docstring names."""
    rng = np.random.default_rng(3)
    for m in (1, 2, 3, 4):
        t = ckaf.wirtinger._Quadratic(rng, m, kind == "holomorphic", kind == "antiholomorphic")
        for _ in range(10):
            w = rng.standard_normal(m) + 1j * rng.standard_normal(m)
            wc = np.conj(w)
            six = t.c0 + t.a @ w + t.b @ wc + w @ t.A @ w + wc @ t.B @ wc + wc @ t.C @ w
            assert t(w) == pytest.approx(complex(six), rel=1e-13)
        # the blocks a field of this kind must not have are zero
        zero = {"generic": [], "holomorphic": [t.b, t.B, t.C], "antiholomorphic": [t.a, t.A, t.C]}[kind]
        assert all(not block.any() for block in zero)


def test_inner_product_is_linear_in_its_first_argument():
    rng = np.random.default_rng(4)
    for m in (1, 2, 5):
        a, b = (rng.standard_normal(m) + 1j * rng.standard_normal(m) for _ in range(2))
        assert ckaf.wirtinger._inner(a, b) == pytest.approx(sum(x * y.conjugate() for x, y in zip(a, b)), rel=1e-13)
    assert ckaf.wirtinger._inner(np.array([1j]), np.array([1j])) == 1
    assert ckaf.wirtinger._inner(np.array([1j]), np.array([1.0])) == 1j


@pytest.mark.parametrize("part", ["real", "imaginary"])
def test_nonfinite_probe_reports_coordinate(part):
    def f(w):
        # finite until a probe moves coordinate 1 along the part under test
        component = w[1].real if part == "real" else w[1].imag
        return complex("nan") if abs(component) > 0.5 else w[0]

    w = np.array([0j, 0.5 if part == "real" else 0.5j])
    with pytest.raises(ValueError, match=f"probing the {part} part of coordinate 1"):
        numeric_wirtinger(f, w, 1e-3)


def test_invalid_step_rejected():
    with pytest.raises(ValueError):
        numeric_wirtinger(lambda w: w[0], np.array([0j]), 0.0)


def test_infinite_step_rejected():
    # every probe of a bounded field at h = inf reads 0, so the pair came back zero where it is not
    field = lambda w: complex(np.exp(-abs(w[0]) ** 2))
    with pytest.raises(ValueError, match="step h must be positive and finite"):
        numeric_wirtinger(field, [0.3 + 0.1j], h=float("inf"))


def test_property_suite_all_pass():
    report = property_suite(rng_seed=0)
    assert report.all_passed, [str(r) for r in report.results if not r.passed]
    assert len(report.results) == 11
    assert [r.number for r in report.results] == list(range(1, 12))


@pytest.mark.parametrize("trials", [0, -5, 2.5])
def test_property_suite_rejects_no_trials(trials):
    with pytest.raises(ValueError, match="trials"):
        property_suite(trials=trials)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"tol": 0.0}, "tol must be positive"),
        ({"tol": -1e-6}, "tol must be positive"),
        ({"tol": float("nan")}, "tol must be positive"),
        ({"tol": float("inf")}, "tol must be positive"),
        ({"max_dim": 0}, "max_dim must be an integer >= 1"),
        ({"max_dim": 2.5}, "max_dim must be an integer >= 1"),
    ],
    ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "max_dim-zero", "max_dim-fractional"],
)
def test_property_suite_rejects_bad_arguments(kwargs, message):
    with pytest.raises(ValueError, match=message):
        property_suite(**kwargs)


@pytest.mark.parametrize(
    "flip, failing",
    [("d_z", {4, 5, 6, 7, 10}), ("d_zstar", {3, 5, 6, 8, 9})],
)
def test_each_property_compares_the_derivative_it_names(monkeypatch, flip, failing):
    """A sign error in one numeric derivative fails exactly the properties that read it."""
    true_numeric = ckaf.wirtinger.numeric_wirtinger

    def flipped(f, w, h=1e-5):
        pair = true_numeric(f, w, h)
        if flip == "d_z":
            return WirtingerPair(d_z=-pair.d_z, d_zstar=pair.d_zstar)
        return WirtingerPair(d_z=pair.d_z, d_zstar=-pair.d_zstar)

    monkeypatch.setattr(ckaf.wirtinger, "numeric_wirtinger", flipped)
    report = property_suite(rng_seed=0, trials=20)
    assert {r.number for r in report.results if not r.passed} == failing
    assert not all(r.passed for r in instantaneous_cost_check(rng_seed=0))


def test_property_suite_deterministic():
    r1 = property_suite(rng_seed=7, trials=20)
    r2 = property_suite(rng_seed=7, trials=20)
    assert [a.max_error for a in r1.results] == [b.max_error for b in r2.results]


def test_steepest_ascent_direction():
    """For real fields the conjugate derivative beats 1000 random unit
    directions in first-order increase."""
    rng = np.random.default_rng(2)
    m = 3
    a = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    p = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    f = lambda w: float(np.abs(np.sum(a * w)) ** 2 + np.sum(np.abs(w - p) ** 2))
    w0 = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    grad = numeric_wirtinger(f, w0, 1e-5).d_zstar
    t = 1e-4

    def increase(direction):
        return (f(w0 + t * direction) - f(w0)) / t

    aligned = increase(grad / np.linalg.norm(grad))
    for _ in range(1000):
        u = rng.standard_normal(m) + 1j * rng.standard_normal(m)
        u /= np.linalg.norm(u)
        assert increase(u) <= aligned + 1e-3


def test_instantaneous_cost_gradient_surrogate():
    """Analytic -e* Phi(z) against finite differences in the explicit
    polynomial-feature surrogate."""
    reports = instantaneous_cost_check(n_trials=10, tol=1e-5, rng_seed=0)
    assert all(r.passed for r in reports)


@pytest.mark.parametrize("n_trials", [0, -5, 2.5])
def test_instantaneous_cost_check_rejects_no_trials(n_trials):
    with pytest.raises(ValueError, match="n_trials"):
        instantaneous_cost_check(n_trials=n_trials)


def test_cost_check_is_reexported_by_cklms():
    assert ckaf.cklms.instantaneous_cost_check is ckaf.wirtinger.instantaneous_cost_check


@pytest.mark.parametrize("degree", [1, 2])
def test_polynomial_feature_map_reproduces_kernel(degree):
    rng = np.random.default_rng(11)
    for _ in range(25):
        p = int(rng.integers(1, 5))
        u = rng.standard_normal(p)
        v = rng.standard_normal(p)
        lhs = _polynomial_features(u, degree) @ _polynomial_features(v, degree)
        assert lhs == pytest.approx((1.0 + u @ v) ** degree, rel=1e-12)


def test_polynomial_feature_map_unsupported_degree():
    with pytest.raises(ValueError):
        _polynomial_features([1.0], 3)
