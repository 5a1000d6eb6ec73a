"""Numerical Wirtinger derivatives of scalar fields on C^m.

For T(w) = u(x, y) + i v(x, y) with w = x + iy, the two derivative
forms are, per coordinate,

    dT/dz  = (u_x + v_y)/2 + i (v_x - u_y)/2
    dT/dz* = (u_x - v_y)/2 + i (v_x + u_y)/2

equivalently dT/dz = (T_x - i T_y)/2 and dT/dz* = (T_x + i T_y)/2.
Both are estimated by central finite differences, one probe per real
coordinate. The conjugate derivative is the steepest-ascent direction
of real-valued costs, so this module doubles as a gradient checker for
the analytic updates used by the adaptive filters, among them the
CKLMS gradient -e* Phi(z) (instantaneous_cost_check).
"""

from __future__ import annotations

import cmath
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from .kernels import embed

ScalarField = Callable[[np.ndarray], complex]

#: The finite-difference steps tried by check_gradient; the best one
#: wins, balancing truncation against round-off without user tuning.
STEP_LADDER = (1e-4, 1e-5, 1e-6)


class WirtingerPair(NamedTuple):
    """The derivative pair (dT/dz, dT/dz*) at a point, one entry per coordinate."""

    d_z: np.ndarray
    d_zstar: np.ndarray


def numeric_wirtinger(f: ScalarField, w, h: float = 1e-5) -> WirtingerPair:
    """Central-difference Wirtinger derivatives of f at w.

    f maps a complex vector to a complex scalar and must be finite on
    the +-h neighborhood of every real coordinate of w. It is handed one
    probe array, moved in place between calls, which it must not change
    and must copy to keep. Error is O(h^2) for thrice-differentiable fields.
    """
    if not 0 < h < np.inf:
        raise ValueError(f"step h must be positive and finite, got {h}")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    t = np.empty((2, w.size), dtype=complex)  # central differences: T_x in row 0, T_y in row 1
    p = w.copy()  # the probe: w with coordinate j moved, restored after each pair
    for j, wj in enumerate(w):
        for k, (part, delta) in enumerate((("real", h), ("imaginary", 1j * h))):
            p[j] = wj + delta
            fp = complex(f(p))
            p[j] = wj - delta
            fm = complex(f(p))
            p[j] = wj
            if not (cmath.isfinite(fp) and cmath.isfinite(fm)):
                raise ValueError(f"non-finite field value probing the {part} part of coordinate {j}")
            t[k, j] = (fp - fm) / (2.0 * h)
    return WirtingerPair(d_z=0.5 * (t[0] - 1j * t[1]), d_zstar=0.5 * (t[0] + 1j * t[1]))


class GradientCheckReport(NamedTuple):
    """Comparison of an analytic derivative pair against finite differences."""

    passed: bool
    error: float
    tol: float


def _error(actual: np.ndarray, expected: np.ndarray) -> float:
    """A derivative's error: its worst coordinate, each relative to max(1, |expected|) so exact zeros are absolute."""
    return float(np.max(np.abs(actual - expected) / np.maximum(1.0, np.abs(expected))))


def check_gradient(
    f: ScalarField,
    analytic: Callable[[np.ndarray], WirtingerPair],
    w,
    tol: float,
) -> GradientCheckReport:
    """Check an analytic Wirtinger pair against finite differences at w.

    Runs the full step ladder and keeps the best step; passes when the
    per-coordinate max-norm relative error at that step is below tol.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    ana = analytic(w)
    pairs = (numeric_wirtinger(f, w, h) for h in STEP_LADDER)
    err = min(max(_error(num.d_z, ana.d_z), _error(num.d_zstar, ana.d_zstar)) for num in pairs)
    return GradientCheckReport(passed=err < tol, error=err, tol=tol)


# ---------------------------------------------------------------------------
# Property suite: the calculus rules verified on randomized low-dimensional
# fields. Inner products throughout are <a, b> = sum_j a_j * conj(b_j),
# linear in the first argument and conjugate-linear in the second.
# ---------------------------------------------------------------------------

#: Step used inside the property suite; low-degree polynomial test fields keep
#: both truncation and round-off orders of magnitude below the 1e-6 tolerance.
_SUITE_STEP = 1e-5


class PropertyResult(NamedTuple):
    number: int
    name: str
    trials: int
    max_error: float
    passed: bool
    witness: Optional[np.ndarray] = None

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {self.name:<55s} max err {self.max_error:.3e}  {status}"


class SuiteReport(NamedTuple):
    trials: int
    tol: float
    results: list[PropertyResult]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)


def _inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.vdot(b, a))  # vdot conjugates its first argument


def _rand_cvec(rng: np.random.Generator, m: int, scale: float = 0.5) -> np.ndarray:
    # one draw of 2m normals: the same numbers, in the same order, as a draw of m real parts then m imaginary
    x = rng.standard_normal(2 * m)
    return scale * (x[:m] + 1j * x[m:])


class _Quadratic:
    """Random field c0 + a.w + b.conj(w) + w^T A w + w*^T B w* + w*^T C w.

    Setting blocks to zero yields holomorphic (b = B = C = 0) or
    anti-holomorphic (a = A = C = 0) special cases with known analytic
    derivative pairs. With v = [w, w*] the field is c0 + l.v + v.(M v),
    where l = [a, b] and M = [[A, 0], [C, B]]; a to C are views into l and M.
    """

    def __init__(self, rng: np.random.Generator, m: int, holomorphic=False, antiholomorphic=False):
        self.c0 = _rand_cvec(rng, 1)[0]
        self.l = np.zeros(2 * m, dtype=complex)
        self.M = np.zeros((2 * m, 2 * m), dtype=complex)
        self.a, self.b = self.l[:m], self.l[m:]
        self.A, self.B, self.C = self.M[:m, :m], self.M[m:, m:], self.M[m:, :m]
        # drawn in this order, row by row; a zero block takes no draw
        zeros = (antiholomorphic, holomorphic, antiholomorphic, holomorphic, holomorphic or antiholomorphic)
        for block, zero in zip((self.a, self.b, self.A, self.B, self.C), zeros):
            if not zero:
                block[...] = _rand_cvec(rng, block.size).reshape(block.shape)

    def __call__(self, w: np.ndarray) -> complex:
        v = np.concatenate((w, w.conj()))
        return complex(self.c0 + v @ (self.M @ v + self.l))  # l.v + v.(M v), as v.l = l.v

    def d_z(self, w: np.ndarray) -> np.ndarray:
        return self.a + (self.A + self.A.T) @ w + self.C.T @ np.conj(w)

    def d_zstar(self, w: np.ndarray) -> np.ndarray:
        wc = np.conj(w)
        return self.b + (self.B + self.B.T) @ wc + self.C @ w


def property_suite(rng_seed: int = 0, trials: int = 100, tol: float = 1e-6, max_dim: int = 4) -> SuiteReport:
    """Numerically verify the Wirtinger calculus rules on random fields.

    Eleven properties are checked over `trials` random points each, in
    dimensions 1..max_dim: vanishing derivatives of (anti-)holomorphic
    fields, the conjugation rules, the realness rule, the first-order
    Taylor expansion, the four inner-product derivative forms, and the
    product rule for holomorphic factors.
    """
    if not (isinstance(trials, (int, np.integer)) and trials >= 1):
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not 0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    if not (isinstance(max_dim, (int, np.integer)) and max_dim >= 1):
        raise ValueError(f"max_dim must be an integer >= 1, got {max_dim!r}")
    rng = np.random.default_rng(rng_seed)
    results = []

    checks = [
        (1, "holomorphic field: conjugate derivative vanishes", partial(_prop_vanishing, holomorphic=True)),
        (2, "anti-holomorphic field: plain derivative vanishes", partial(_prop_vanishing, holomorphic=False)),
        (3, "conjugation rule (d_z T)* = d_z* T*", partial(_prop_conj_rule, of="d_z")),
        (4, "conjugation rule (d_z* T)* = d_z T*", partial(_prop_conj_rule, of="d_zstar")),
        (5, "real-valued field: (d_z T)* = d_z* T", _prop_real_pair),
        (6, "first-order Taylor expansion remainder is o(|h|)", _prop_taylor),
        (7, "T = <f, w>: d_z = w*, d_z* = 0", partial(_prop_inner, form=_INNER_FORMS[0])),
        (8, "T = <w, f>: d_z = 0, d_z* = w", partial(_prop_inner, form=_INNER_FORMS[1])),
        (9, "T = <f*, w>: d_z = 0, d_z* = w*", partial(_prop_inner, form=_INNER_FORMS[2])),
        (10, "T = <w, f*>: d_z = w, d_z* = 0", partial(_prop_inner, form=_INNER_FORMS[3])),
        (11, "product rule on holomorphic factors", _prop_product_rule),
    ]
    for number, name, fn in checks:
        worst = 0.0
        witness = None
        for _ in range(trials):
            m = int(rng.integers(1, max_dim + 1))
            w = _rand_cvec(rng, m)
            err = fn(rng, m, w)
            if err > worst:
                worst = err
                witness = w
        passed = worst < tol
        results.append(PropertyResult(number, name, trials, worst, passed, None if passed else witness))
    return SuiteReport(trials, tol, results)


def _prop_vanishing(rng, m, w, holomorphic):
    t = _Quadratic(rng, m, holomorphic=holomorphic, antiholomorphic=not holomorphic)
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    return _error(num.d_zstar if holomorphic else num.d_z, np.zeros(m, dtype=complex))


def _prop_conj_rule(rng, m, w, of):
    # (d T)* = d' T*, where d is the derivative named by `of` and d' the other one
    t = _Quadratic(rng, m)
    num_tc = numeric_wirtinger(lambda v: np.conj(t(v)), w, _SUITE_STEP)
    other = "d_zstar" if of == "d_z" else "d_z"
    return _error(getattr(num_tc, other), np.conj(getattr(t, of)(w)))


def _prop_real_pair(rng, m, w):
    t = _Quadratic(rng, m)
    real_field = lambda v: abs(t(v)) ** 2  # |T|^2 is generic, smooth, real
    num = numeric_wirtinger(real_field, w, _SUITE_STEP)
    # product rule gives the closed form of d_z |T|^2 for cross-checking
    ana_d_z = t.d_z(w) * np.conj(t(w)) + np.conj(t.d_zstar(w)) * t(w)
    return max(
        _error(np.conj(num.d_z), num.d_zstar),
        _error(num.d_zstar, np.conj(ana_d_z)),
    )


def _prop_taylor(rng, m, w):
    t = _Quadratic(rng, m)
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    u = _rand_cvec(rng, m)
    u = u / np.linalg.norm(u)
    t0 = complex(t(w))
    ratios = []
    for scale in (1e-2, 1e-3, 1e-4):
        h = scale * u
        first_order = _inner(h, np.conj(num.d_z)) + _inner(np.conj(h), np.conj(num.d_zstar))
        remainder = abs(complex(t(w + h)) - t0 - first_order)
        ratios.append(remainder / scale)
    # o(|h|): the remainder-over-|h| ratio must collapse down the ladder
    # (quadratic fields give ~10x per decade; a wrong first-order term
    # keeps it constant) or sit at the noise floor outright.
    if ratios[-1] < max(1e-8, 0.05 * ratios[0]):
        return 0.0
    return ratios[-1]


#: The four inner-product fields T(f) of a fixed v, each with its closed
#: form (d_z T, d_z* T), in the order of properties 7-10.
_INNER_FORMS = [
    (lambda f, v: _inner(f, v), lambda v: (np.conj(v), np.zeros_like(v))),
    (lambda f, v: _inner(v, f), lambda v: (np.zeros_like(v), v)),
    (lambda f, v: _inner(np.conj(f), v), lambda v: (np.zeros_like(v), np.conj(v))),
    (lambda f, v: _inner(v, np.conj(f)), lambda v: (v, np.zeros_like(v))),
]


def _prop_inner(rng, m, w, form):
    t, closed = form
    v = _rand_cvec(rng, m, scale=1.0)
    num = numeric_wirtinger(lambda f: t(f, v), w, _SUITE_STEP)
    d_z, d_zstar = closed(v)
    return max(_error(num.d_z, d_z), _error(num.d_zstar, d_zstar))


def _prop_product_rule(rng, m, w):
    r = _Quadratic(rng, m, holomorphic=True)
    s = _Quadratic(rng, m, holomorphic=True)
    num_rs = numeric_wirtinger(lambda v: r(v) * s(v), w, _SUITE_STEP)
    num_r = numeric_wirtinger(r, w, _SUITE_STEP)
    num_s = numeric_wirtinger(s, w, _SUITE_STEP)
    expected = num_r.d_z * s(w) + num_s.d_z * r(w)
    return _error(num_rs.d_z, expected)


# The CKLMS gradient, checked in an explicit-feature surrogate with the suite's draws and inner product
def _polynomial_features(u: np.ndarray, degree: int) -> np.ndarray:
    """Explicit monomial feature map phi of the polynomial kernel, degree 1 or 2:
    phi(u).phi(v) = (1 + u.v)^degree for real u and v."""
    if degree == 1:
        return np.concatenate([[1.0], u])
    if degree == 2:
        iu, ju = np.triu_indices(u.size, k=1)
        return np.concatenate([[1.0], np.sqrt(2.0) * u, u * u, np.sqrt(2.0) * u[iu] * u[ju]])
    raise ValueError(f"explicit feature map only implemented for degree 1 or 2, got {degree}")


def instantaneous_cost_check(
    n_trials: int = 50, tol: float = 1e-5, rng_seed: int = 0, degree: int = 2
) -> list[GradientCheckReport]:
    """Check the CKLMS cost gradient in an explicit-feature surrogate.

    The polynomial kernel of the given degree admits an explicit
    monomial feature map phi; complexifying it as Phi(z) = (1+i) phi(z)
    makes the kernel filter's instantaneous cost |d - <Phi(z), w>|^2 an
    ordinary field on C^M, where its analytic conjugate gradient
    -e* Phi(z) (and its conjugate, since the cost is real) can be
    compared against finite differences.
    """
    if not (isinstance(n_trials, (int, np.integer)) and n_trials >= 1):
        raise ValueError(f"n_trials must be an integer >= 1, got {n_trials!r}")
    rng = np.random.default_rng(rng_seed)
    reports = []
    for _ in range(n_trials):
        nu = int(rng.integers(1, 3))
        z = _rand_cvec(rng, nu, scale=0.7)
        d = _rand_cvec(rng, 1, scale=1.0)[0]
        big_phi = (1.0 + 1.0j) * _polynomial_features(embed(z), degree)
        w0 = _rand_cvec(rng, big_phi.size)

        def cost(w, big_phi=big_phi, d=d):
            return abs(d - _inner(big_phi, w)) ** 2

        def analytic(w, big_phi=big_phi, d=d):
            d_zstar = -np.conj(d - _inner(big_phi, w)) * big_phi
            return WirtingerPair(d_z=np.conj(d_zstar), d_zstar=d_zstar)

        reports.append(check_gradient(cost, analytic, w0, tol=tol))
    return reports
