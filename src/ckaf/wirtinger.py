"""Numerical Wirtinger derivatives of scalar fields on C^m.

For T(w) = u(x, y) + i v(x, y) with w = x + iy, the two derivative
forms are, per coordinate,

    dT/dz  = (u_x + v_y)/2 + i (v_x - u_y)/2
    dT/dz* = (u_x - v_y)/2 + i (v_x + u_y)/2

equivalently dT/dz = (T_x - i T_y)/2 and dT/dz* = (T_x + i T_y)/2.
Both are estimated by central finite differences, one probe per real
coordinate. The conjugate derivative is the steepest-ascent direction
of real-valued costs, so this module doubles as a gradient checker for
the analytic updates used by the adaptive filters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

ScalarField = Callable[[np.ndarray], complex]

#: The finite-difference steps tried by check_gradient; the best one
#: wins, balancing truncation against round-off without user tuning.
STEP_LADDER = (1e-4, 1e-5, 1e-6)


@dataclass(frozen=True)
class WirtingerPair:
    """The derivative pair (dT/dz, dT/dz*) at a point, one entry per coordinate."""

    d_z: np.ndarray
    d_zstar: np.ndarray


def numeric_wirtinger(f: ScalarField, w, h: float = 1e-5) -> WirtingerPair:
    """Central-difference Wirtinger derivatives of f at w.

    f maps a complex vector to a complex scalar and must be finite on
    the +-h neighborhood of every real coordinate of w. Error is O(h^2)
    for thrice-differentiable fields.
    """
    if not h > 0:
        raise ValueError(f"step h must be positive, got {h}")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    m = w.size
    d_z = np.empty(m, dtype=complex)
    d_zstar = np.empty(m, dtype=complex)
    for j in range(m):
        t_x = _central(f, w, j, h, imaginary=False)
        t_y = _central(f, w, j, h, imaginary=True)
        d_z[j] = 0.5 * (t_x - 1j * t_y)
        d_zstar[j] = 0.5 * (t_x + 1j * t_y)
    return WirtingerPair(d_z=d_z, d_zstar=d_zstar)


def _central(f: ScalarField, w: np.ndarray, j: int, h: float, imaginary: bool) -> complex:
    delta = 1j * h if imaginary else h
    wp = w.copy()
    wp[j] += delta
    fp = complex(f(wp))
    wm = w.copy()
    wm[j] -= delta
    fm = complex(f(wm))
    if not (np.isfinite(fp.real) and np.isfinite(fp.imag) and np.isfinite(fm.real) and np.isfinite(fm.imag)):
        part = "imaginary" if imaginary else "real"
        raise ValueError(f"non-finite field value probing the {part} part of coordinate {j}")
    return (fp - fm) / (2.0 * h)


@dataclass
class GradientCheckReport:
    """Comparison of an analytic derivative pair against finite differences."""

    passed: bool
    error: float
    best_step: float
    tol: float
    errors_d_z: np.ndarray
    errors_d_zstar: np.ndarray

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"{status} max relative error {self.error:.3e} (h={self.best_step:g}, tol={self.tol:g})"


def _pair_errors(numeric: WirtingerPair, analytic: WirtingerPair) -> tuple[np.ndarray, np.ndarray]:
    # per-coordinate, relative to max(1, |expected|) so exact zeros are absolute
    e_z = np.abs(numeric.d_z - analytic.d_z) / np.maximum(1.0, np.abs(analytic.d_z))
    e_zs = np.abs(numeric.d_zstar - analytic.d_zstar) / np.maximum(1.0, np.abs(analytic.d_zstar))
    return e_z, e_zs


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
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    w = np.atleast_1d(np.asarray(w, dtype=complex))
    ana = analytic(w)
    best = None
    for h in STEP_LADDER:
        num = numeric_wirtinger(f, w, h)
        e_z, e_zs = _pair_errors(num, ana)
        err = max(float(np.max(e_z)), float(np.max(e_zs)))
        if best is None or err < best[0]:
            best = (err, h, e_z, e_zs)
    err, h, e_z, e_zs = best
    return GradientCheckReport(
        passed=err < tol,
        error=err,
        best_step=h,
        tol=tol,
        errors_d_z=e_z,
        errors_d_zstar=e_zs,
    )


# ---------------------------------------------------------------------------
# Property suite: the calculus rules verified on randomized low-dimensional
# fields. Inner products throughout are <a, b> = sum_j a_j * conj(b_j),
# linear in the first argument and conjugate-linear in the second.
# ---------------------------------------------------------------------------

#: Step used inside the property suite; low-degree polynomial test fields keep
#: both truncation and round-off orders of magnitude below the 1e-6 tolerance.
_SUITE_STEP = 1e-5


@dataclass
class PropertyResult:
    number: int
    name: str
    trials: int
    max_error: float
    tol: float
    passed: bool
    witness: Optional[np.ndarray] = None

    def __str__(self):
        status = "PASS" if self.passed else "FAIL"
        return f"[{self.number:2d}] {self.name:<55s} max err {self.max_error:.3e}  {status}"


@dataclass
class SuiteReport:
    seed: int
    trials: int
    tol: float
    results: list[PropertyResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def __str__(self):
        lines = [str(r) for r in self.results]
        lines.append("all properties passed" if self.all_passed else "PROPERTY FAILURES detected")
        return "\n".join(lines)


def _inner(a: np.ndarray, b: np.ndarray) -> complex:
    return complex(np.sum(a * np.conj(b)))


def _rand_cvec(rng: np.random.Generator, m: int, scale: float = 0.5) -> np.ndarray:
    return scale * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


class _Quadratic:
    """Random field c0 + a.w + b.conj(w) + w^T A w + w*^T B w* + w*^T C w.

    Setting blocks to zero yields holomorphic (b = B = C = 0) or
    anti-holomorphic (a = A = C = 0) special cases with known analytic
    derivative pairs.
    """

    def __init__(self, rng: np.random.Generator, m: int, holomorphic=False, antiholomorphic=False):
        z = np.zeros((m, m), dtype=complex)
        self.c0 = _rand_cvec(rng, 1)[0]
        self.a = _rand_cvec(rng, m) if not antiholomorphic else np.zeros(m, dtype=complex)
        self.b = _rand_cvec(rng, m) if not holomorphic else np.zeros(m, dtype=complex)
        self.A = _rand_cvec(rng, m * m).reshape(m, m) if not antiholomorphic else z
        self.B = _rand_cvec(rng, m * m).reshape(m, m) if not holomorphic else z
        self.C = z if (holomorphic or antiholomorphic) else _rand_cvec(rng, m * m).reshape(m, m)

    def __call__(self, w: np.ndarray) -> complex:
        wc = np.conj(w)
        return complex(
            self.c0
            + self.a @ w
            + self.b @ wc
            + w @ self.A @ w
            + wc @ self.B @ wc
            + wc @ self.C @ w
        )

    def d_z(self, w: np.ndarray) -> np.ndarray:
        return self.a + (self.A + self.A.T) @ w + self.C.T @ np.conj(w)

    def d_zstar(self, w: np.ndarray) -> np.ndarray:
        wc = np.conj(w)
        return self.b + (self.B + self.B.T) @ wc + self.C @ w


def _norm_err(actual: np.ndarray, expected: np.ndarray) -> float:
    scale = max(1.0, float(np.max(np.abs(expected))) if expected.size else 1.0)
    return float(np.max(np.abs(actual - expected))) / scale


def property_suite(rng_seed: int = 0, trials: int = 100, tol: float = 1e-6, max_dim: int = 4) -> SuiteReport:
    """Numerically verify the Wirtinger calculus rules on random fields.

    Eleven properties are checked over `trials` random points each, in
    dimensions 1..max_dim: vanishing derivatives of (anti-)holomorphic
    fields, the conjugation rules, the realness rule, the first-order
    Taylor expansion, the four inner-product derivative forms, and the
    product rule for holomorphic factors.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(rng_seed)
    report = SuiteReport(seed=rng_seed, trials=trials, tol=tol)

    checks = [
        (1, "holomorphic field: conjugate derivative vanishes", _prop_holomorphic),
        (2, "anti-holomorphic field: plain derivative vanishes", _prop_antiholomorphic),
        (3, "conjugation rule (d_z T)* = d_z* T*", _prop_conj_rule_z),
        (4, "conjugation rule (d_z* T)* = d_z T*", _prop_conj_rule_zstar),
        (5, "real-valued field: (d_z T)* = d_z* T", _prop_real_pair),
        (6, "first-order Taylor expansion remainder is o(|h|)", _prop_taylor),
        (7, "T = <f, w>: d_z = w*, d_z* = 0", _prop_inner_fw),
        (8, "T = <w, f>: d_z = 0, d_z* = w", _prop_inner_wf),
        (9, "T = <f*, w>: d_z = 0, d_z* = w*", _prop_inner_fsw),
        (10, "T = <w, f*>: d_z = w, d_z* = 0", _prop_inner_wfs),
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
        report.results.append(
            PropertyResult(
                number=number,
                name=name,
                trials=trials,
                max_error=worst,
                tol=tol,
                passed=worst < tol,
                witness=witness if worst >= tol else None,
            )
        )
    return report


def _prop_holomorphic(rng, m, w):
    t = _Quadratic(rng, m, holomorphic=True)
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    return _norm_err(num.d_zstar, np.zeros(m, dtype=complex))


def _prop_antiholomorphic(rng, m, w):
    t = _Quadratic(rng, m, antiholomorphic=True)
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    return _norm_err(num.d_z, np.zeros(m, dtype=complex))


def _prop_conj_rule_z(rng, m, w):
    t = _Quadratic(rng, m)
    num_tc = numeric_wirtinger(lambda v: np.conj(t(v)), w, _SUITE_STEP)
    return _norm_err(num_tc.d_zstar, np.conj(t.d_z(w)))


def _prop_conj_rule_zstar(rng, m, w):
    t = _Quadratic(rng, m)
    num_tc = numeric_wirtinger(lambda v: np.conj(t(v)), w, _SUITE_STEP)
    return _norm_err(num_tc.d_z, np.conj(t.d_zstar(w)))


def _prop_real_pair(rng, m, w):
    t = _Quadratic(rng, m)
    real_field = lambda v: abs(t(v)) ** 2  # |T|^2 is generic, smooth, real
    num = numeric_wirtinger(real_field, w, _SUITE_STEP)
    # product rule gives the closed form of d_z |T|^2 for cross-checking
    ana_d_z = t.d_z(w) * np.conj(t(w)) + np.conj(t.d_zstar(w)) * t(w)
    return max(
        _norm_err(np.conj(num.d_z), num.d_zstar),
        _norm_err(num.d_zstar, np.conj(ana_d_z)),
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


def _prop_inner_fw(rng, m, w):
    v = _rand_cvec(rng, m, scale=1.0)
    t = lambda f: _inner(f, v)
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    return max(_norm_err(num.d_z, np.conj(v)), _norm_err(num.d_zstar, np.zeros(m, dtype=complex)))


def _prop_inner_wf(rng, m, w):
    v = _rand_cvec(rng, m, scale=1.0)
    t = lambda f: _inner(v, f)
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    return max(_norm_err(num.d_z, np.zeros(m, dtype=complex)), _norm_err(num.d_zstar, v))


def _prop_inner_fsw(rng, m, w):
    v = _rand_cvec(rng, m, scale=1.0)
    t = lambda f: _inner(np.conj(f), v)
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    return max(_norm_err(num.d_z, np.zeros(m, dtype=complex)), _norm_err(num.d_zstar, np.conj(v)))


def _prop_inner_wfs(rng, m, w):
    v = _rand_cvec(rng, m, scale=1.0)
    t = lambda f: _inner(v, np.conj(f))
    num = numeric_wirtinger(t, w, _SUITE_STEP)
    return max(_norm_err(num.d_z, v), _norm_err(num.d_zstar, np.zeros(m, dtype=complex)))


def _prop_product_rule(rng, m, w):
    r = _Quadratic(rng, m, holomorphic=True)
    s = _Quadratic(rng, m, holomorphic=True)
    num_rs = numeric_wirtinger(lambda v: r(v) * s(v), w, _SUITE_STEP)
    num_r = numeric_wirtinger(r, w, _SUITE_STEP)
    num_s = numeric_wirtinger(s, w, _SUITE_STEP)
    expected = num_r.d_z * s(w) + num_s.d_z * r(w)
    return _norm_err(num_rs.d_z, expected)
