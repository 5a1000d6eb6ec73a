"""One-step identities: e+ = d - y+(z), the error at a sample after the filter stepped on it, against its error e.

- NCKLMS, any kernel: e+ = (1 - mu) e when z is admitted, and e+ = e when it is rejected.
- CKLMS without normalization: e+ = (1 - 2 mu kappa(z, z)) e when z is admitted.
- NCLMS: e+ = (1 - mu p / (p + 1e-8)) e with p = ||x||^2; WL-NCLMS takes p = 2 ||x||^2.

They check each recursion on its own terms, apart from any reference implementation.
"""

import numpy as np
import pytest

from ckaf.cklms import CklmsFilter, NoveltyCriterion
from ckaf.kernels import RealKernel, kernel_eval
from ckaf.linear import ComplexNlms

KERNELS = {"gaussian": RealKernel.gaussian(1.0), "polynomial": RealKernel.polynomial(2)}


def _stream(seed, n=400, dim=3):
    rng = np.random.default_rng(seed)
    zs = 0.5 * (rng.standard_normal((n, dim)) + 1j * rng.standard_normal((n, dim)))
    return zs, np.tanh(zs[:, 0].real) + 1j * zs[:, 1].imag * zs[:, 2].real


@pytest.mark.parametrize("normalized", [True, False], ids=["ncklms", "cklms"])
@pytest.mark.parametrize("kernel", KERNELS.values(), ids=KERNELS.keys())
def test_kernel_filter_step_scales_its_own_error(kernel, normalized):
    mu = 0.5 if normalized else 0.05
    f = CklmsFilter(kernel, mu, normalized, NoveltyCriterion(0.15, 0.2))
    admitted = 0
    zs, ds = _stream(16)
    for z, d in zip(zs, ds):
        _, e, ok = f.step(z, d)
        after = d - f.predict(z)
        if ok:
            admitted += 1
            factor = 1.0 - mu if normalized else 1.0 - 2.0 * mu * kernel_eval(kernel, z, z)
            assert abs(after - factor * e) <= 1e-12 * abs(e)
        else:
            assert after == e  # no update, so the very same prediction
    assert 0 < admitted < len(zs)  # both gates fired


@pytest.mark.parametrize("widely_linear", [False, True], ids=["nclms", "wl-nclms"])
def test_linear_filter_step_scales_its_own_error(widely_linear):
    mu = 0.4
    f = ComplexNlms(3, mu, widely_linear=widely_linear)
    zs, ds = _stream(17)
    for x, d in zip(zs, ds):
        _, e = f.update(x, d)
        after = d - np.vdot(f.h, x) - (np.vdot(f.g, x.conj()) if widely_linear else 0.0)
        p = (2.0 if widely_linear else 1.0) * np.vdot(x, x).real
        assert abs(after - (1.0 - mu * p / (p + 1e-8)) * e) <= 1e-12 * abs(e)
