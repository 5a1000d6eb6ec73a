"""Snapshots: a filter stopped mid-stream, pickled and restored finishes the stream bit for bit."""

import copy
import pickle

import numpy as np
import pytest

from ckaf import CklmsFilter, ComplexNlms, NoveltyCriterion, RealKernel

STOP = 250

FILTERS = {
    "gaussian": lambda: CklmsFilter(RealKernel.gaussian(1.0), mu=0.5),
    "gaussian-novelty": lambda: CklmsFilter(RealKernel.gaussian(1.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2)),
    "polynomial": lambda: CklmsFilter(RealKernel.polynomial(2), mu=0.5),
    "polynomial-novelty": lambda: CklmsFilter(RealKernel.polynomial(2), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2)),
    "nclms": lambda: ComplexNlms(3, mu=0.4),
    "wl-nclms": lambda: ComplexNlms(3, mu=0.4, widely_linear=True),
}

RESTORES = {
    "pickle": lambda f: pickle.loads(pickle.dumps(f)),
    "deepcopy": copy.deepcopy,
}


def _stream(n=600):
    rng = np.random.default_rng(30)
    zs = 0.5 * (rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3)))
    noise = 0.05 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    return zs, np.tanh(zs[:, 0].real) + 1j * zs[:, 1].imag * zs[:, 2].real + noise


def _outputs(f, zs, ds):
    """(errors, admitted) of a CKLMS run, or (errors,) of NLMS updates, which are what move its weights."""
    if isinstance(f, CklmsFilter):
        return tuple(f.run(zs, ds))
    return (np.array([f.update(z, d)[1] for z, d in zip(zs, ds)]),)


def _state(f):
    if isinstance(f, CklmsFilter):
        return f.centers, f.coeffs
    return (f.h,) if f.g is None else (f.h, f.g)


@pytest.mark.parametrize("restore", RESTORES.values(), ids=RESTORES.keys())
@pytest.mark.parametrize("make", FILTERS.values(), ids=FILTERS.keys())
def test_restored_filter_finishes_stream_bit_for_bit(make, restore):
    zs, ds = _stream()
    unstopped = make()
    whole = _outputs(unstopped, zs, ds)

    stopped = make()
    first = _outputs(stopped, zs[:STOP], ds[:STOP])
    if isinstance(stopped, CklmsFilter):
        assert stopped.dictionary_size > 16  # the center store has doubled once
    restored = restore(stopped)
    del stopped
    second = _outputs(restored, zs[STOP:], ds[STOP:])

    for full, head, tail in zip(whole, first, second, strict=True):
        assert np.array_equal(np.concatenate([head, tail]), full)
    for got, want in zip(_state(restored), _state(unstopped), strict=True):
        assert np.array_equal(got, want)
    if isinstance(restored, CklmsFilter):
        assert restored.dictionary_size > 32  # and doubles again after the restore
        if restored.novelty.delta1:
            assert 0 < second[1].sum() < len(second[1])  # both admissions and rejections
