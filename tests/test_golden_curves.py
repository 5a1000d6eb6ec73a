"""Golden learning curves: three small experiments against curves committed in golden_curves.json.

Every dictionary size must match exactly, and every EVERY-th MSE value to a relative RTOL. Curves are
byte-identical only on one machine and BLAS kernel; across OpenBLAS kernels they differ by about 4e-14,
which RTOL leaves room for. A change that means to change the curves regenerates the file and says so:

    PYTHONPATH=src python tests/test_golden_curves.py
"""

import json
from pathlib import Path

import numpy as np
import pytest

from ckaf.channel import ALGORITHMS, DEFAULT_MU, ChannelConfig, run_experiment
from ckaf.kernels import RealKernel

GOLDEN = Path(__file__).with_name("golden_curves.json")
EVERY = 25
RTOL = 1e-10

CONFIGS = {
    "defaults": dict(n_samples=1500, runs=3),
    "rho-0.1": dict(cfg=ChannelConfig(rho=0.1), n_samples=600, runs=13, seed=3),  # two banks
    "polynomial-2": dict(kernel=RealKernel.polynomial(2), n_samples=1500, runs=3),
}


def _curves(config, algorithms=ALGORITHMS, mu=None):
    kwargs = dict(CONFIGS[config])
    return run_experiment(algorithms, kwargs.pop("cfg", ChannelConfig()), mu=mu, **kwargs)


def _summary(config, curves):
    """The checked values of one experiment: each EVERY-th MSE, and the dictionary sizes summed over runs
    where they are not all 0."""
    runs = CONFIGS[config]["runs"]
    out = {}
    for name, curve in curves.items():
        out[f"{config}/{name}/mse"] = curve.mse[::EVERY].tolist()
        if curve.dict_size.any():  # a linear filter's sizes are all 0
            out[f"{config}/{name}/dict_total"] = np.rint(curve.dict_size * runs).astype(int).tolist()
    return out


def _check(config, curves, golden):
    runs = CONFIGS[config]["runs"]
    for name, curve in curves.items():
        totals = np.array(golden.get(f"{config}/{name}/dict_total", np.zeros(curve.dict_size.size)), dtype=float)
        # a mean of integer sizes is exactly their sum over runs, divided by runs
        assert np.array_equal(curve.dict_size, totals / runs), f"{config}/{name}: dictionary sizes differ"
        np.testing.assert_allclose(curve.mse[::EVERY], golden[f"{config}/{name}/mse"], rtol=RTOL, atol=0)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("config", CONFIGS)
def test_curves_match_the_golden_file(config, golden):
    _check(config, _curves(config), golden)


@pytest.mark.parametrize("name", ALGORITHMS)
def test_a_step_size_change_of_1e_8_fails_the_check(name, golden):
    curves = _curves("defaults", [name], {name: DEFAULT_MU[name] * (1 + 1e-8)})
    with pytest.raises(AssertionError):
        _check("defaults", curves, golden)


if __name__ == "__main__":
    summary = {key: values for config in CONFIGS for key, values in _summary(config, _curves(config)).items()}
    # one key per line, so that a regenerated file diffs by curve
    lines = [f"{json.dumps(key)}: {json.dumps(values)}" for key, values in summary.items()]
    GOLDEN.write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")
    print(f"wrote {GOLDEN}")
