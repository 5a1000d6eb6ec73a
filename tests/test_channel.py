"""Channel benchmark tests: source statistics, channel arithmetic,
dataset construction, and the Monte-Carlo harness."""

import math

import numpy as np
import pytest

from ckaf.channel import (
    ChannelConfig,
    build_dataset,
    generate_source,
    run_channel,
    run_experiment,
)
from ckaf.cklms import NoveltyCriterion
from ckaf.linear import ComplexNlms

RHO_CIRCULAR = math.sqrt(2.0) / 2.0


class TestSource:
    def test_rho_zero_is_purely_real(self):
        s = generate_source(1000, rho=0.0, seed=0)
        assert np.max(np.abs(s.imag)) == 0.0
        # scaled standard normal: 0.70 * X
        assert np.std(s.real) == pytest.approx(0.70, rel=0.1)

    def test_circular_pseudo_covariance_vanishes(self):
        s = generate_source(100000, rho=RHO_CIRCULAR, seed=0)
        assert abs(np.mean(s**2)) < 0.01

    def test_non_circular_pseudo_covariance_ratio(self):
        s = generate_source(100000, rho=0.1, seed=0)
        assert abs(np.mean(s**2)) / np.mean(np.abs(s) ** 2) > 0.9

    def test_power_matches_amplitude(self):
        # E|s|^2 = amplitude^2 regardless of rho; 3 standard errors of slack
        n = 100000
        for rho in (0.0, 0.3, RHO_CIRCULAR, 1.0):
            s = generate_source(n, rho=rho, amplitude=0.70, seed=1)
            power = np.mean(np.abs(s) ** 2)
            se = np.std(np.abs(s) ** 2) / math.sqrt(n)
            assert abs(power - 0.49) < 3 * se

    def test_deterministic_under_seed(self):
        a = generate_source(500, rho=0.4, seed=42)
        b = generate_source(500, rho=0.4, seed=42)
        np.testing.assert_array_equal(a, b)

    def test_invalid_rho(self):
        with pytest.raises(ValueError):
            generate_source(10, rho=1.5)
        with pytest.raises(ValueError):
            generate_source(10, rho=-0.1)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            generate_source(0, rho=0.5)


class TestChannel:
    def test_linear_tap_on_unit_impulse(self):
        cfg = ChannelConfig(snr_db=math.inf)
        s = np.array([1.0 + 0j, 0j])
        r = run_channel(cfg, s)
        # second sample: t = h1 * s(0), then the memoryless cubic
        t1 = cfg.h1
        assert r[1] == pytest.approx(t1 + cfg.c2 * t1**2 + cfg.c3 * t1**3, rel=1e-12)

    def test_nonlinearity_hand_value(self):
        # t(0) = h0 = -0.9+0.8i; q = t + c2 t^2 + c3 t^3 = -0.67866+0.81737i
        cfg = ChannelConfig(snr_db=math.inf)
        r = run_channel(cfg, [1.0 + 0j])
        assert r[0] == pytest.approx(-0.67866 + 0.81737j, abs=1e-9)

    def test_zero_input_noiseless(self):
        cfg = ChannelConfig(snr_db=math.inf)
        np.testing.assert_array_equal(run_channel(cfg, np.zeros(16, dtype=complex)), np.zeros(16))

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            run_channel(ChannelConfig(), [])

    def test_snr_calibration(self):
        cfg = ChannelConfig(snr_db=15.0)
        s = generate_source(100000, rho=RHO_CIRCULAR, seed=3)
        q = run_channel(ChannelConfig(snr_db=math.inf), s)
        r = run_channel(cfg, s, seed=4)
        measured = 10.0 * np.log10(np.mean(np.abs(q) ** 2) / np.mean(np.abs(r - q) ** 2))
        assert abs(measured - 15.0) < 0.2

    def test_noise_deterministic_under_seed(self):
        cfg = ChannelConfig(snr_db=10.0)
        s = generate_source(100, rho=0.5, seed=5)
        np.testing.assert_array_equal(run_channel(cfg, s, seed=6), run_channel(cfg, s, seed=6))

    def test_invalid_rho_in_config(self):
        with pytest.raises(ValueError):
            ChannelConfig(rho=2.0)

    @pytest.mark.parametrize("snr_db", [-math.inf, -4000.0, math.nan], ids=["minus-inf", "overflow", "nan"])
    def test_snr_without_finite_noise_power_rejected(self, snr_db):
        # -inf used to run noiseless like +inf, and -4000 dB overflowed in run_channel
        with pytest.raises(ValueError, match="snr_db"):
            ChannelConfig(snr_db=snr_db)

    def test_lowest_snrs_with_finite_noise_power_accepted(self):
        s = generate_source(50, rho=0.5, seed=5)
        assert np.isfinite(run_channel(ChannelConfig(snr_db=-3000.0), s, seed=6)).all()
        ChannelConfig(snr_db=-3082.0)


class TestDataset:
    def test_degenerate_window(self):
        r = np.arange(5, dtype=complex)
        s = np.arange(5, dtype=complex) * 1j
        ds = build_dataset(r, s, L=0, D=0)
        assert len(ds) == 5
        np.testing.assert_array_equal(ds.inputs[:, 0], r)
        np.testing.assert_array_equal(ds.targets, s)

    def test_window_shape_and_alignment(self):
        r = np.arange(10, dtype=complex)
        s = np.arange(10, dtype=complex)
        ds = build_dataset(r, s, L=5, D=2)
        assert ds.inputs.shape == (8, 6)  # truncated so r(n+D) exists
        # inputs[n] = (r(n+2), r(n+1), ..., r(n-3))
        np.testing.assert_array_equal(ds.inputs[5], [7, 6, 5, 4, 3, 2])

    def test_boundary_zero_fill(self):
        r = np.arange(1, 11, dtype=complex)
        s = np.arange(10, dtype=complex)
        ds = build_dataset(r, s, L=5, D=2)
        # n=1: indices r(3)...r(-2); negative indices are zero
        np.testing.assert_array_equal(ds.inputs[1], [r[3], r[2], r[1], r[0], 0, 0])

    def test_empty_result_rejected(self):
        with pytest.raises(ValueError):
            build_dataset(np.ones(3, dtype=complex), np.ones(3, dtype=complex), L=1, D=5)

    def test_negative_parameters_rejected(self):
        r = np.ones(10, dtype=complex)
        with pytest.raises(ValueError):
            build_dataset(r, r, L=-1, D=0)
        with pytest.raises(ValueError):
            build_dataset(r, r, L=0, D=-2)


class TestExperiment:
    def test_zero_step_never_learns(self):
        # nclms with mu = 0: prediction stays 0, mse(n) = |s(n)|^2
        cfg = ChannelConfig()
        curves = run_experiment(["nclms"], cfg, n_samples=200, runs=1, mu={"nclms": 0.0}, seed=9)
        rs = np.random.SeedSequence(9).spawn(1)[0].spawn(2)[0]
        s = generate_source(200, cfg.rho, cfg.amplitude, seed=rs)
        n = curves["nclms"].mse.size
        np.testing.assert_allclose(curves["nclms"].mse, np.abs(s[:n]) ** 2, rtol=1e-12)

    def test_deterministic_bit_exact(self):
        cfg = ChannelConfig()
        kwargs = dict(n_samples=300, runs=2, seed=123)
        a = run_experiment(["cklms", "nclms"], cfg, **kwargs)
        b = run_experiment(["cklms", "nclms"], cfg, **kwargs)
        for name in a:
            np.testing.assert_array_equal(a[name].mse, b[name].mse)
            np.testing.assert_array_equal(a[name].dict_size, b[name].dict_size)

    def test_curve_lengths_and_db(self):
        curves = run_experiment(["cklms", "nclms", "wl-nclms"], ChannelConfig(), n_samples=200, runs=2, seed=0)
        expected_len = 200 - 2  # delay truncation
        for c in curves.values():
            assert c.mse.size == expected_len
            assert c.dict_size.size == expected_len
            assert np.all(c.mse >= 0)
            np.testing.assert_allclose(c.mse_db, 10 * np.log10(c.mse), rtol=1e-12)

    def test_dict_size_zero_for_linear_nondecreasing_for_kernel(self):
        curves = run_experiment(["cklms", "nclms"], ChannelConfig(), n_samples=300, runs=2, seed=1)
        assert np.all(curves["nclms"].dict_size == 0)
        assert np.all(np.diff(curves["cklms"].dict_size) >= 0)

    def test_divergent_run_aborts_with_diagnostic(self):
        # NLMS is unstable for mu > 2; the harness must flag the blow-up
        with pytest.raises(RuntimeError, match="non-finite error at step"):
            run_experiment(["nclms"], ChannelConfig(), n_samples=3000, runs=1, mu={"nclms": 10.0}, seed=2)

    def test_divergence_names_first_nonfinite_squared_error(self):
        cfg = ChannelConfig()
        source_seed, noise_seed = np.random.SeedSequence(2).spawn(1)[0].spawn(2)
        s = generate_source(3000, cfg.rho, cfg.amplitude, seed=source_seed)
        ds = build_dataset(run_channel(cfg, s, seed=noise_seed), s, L=5, D=2)
        f = ComplexNlms(6, mu=10.0, widely_linear=True)
        for step, (x, d) in enumerate(zip(ds.inputs, ds.targets)):
            e = f.update(x, d)[1]
            if not math.isfinite(e.real * e.real + e.imag * e.imag):
                break
        else:
            pytest.fail("the reference loop did not diverge")
        message = f"wl-nclms diverged: non-finite error at step {step} of run 0"
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            run_experiment(["wl-nclms"], cfg, n_samples=3000, runs=1, mu={"wl-nclms": 10.0}, seed=2)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            run_experiment(["rls"], ChannelConfig(), n_samples=50, runs=1)

    @pytest.mark.parametrize("smooth", [0, -3])
    def test_nonpositive_smoothing_window_rejected(self, smooth):
        with pytest.raises(ValueError, match="smooth"):
            run_experiment(["nclms"], ChannelConfig(), n_samples=50, runs=1, smooth=smooth)

    def test_smoothing_preserves_length_and_mean(self):
        cfg = ChannelConfig()
        raw = run_experiment(["nclms"], cfg, n_samples=200, runs=1, seed=3, smooth=1)
        smoothed = run_experiment(["nclms"], cfg, n_samples=200, runs=1, seed=3, smooth=25)
        assert smoothed["nclms"].mse.size == raw["nclms"].mse.size
        # trailing average: value at n is the mean of the last <=25 raw points
        n = 100
        np.testing.assert_allclose(
            smoothed["nclms"].mse[n], raw["nclms"].mse[n - 24 : n + 1].mean(), rtol=1e-12
        )

    def test_novelty_disabled_grows_every_step(self):
        curves = run_experiment(["cklms"], ChannelConfig(), n_samples=80, runs=1, novelty=None, seed=4)
        assert curves["cklms"].dict_size[-1] == len(curves["cklms"].mse)


def test_benchmark_stability_smoke():
    """5000 benchmark steps at the default hyperparameters: every
    prediction and coefficient stays finite."""
    from ckaf.cklms import CklmsFilter
    from ckaf.kernels import RealKernel

    cfg = ChannelConfig()
    s = generate_source(5000, cfg.rho, cfg.amplitude, seed=11)
    r = run_channel(cfg, s, seed=12)
    ds = build_dataset(r, s, L=5, D=2)
    f = CklmsFilter(RealKernel.gaussian(5.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
    for i in range(len(ds)):
        res = f.step(ds.inputs[i], ds.targets[i])
        assert np.isfinite(res.prediction.real) and np.isfinite(res.prediction.imag)
    assert np.all(np.isfinite(f.coeffs))
