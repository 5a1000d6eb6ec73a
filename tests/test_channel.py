"""Channel benchmark tests: source statistics, channel arithmetic,
dataset construction, and the Monte-Carlo harness."""

import concurrent.futures
import math
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from conftest import process_ended

import ckaf
from ckaf.channel import (
    ALGORITHMS,
    ChannelConfig,
    build_dataset,
    generate_source,
    run_channel,
    run_experiment,
)
from ckaf.cklms import CklmsFilter, NoveltyCriterion
from ckaf.kernels import RealKernel
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

    @pytest.mark.parametrize("amplitude", [math.inf, math.nan], ids=["inf", "nan"])
    def test_non_finite_amplitude_rejected(self, amplitude):
        with pytest.raises(ValueError, match="amplitude"):
            generate_source(10, rho=0.5, amplitude=amplitude)


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

    @pytest.mark.parametrize(
        ("snr_db", "s"),
        [
            (15.0, [1e200 + 0j, 1.0]),  # t**2 overflows
            (15.0, [complex(math.nan), 1.0]),
            (15.0, [complex(math.inf), 1.0]),
            (15.0, [1e60 + 0j, 1.0]),  # q is finite, |q|^2 is not
            (-3080.0, [2.0, 2.0]),  # the noise power overflows
        ],
        ids=["output-overflow", "nan", "inf", "power-overflow", "noise-overflow"],
    )
    def test_non_finite_source_output_or_noise_power_rejected_without_a_warning(self, snr_db, s):
        # the first three returned [nan+nanj, nan+nanj] with RuntimeWarnings only
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not finite|overflows"):
                run_channel(ChannelConfig(snr_db=snr_db), s, seed=0)

    def test_noiseless_channel_takes_an_output_too_large_to_square(self):
        assert np.isfinite(run_channel(ChannelConfig(snr_db=math.inf), [1e60 + 0j, 1.0])).all()

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
        # an empty list would return no curves, which emit_csv refuses
        for algorithms in (["rls"], []):
            with pytest.raises(ValueError, match="unknown"):
                run_experiment(algorithms, ChannelConfig(), n_samples=50, runs=1)

    def test_misspelled_mu_key_rejected(self):
        with pytest.raises(ValueError, match="unknown.*'nclm'"):
            run_experiment(["nclms"], ChannelConfig(), n_samples=50, runs=1, mu={"nclm": 5.0})

    def test_mu_for_an_algorithm_not_run_is_accepted(self):
        # the CLI passes a step for all three algorithms whichever it runs
        mu = {"cklms": 0.25, "nclms": 0.0, "wl-nclms": 0.125}
        curves = run_experiment(["nclms"], ChannelConfig(), n_samples=50, runs=1, mu=mu)
        assert list(curves) == ["nclms"]

    def test_repeated_algorithm_rejected(self):
        # a repeated name used to add its squared errors into one curve twice
        with pytest.raises(ValueError, match="repeated"):
            run_experiment(["nclms", "cklms", "nclms"], ChannelConfig(), n_samples=50, runs=1)

    @pytest.mark.parametrize("smooth", [0, -3])
    def test_nonpositive_smoothing_window_rejected(self, smooth):
        with pytest.raises(ValueError, match="smooth"):
            run_experiment(["nclms"], ChannelConfig(), n_samples=50, runs=1, smooth=smooth)

    @pytest.mark.parametrize(
        "kwargs",
        [{"smooth": 2.5}, {"runs": 2.5}, {"runs": "3"}, {"n_samples": 40.0}, {"D": 1.5}, {"L": 2.0}],
        ids=repr,
    )
    def test_non_integer_counts_rejected(self, kwargs):
        # each used to crash inside numpy with an IndexError or a TypeError
        with pytest.raises(ValueError, match="integer"):
            run_experiment(["nclms"], ChannelConfig(), **{"n_samples": 50, "runs": 1, **kwargs})

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
        curves = run_experiment(["cklms"], ChannelConfig(), n_samples=80, runs=1, novelty=NoveltyCriterion(0, 0), seed=4)
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


def test_stacked_dataset_equals_per_stream_datasets_with_unit_stride_windows():
    rng = np.random.default_rng(40)
    r = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    s = rng.standard_normal((3, 12)) + 1j * rng.standard_normal((3, 12))
    stacked = build_dataset(r, s, L=4, D=2)
    assert len(stacked) == 10
    for j in range(3):
        single = build_dataset(r[j], s[j], L=4, D=2)
        np.testing.assert_array_equal(stacked.inputs[j], single.inputs)
        np.testing.assert_array_equal(stacked.targets[j], single.targets)
        # the linear filters sum a window as np.vdot does only when its taps are adjacent in memory
        assert single.inputs.strides[-1] == 16 and not single.inputs.flags.writeable
    assert stacked.inputs.strides[-1] == 16
    with pytest.raises(ValueError, match="shape"):
        build_dataset(r, s[:2], L=4, D=2)


def test_dataset_targets_alias_a_complex_source_and_inputs_are_read_only():
    r = np.arange(8, dtype=complex)
    s = np.arange(8, dtype=complex) * 1j
    ds = build_dataset(r, s, L=2, D=1)
    # targets views s, not a copy: a later write into s shows in the dataset
    assert np.shares_memory(ds.targets, s) and ds.targets.flags.writeable
    s[0] = 99.0
    assert ds.targets[0] == 99.0
    # a real s is converted, so the dataset holds its own complex copy
    s_real = np.arange(8.0)
    assert not np.shares_memory(build_dataset(r, s_real, L=2, D=1).targets, s_real)
    with pytest.raises(ValueError, match="read-only"):
        ds.inputs[0, 0] = 1.0


def _per_run_curves(cfg, algorithms, n_samples, runs, seed):
    """Squared errors and dictionary sizes summed run by run over step/update loops."""
    sum_err = {name: 0.0 for name in algorithms}
    sum_size = {name: 0.0 for name in algorithms}
    for run_seed in np.random.SeedSequence(seed).spawn(runs):
        source_seed, noise_seed = run_seed.spawn(2)
        s = generate_source(n_samples, cfg.rho, cfg.amplitude, seed=source_seed)
        ds = build_dataset(run_channel(cfg, s, seed=noise_seed), s, L=5, D=2)
        for name in algorithms:
            if name == "cklms":
                f = CklmsFilter(RealKernel.gaussian(5.0), mu=0.5, novelty=NoveltyCriterion(0.15, 0.2))
                steps = [f.step(x, d) for x, d in zip(ds.inputs, ds.targets)]
                errors = np.array([step.error for step in steps])
                sizes = np.cumsum([step.admitted for step in steps], dtype=float)
            else:
                f = ComplexNlms(6, mu=1.0 / 16.0, widely_linear=name == "wl-nclms")
                errors = np.array([f.update(x, d)[1] for x, d in zip(ds.inputs, ds.targets)])
                sizes = np.zeros(len(ds))
            sum_err[name] = sum_err[name] + (errors.real * errors.real + errors.imag * errors.imag)
            sum_size[name] = sum_size[name] + sizes
    return sum_err, sum_size


def test_experiment_over_banks_equals_per_run_loops():
    algorithms = ("cklms", "nclms", "wl-nclms")
    cfg = ChannelConfig()
    curves = run_experiment(algorithms, cfg, n_samples=300, runs=13, seed=6)
    sum_err, sum_size = _per_run_curves(cfg, algorithms, 300, 13, 6)
    for name in algorithms:
        assert np.array_equal(curves[name].mse, sum_err[name] / 13)
        assert np.array_equal(curves[name].dict_size, sum_size[name] / 13)


def test_divergence_past_the_first_bank_names_the_run_of_the_per_run_loop():
    # mu = 2.5 lies outside the NLMS stability range; at this length only some runs blow up in time
    cfg = ChannelConfig()
    for run, run_seed in enumerate(np.random.SeedSequence(3).spawn(13)):
        source_seed, noise_seed = run_seed.spawn(2)
        s = generate_source(2700, cfg.rho, cfg.amplitude, seed=source_seed)
        ds = build_dataset(run_channel(cfg, s, seed=noise_seed), s, L=5, D=2)
        f = ComplexNlms(6, mu=2.5)
        errors = (f.update(x, d)[1] for x, d in zip(ds.inputs, ds.targets))
        step = next((i for i, e in enumerate(errors) if not math.isfinite(e.real * e.real + e.imag * e.imag)), None)
        if step is not None:
            break
    else:
        pytest.fail("no run diverged")
    assert run >= 10  # past the first bank of runs
    message = f"nclms diverged: non-finite error at step {step} of run {run}"
    with pytest.raises(RuntimeError, match=f"^{message}$"):
        run_experiment(["nclms"], cfg, n_samples=2700, runs=13, mu={"nclms": 2.5}, seed=3)


needs_fork = pytest.mark.skipif(not hasattr(os, "fork"), reason="the CKLMS streams fan out only where fork exists")


@needs_fork
def test_pooled_cklms_streams_equal_the_one_core_path(usable_cores):
    algorithms = ("cklms", "nclms", "wl-nclms")
    curves, pools = {}, {}
    for cores in (2, 1):
        built = usable_cores(cores)
        curves[cores] = run_experiment(algorithms, ChannelConfig(), n_samples=300, runs=13, seed=6)
        pools[cores] = list(built)
    # one pool serves the bank of 10 runs and the bank of 3; none with one usable core
    assert pools == {2: [2], 1: []}
    for name in algorithms:
        assert np.array_equal(curves[2][name].mse, curves[1][name].mse)
        assert np.array_equal(curves[2][name].dict_size, curves[1][name].dict_size)
    # a linear-only experiment builds no pool, so its runs stay in this process
    built = usable_cores(2)
    run_experiment(("nclms", "wl-nclms"), ChannelConfig(), n_samples=300, runs=13, seed=6)
    assert built == []


@needs_fork
def test_cklms_tasks_need_nothing_inherited_at_the_fork(usable_cores, monkeypatch):
    # a spawned worker starts a fresh interpreter, so a task that read state copied at a fork would fail or differ
    get_context = multiprocessing.get_context
    monkeypatch.setattr(multiprocessing, "get_context", lambda method=None: get_context("spawn"))
    curves = {}
    for cores in (2, 1):
        built = usable_cores(cores)
        curves[cores] = run_experiment(["cklms"], ChannelConfig(), n_samples=200, runs=2, seed=4)["cklms"]
        assert built == ([2] if cores > 1 else [])
    assert np.array_equal(curves[2].mse, curves[1].mse)
    assert np.array_equal(curves[2].dict_size, curves[1].dict_size)


@needs_fork
def test_without_an_affinity_call_the_cpu_count_bounds_the_workers(usable_cores, monkeypatch):
    built = usable_cores(1)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    for cpu_count, pools in ((3, [2]), (None, [])):  # never more workers than the bank's 2 streams
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        run_experiment(["cklms"], ChannelConfig(), n_samples=40, runs=2)
        assert built == pools
        built.clear()


@needs_fork
def test_a_daemonic_worker_runs_its_streams_itself(usable_cores):
    # a daemonic process may not fork, so run_experiment inside another pool's worker takes the one-core path
    usable_cores(2)
    kwargs = dict(n_samples=40, runs=2, seed=5)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        curves = pool.apply_async(run_experiment, (["cklms"], ChannelConfig()), kwargs).get(timeout=120)
    expected = run_experiment(["cklms"], ChannelConfig(), **kwargs)
    assert np.array_equal(curves["cklms"].mse, expected["cklms"].mse)


def test_experiments_in_concurrent_threads_keep_their_own_streams(usable_cores):
    usable_cores(1)  # forking a process that runs several threads is unsafe; the streams run in each thread
    seeds = (1, 2)
    expected = {seed: run_experiment(["cklms"], ChannelConfig(), n_samples=200, runs=3, seed=seed) for seed in seeds}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [
                (seed, pool.submit(run_experiment, ["cklms"], ChannelConfig(), n_samples=200, runs=3, seed=seed))
                for seed in seeds * 3
            ]
            results = [(seed, future.result(timeout=120)) for seed, future in futures]
    finally:
        sys.setswitchinterval(interval)
    for seed, curves in results:
        assert np.array_equal(curves["cklms"].mse, expected[seed]["cklms"].mse)


@needs_fork
def test_cklms_divergence_in_a_pooled_bank_names_the_run_of_the_per_run_loop(usable_cores):
    # at mu = 10 every run blows up near step 300; at this length runs 2 and 3 do, run 3 at an earlier step
    cfg = ChannelConfig()
    for run, run_seed in enumerate(np.random.SeedSequence(1).spawn(4)):
        source_seed, noise_seed = run_seed.spawn(2)
        s = generate_source(290, cfg.rho, cfg.amplitude, seed=source_seed)
        ds = build_dataset(run_channel(cfg, s, seed=noise_seed), s, L=5, D=2)
        f = CklmsFilter(RealKernel.gaussian(5.0), mu=10.0, novelty=NoveltyCriterion(0.15, 0.2))
        errors = (f.step(x, d).error for x, d in zip(ds.inputs, ds.targets))
        step = next((i for i, e in enumerate(errors) if not math.isfinite(e.real * e.real + e.imag * e.imag)), None)
        if step is not None:
            break
    else:
        pytest.fail("no run diverged")
    assert run > 0
    message = f"cklms diverged: non-finite error at step {step} of run {run}"
    for cores in (2, 1):
        built = usable_cores(cores)
        with pytest.raises(RuntimeError, match=f"^{message}$"):
            run_experiment(["cklms"], cfg, n_samples=290, runs=4, mu={"cklms": 10.0}, seed=1)
        assert len(built) == (cores > 1)


def test_divergence_names_the_lowest_run_then_the_first_requested_algorithm(usable_cores):
    # at mu = 10 in one bank of 4 runs, nclms and wl-nclms blow up in run 0, nclms at the earlier step;
    # cklms first does in run 2 (the pooled-bank test above derives its step). Two cores pool the CKLMS
    # runs, whose results are taken after the linear filters step; one core runs them in this process.
    mu = dict.fromkeys(("cklms", "nclms", "wl-nclms"), 10.0)
    expected = {
        ("cklms", "nclms"): "nclms diverged: non-finite error at step 233 of run 0",
        ("wl-nclms", "nclms"): "wl-nclms diverged: non-finite error at step 258 of run 0",
        ("nclms", "wl-nclms"): "nclms diverged: non-finite error at step 233 of run 0",
    }
    for cores in (2, 1):
        usable_cores(cores)
        for algorithms, message in expected.items():
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                run_experiment(algorithms, ChannelConfig(), n_samples=290, runs=4, mu=mu, seed=1)


def test_divergence_in_one_run_names_the_first_requested_algorithm_not_the_first_stepped(usable_cores):
    # at cklms mu = 12 and nclms mu = 10 both blow up first in run 0: nclms at step 233 (see above),
    # cklms at step 271 (derived as in the pooled-bank test), though nclms steps first
    mu = {"cklms": 12.0, "nclms": 10.0}
    expected = {
        ("cklms", "nclms"): "cklms diverged: non-finite error at step 271 of run 0",
        ("nclms", "cklms"): "nclms diverged: non-finite error at step 233 of run 0",
    }
    for cores in (2, 1):
        usable_cores(cores)
        for algorithms, message in expected.items():
            with pytest.raises(RuntimeError, match=f"^{message}$"):
                run_experiment(algorithms, ChannelConfig(), n_samples=290, runs=4, mu=mu, seed=1)


@needs_fork
def test_each_bank_queues_its_cklms_tasks_before_its_linear_filters_step(usable_cores, monkeypatch):
    built = usable_cores(2)
    events = []

    # a subclass of the fixture's counting executor, so `built` shows that this one ran the tasks
    class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
        def map(self, fn, runs):
            events.append(("queued", len(runs)))
            results = super().map(fn, runs)

            def taken():
                for result in results:
                    events.append(("taken", 1))
                    yield result

            return taken()

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    linear_run = ComplexNlms.run

    def recorded_run(self, inputs, targets):
        events.append(("linear", len(inputs)))
        return linear_run(self, inputs, targets)

    monkeypatch.setattr(ComplexNlms, "run", recorded_run)
    run_experiment(ALGORITHMS, ChannelConfig(), n_samples=200, runs=13, seed=6)
    assert built == [2]
    bank = lambda size: [("queued", size), ("linear", size), ("linear", size), *[("taken", 1)] * size]
    assert events == bank(10) + bank(3)
    # the workers run a bank's tasks while its linear filters step, and only one bank is ever outstanding
    outstanding = np.cumsum([n if kind == "queued" else -n for kind, n in events if kind != "linear"])
    assert outstanding.max() == 10 and outstanding[-1] == 0


def test_experiment_memory_does_not_grow_with_runs():
    algorithms = ("nclms", "wl-nclms")
    run_experiment(algorithms, ChannelConfig(), n_samples=50, runs=2)  # first-call allocations
    peaks = {}
    for runs in (10, 40):
        tracemalloc.start()
        try:
            run_experiment(algorithms, ChannelConfig(), n_samples=2000, runs=runs)
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert abs(peaks[40] - peaks[10]) <= 0.1 * peaks[10]


@needs_fork
def test_leaving_the_pool_after_a_divergence_cancels_its_queued_runs(usable_cores, monkeypatch):
    # runs 1 to 3 may still be queued when cklms diverges in run 0: those no worker has taken are
    # cancelled, and leaving waits only for the running ones
    built = usable_cores(2)
    calls = []

    class RecordingExecutor(concurrent.futures.ProcessPoolExecutor):
        def shutdown(self, *args, **kwargs):
            calls.append((args, kwargs))
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    with pytest.raises(RuntimeError, match="^cklms diverged: non-finite error at step 271 of run 0$"):
        run_experiment(["cklms"], ChannelConfig(), n_samples=290, runs=4, mu={"cklms": 12.0}, seed=1)
    assert built == [2]
    assert calls == [((), {"cancel_futures": True})]


@needs_fork
def test_a_killed_worker_ends_the_experiment(tmp_path):
    # the task of run 1 kills its own worker, whose result then never comes; the parent must not wait for it
    script = f"""
import os, signal, sys
from ckaf import channel, cli

os.sched_getaffinity = lambda pid: {{0, 1}}  # two usable cores, so the CKLMS runs go to a pool
run_cklms = channel._cklms_run

def killed_in_run_1(*args):
    if args[-1] == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return run_cklms(*args)

channel._cklms_run = killed_in_run_1
try:
    channel.run_experiment(["cklms"], channel.ChannelConfig(), n_samples=200, runs=4)
except RuntimeError as exc:
    print(type(exc).__name__)
argv = ["equalize", "--algorithm", "cklms", "--runs", "4", "--samples", "200", "--output", {str(tmp_path / "c.csv")!r}]
sys.exit(cli.main(argv))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(ckaf.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert proc.stdout == "BrokenProcessPool\n"
    assert proc.returncode == 1
    assert proc.stderr.startswith("experiment failed: ")
    assert not (tmp_path / "c.csv").exists()


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states under /proc")
@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_a_killed_experiment_takes_its_workers_with_it(signum):
    # each worker prints its pid as it takes a run, and the parent dies once both are in a run of the first bank;
    # a worker that outlived it would run on through the queued runs, then wait for tasks that never come
    script = """
import os
from ckaf import channel

os.sched_getaffinity = lambda pid: {0, 1}  # two usable cores, so the CKLMS runs go to a pool
run_cklms = channel._cklms_run

def announced(*args):
    os.write(1, b"%d\\n" % os.getpid())  # one write, which a pipe keeps whole beside the other worker's
    return run_cklms(*args)

channel._cklms_run = announced
channel.run_experiment(["cklms"], channel.ChannelConfig(), n_samples=20000, runs=4)
"""
    env = {**os.environ, "PYTHONPATH": str(Path(ckaf.__file__).parents[1])}
    # unbuffered, so that select sees every line that readline has not read; the new session is the process
    # group of the parent and its workers, which the last step kills whatever the outcome
    proc = subprocess.Popen(
        [sys.executable, "-c", script], bufsize=0, stdout=subprocess.PIPE, env=env, start_new_session=True
    )
    try:
        workers = set()
        while len(workers) < 2:
            assert select.select([proc.stdout], [], [], 60)[0], "no second worker took a run within 60 s"
            line = proc.stdout.readline()
            assert line, "the experiment ended before both workers took a run"
            workers.add(int(line))
        proc.send_signal(signum)
        assert proc.wait(timeout=10) == -signum
        deadline = time.monotonic() + 5.0
        while not all(map(process_ended, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(process_ended, workers)), "a worker outlived the parent by 5 s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
        proc.stdout.close()


@needs_fork
@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads process states under /proc")
def test_ctrl_c_ends_the_experiment_with_exit_130(tmp_path):
    # SIGINT reaches the parent alone once both workers are in a run; it waits for their runs and exits 130
    csv = tmp_path / "c.csv"
    script = f"""
import os, signal, sys
from ckaf import channel, cli

signal.signal(signal.SIGINT, signal.default_int_handler)  # a shell may have started the tests with SIGINT ignored
os.sched_getaffinity = lambda pid: {{0, 1}}  # two usable cores, so the CKLMS runs go to a pool
run_cklms = channel._cklms_run

def announced(*args):
    os.write(1, b"%d\\n" % os.getpid())  # one write, which a pipe keeps whole beside the other worker's
    return run_cklms(*args)

channel._cklms_run = announced
sys.exit(cli.main(["equalize", "--algorithm", "cklms", "--runs", "4", "--samples", "5000", "--output", {str(csv)!r}]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(ckaf.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        bufsize=0,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        start_new_session=True,
    )
    try:
        workers = set()
        while len(workers) < 2:
            assert select.select([proc.stdout], [], [], 60)[0], "no second worker took a run within 60 s"
            line = proc.stdout.readline()
            assert line, "the experiment ended before both workers took a run"
            workers.add(int(line))
        proc.send_signal(signal.SIGINT)
        assert proc.wait(timeout=30) == 130
        assert proc.stderr.read() == b"ckaf equalize: interrupted\n"
        assert not csv.exists()
        deadline = time.monotonic() + 5.0
        while not all(map(process_ended, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert all(map(process_ended, workers)), "a worker outlived the interrupted command by 5 s"
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait(timeout=10)
        proc.stdout.close()
        proc.stderr.close()


@needs_fork
def test_pooled_experiment_memory_does_not_grow_with_runs(usable_cores, monkeypatch):
    # the worst case of the overlap, made certain: every CKLMS result of a bank waits in this process while
    # its linear filters step. Seeds or results held for later banks would grow with runs.
    built = usable_cores(2)

    # a subclass of the fixture's counting executor, so `built` shows that this one ran the tasks
    class EagerExecutor(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context, initializer, initargs):
            # a worker inherits the tracing at the fork; its memory is not this process's, and tracing slows it
            super().__init__(max_workers, mp_context, lambda *a: (tracemalloc.stop(), initializer(*a)), initargs)

        def map(self, fn, runs):
            return iter(list(super().map(fn, runs)))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", EagerExecutor)
    run_experiment(ALGORITHMS, ChannelConfig(), n_samples=50, runs=2)  # first-call allocations
    peaks = {}
    # past the first bank the sums are held, which reads about +6% at 200 or 300 samples; 300 keeps
    # this process's other allocations from pushing that past 10%
    for runs in (10, 40):
        tracemalloc.start()
        try:
            run_experiment(ALGORITHMS, ChannelConfig(), n_samples=300, runs=runs)
            peaks[runs] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert built == [2, 2, 2]
    assert abs(peaks[40] - peaks[10]) <= 0.1 * peaks[10]
