"""Nonlinear channel equalization benchmark and Monte-Carlo harness.

The channel cascades a two-tap linear filter with a memoryless cubic
nonlinearity and additive circular white Gaussian noise calibrated to a
target SNR. The source is a complex Gaussian whose circularity is set
by rho: pseudo-covariance 0 at rho = sqrt(2)/2, strongly non-circular
near 0 or 1. Equalization datasets pair a tapped-delay window of the
received signal with the delayed source symbol, and the harness runs
each algorithm online over independent Monte-Carlo trials, averaging
the instantaneous squared error per iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .cklms import CklmsFilter, NoveltyCriterion
from .kernels import RealKernel
from .linear import ComplexNlms

ALGORITHMS = ("cklms", "nclms", "wl-nclms")

DEFAULT_RHO = math.sqrt(2.0) / 2.0
DEFAULT_MU = {"cklms": 0.5, "nclms": 1.0 / 16.0, "wl-nclms": 1.0 / 16.0}
DEFAULT_SIGMA = 5.0
DEFAULT_NOVELTY = NoveltyCriterion(delta1=0.15, delta2=0.2)


@dataclass(frozen=True)
class ChannelConfig:
    """Channel and source parameters; defaults match the benchmark setup."""

    h0: complex = -0.9 + 0.8j
    h1: complex = 0.6 - 0.7j
    c2: complex = 0.1 + 0.15j
    c3: complex = 0.06 + 0.05j
    snr_db: float = 15.0  # math.inf disables the receiver noise
    rho: float = DEFAULT_RHO
    amplitude: float = 0.70

    def __post_init__(self):
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [0, 1], got {self.rho}")
        # +inf turns the noise off; any other SNR needs a finite noise power
        try:
            noise_gain = 10.0 ** (-self.snr_db / 10.0)
        except OverflowError:
            noise_gain = math.inf
        if not math.isfinite(noise_gain):
            raise ValueError(f"snr_db must be +inf or give a finite noise power 10^(-snr_db/10), got {self.snr_db}")


@dataclass(frozen=True)
class EqualizationDataset:
    """Receiver windows paired with delayed source symbols.

    inputs[n] = (r(n+D), r(n+D-1), ..., r(n+D-L)); targets[n] = s(n).
    Pre-stream receiver values are zero.
    """

    inputs: np.ndarray  # (N, L+1) complex
    targets: np.ndarray  # (N,) complex
    L: int
    D: int

    def __len__(self):
        return self.targets.size


@dataclass
class LearningCurve:
    """Monte-Carlo averaged squared-error trajectory of one algorithm."""

    mse: np.ndarray
    dict_size: np.ndarray
    runs: int
    mse_db: np.ndarray = field(init=False)

    def __post_init__(self):
        with np.errstate(divide="ignore"):
            self.mse_db = 10.0 * np.log10(self.mse)


def generate_source(n_samples: int, rho: float, amplitude: float = 0.70, seed=None) -> np.ndarray:
    """Complex Gaussian source amplitude*(sqrt(1-rho^2) X + i rho Y)."""
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n_samples)
    y = rng.standard_normal(n_samples)
    return amplitude * (math.sqrt(1.0 - rho * rho) * x + 1j * rho * y)


def run_channel(cfg: ChannelConfig, s, seed=None) -> np.ndarray:
    """Pass s through the linear-plus-cubic channel and add receiver noise.

    Noise is circular complex Gaussian with total variance set so that
    10*log10(mean|q|^2 / var) equals cfg.snr_db, half the power in each
    of the real and imaginary parts. The step before the stream starts
    uses s(-1) = 0.
    """
    s = np.asarray(s, dtype=complex)
    if s.size == 0:
        raise ValueError("source sequence is empty")
    s_prev = np.concatenate([[0j], s[:-1]])
    t = cfg.h0 * s + cfg.h1 * s_prev
    q = t + cfg.c2 * t**2 + cfg.c3 * t**3
    if math.isinf(cfg.snr_db):
        return q
    rng = np.random.default_rng(seed)
    noise_var = float(np.mean(np.abs(q) ** 2)) * 10.0 ** (-cfg.snr_db / 10.0)
    scale = math.sqrt(noise_var / 2.0)
    w = scale * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
    return q + w


def build_dataset(r, s, L: int, D: int) -> EqualizationDataset:
    """Build tapped-delay equalization pairs from received and source signals."""
    if L < 0 or D < 0:
        raise ValueError(f"L and D must be nonnegative, got L={L}, D={D}")
    r = np.asarray(r, dtype=complex)
    s = np.asarray(s, dtype=complex)
    n_total = min(s.size, r.size - D)
    if n_total <= 0:
        raise ValueError(f"no complete samples: len(r)={r.size}, D={D}")
    # window n reads r[n+D], r[n+D-1], ..., r[n+D-L]; negative indices are 0
    r_padded = np.concatenate([np.zeros(L, dtype=complex), r])
    inputs = np.empty((n_total, L + 1), dtype=complex)
    for tap in range(L + 1):
        start = L + D - tap
        inputs[:, tap] = r_padded[start : start + n_total]
    return EqualizationDataset(inputs=inputs, targets=s[:n_total].copy(), L=L, D=D)


def _make_filter(name: str, n_taps: int, mu: float, kernel: RealKernel, novelty: Optional[NoveltyCriterion]):
    if name == "cklms":
        return CklmsFilter(kernel, mu=mu, normalized=True, novelty=novelty)
    return ComplexNlms(n_taps, mu=mu, widely_linear=name == "wl-nclms")


def _run_online(name: str, filt, dataset: EqualizationDataset, run: int) -> tuple[np.ndarray, np.ndarray]:
    """One filter over one stream: per-step squared errors and dictionary sizes."""
    result = filt.run(dataset.inputs, dataset.targets)
    if name == "cklms":
        errors, sizes = result.errors, np.cumsum(result.admitted, dtype=float)
    else:
        errors, sizes = result, np.zeros(len(dataset))
    if errors.size < len(dataset):
        raise RuntimeError(f"{name} diverged: non-finite error at step {errors.size - 1} of run {run}")
    return errors.real * errors.real + errors.imag * errors.imag, sizes


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average with warm-up; preserves length."""
    if window <= 1:
        return x
    c = np.cumsum(np.concatenate([[0.0], x]))
    n = x.size
    idx = np.arange(1, n + 1)
    lo = np.maximum(idx - window, 0)
    return (c[idx] - c[lo]) / (idx - lo)


def run_experiment(
    algorithms: Sequence[str],
    cfg: ChannelConfig,
    L: int = 5,
    D: int = 2,
    n_samples: int = 5000,
    runs: int = 20,
    mu: Optional[Mapping[str, float]] = None,
    kernel: Optional[RealKernel] = None,
    novelty: Optional[NoveltyCriterion] = DEFAULT_NOVELTY,
    seed: int = 0,
    smooth: int = 1,
) -> dict[str, LearningCurve]:
    """Monte-Carlo learning curves for the requested algorithms.

    Every run draws a fresh source, channel noise and dataset; all
    algorithms see the same stream within a run. Randomness derivation
    is fixed: SeedSequence(seed).spawn(runs) yields one child per run
    index, and each child spawns the (source, noise) seeds in that
    order, so identical configurations reproduce bit-exactly. Errors
    are recorded before the update at each step, and the squared-error
    curves (and kernel dictionary sizes) are averaged pointwise across
    runs. `smooth` >= 1 is the window of a trailing moving average.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    if smooth < 1:
        raise ValueError(f"smooth must be >= 1, got {smooth}")
    steps = dict(DEFAULT_MU)
    steps.update(mu or {})
    kernel = kernel if kernel is not None else RealKernel.gaussian(DEFAULT_SIGMA)
    unknown = [a for a in algorithms if a not in ALGORITHMS]
    if unknown:
        raise ValueError(f"unknown algorithms {unknown}; expected among {ALGORITHMS}")

    run_seeds = np.random.SeedSequence(seed).spawn(runs)
    sum_err: dict[str, np.ndarray] = {}
    sum_size: dict[str, np.ndarray] = {}
    for run, run_seed in enumerate(run_seeds):
        source_seed, noise_seed = run_seed.spawn(2)
        s = generate_source(n_samples, cfg.rho, cfg.amplitude, seed=source_seed)
        r = run_channel(cfg, s, seed=noise_seed)
        dataset = build_dataset(r, s, L, D)
        for name in algorithms:
            filt = _make_filter(name, L + 1, steps[name], kernel, novelty)
            err_sq, sizes = _run_online(name, filt, dataset, run)
            if name not in sum_err:
                sum_err[name] = np.zeros(len(dataset))
                sum_size[name] = np.zeros(len(dataset))
            sum_err[name] += err_sq
            sum_size[name] += sizes

    curves = {}
    for name in algorithms:
        mse = _moving_average(sum_err[name] / runs, smooth)
        curves[name] = LearningCurve(mse=mse, dict_size=sum_size[name] / runs, runs=runs)
    return curves
