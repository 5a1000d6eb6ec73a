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

import functools
import math
import os
from dataclasses import dataclass, field
from typing import ClassVar, Mapping, Optional, Sequence

import numpy as np

from .cklms import CklmsFilter, NoveltyCriterion
from .kernels import RealKernel
from .linear import ComplexNlms, run_bank

# runs drawn and held at once, so memory stays bounded: the linear filters step them together, and
# the pool's workers take their CKLMS runs, one run per task
_BANK = 10

DEFAULT_RHO = math.sqrt(2.0) / 2.0
DEFAULT_MU = {"cklms": 0.5, "nclms": 1.0 / 16.0, "wl-nclms": 1.0 / 16.0}
ALGORITHMS = tuple(DEFAULT_MU)
DEFAULT_SIGMA = 5.0
DEFAULT_NOVELTY = NoveltyCriterion(delta1=0.15, delta2=0.2)


@dataclass(frozen=True)
class ChannelConfig:
    """The benchmark channel and source: fixed taps, nonlinearity and amplitude; settable SNR and rho."""

    h0: ClassVar[complex] = -0.9 + 0.8j
    h1: ClassVar[complex] = 0.6 - 0.7j
    c2: ClassVar[complex] = 0.1 + 0.15j
    c3: ClassVar[complex] = 0.06 + 0.05j
    amplitude: ClassVar[float] = 0.70
    snr_db: float = 15.0  # math.inf disables the receiver noise
    rho: float = DEFAULT_RHO

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
    """Receiver windows paired with delayed source symbols, as build_dataset(r, s, L, D) makes them.

    inputs[n] = (r(n+D), r(n+D-1), ..., r(n+D-L)); targets[n] = s(n).
    Pre-stream receiver values are zero. A stack of R streams adds a leading axis.
    """

    inputs: np.ndarray  # (N, L+1) or (R, N, L+1) complex
    targets: np.ndarray  # (N,) or (R, N) complex

    def __len__(self):
        return self.targets.shape[-1]


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


def generate_source(n_samples: int, rho: float, amplitude: float = ChannelConfig.amplitude, seed=None) -> np.ndarray:
    """Complex Gaussian source amplitude*(sqrt(1-rho^2) X + i rho Y)."""
    if not (isinstance(n_samples, (int, np.integer)) and n_samples >= 1):
        raise ValueError(f"n_samples must be an integer >= 1, got {n_samples!r}")
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    if not math.isfinite(amplitude):
        raise ValueError(f"amplitude must be finite, got {amplitude}")
    rng = np.random.default_rng(seed)
    x, y = rng.standard_normal((2, n_samples))  # one draw: the same numbers as two of n_samples
    return amplitude * (math.sqrt(1.0 - rho * rho) * x + 1j * rho * y)


def run_channel(cfg: ChannelConfig, s, seed=None) -> np.ndarray:
    """Pass s through the linear-plus-cubic channel and add receiver noise.

    Noise is circular complex Gaussian with total variance set so that
    10*log10(mean|q|^2 / var) equals cfg.snr_db, half the power in each
    of the real and imaginary parts. The step before the stream starts
    uses s(-1) = 0. A source that is not finite, or a channel output or
    noise power that overflows, raises ValueError.
    """
    s = np.asarray(s, dtype=complex)
    if s.size == 0 or not np.isfinite(s).all():
        raise ValueError("source sequence is empty or not finite")
    s_prev = np.concatenate([[0j], s[:-1]])
    with np.errstate(over="ignore", invalid="ignore"):
        t = cfg.h0 * s + cfg.h1 * s_prev
        q = t + cfg.c2 * t**2 + cfg.c3 * t**3
        noise_var = 0.0 if math.isinf(cfg.snr_db) else float(np.mean(np.abs(q) ** 2)) * 10.0 ** (-cfg.snr_db / 10.0)
    if not (np.isfinite(q).all() and math.isfinite(noise_var)):
        raise ValueError("channel output or noise power overflows; lower the source amplitude or raise snr_db")
    if math.isinf(cfg.snr_db):
        return q
    rng = np.random.default_rng(seed)
    scale = math.sqrt(noise_var / 2.0)
    w = scale * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))
    return q + w


def build_dataset(r, s, L: int, D: int) -> EqualizationDataset:
    """Build tapped-delay equalization pairs from received and source signals, or from (R, n) stacks of them:
    inputs is a read-only view of unit-stride windows, targets a view of s (a complex s is not copied)."""
    if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in (L, D)):
        raise ValueError(f"L and D must be nonnegative integers, got L={L!r}, D={D!r}")
    r = np.asarray(r, dtype=complex)
    s = np.asarray(s, dtype=complex)
    if r.shape[:-1] != s.shape[:-1]:
        raise ValueError(f"received signals of shape {r.shape} but sources of shape {s.shape}")
    n_total = min(s.shape[-1], r.shape[-1] - D)
    if n_total <= 0:
        raise ValueError(f"no complete samples: len(r)={r.shape[-1]}, D={D}")
    # window n, r[n+D] down to r[n+D-L], is a forward slice of r reversed in time and followed by L zeros
    reversed_r = np.concatenate([r[..., ::-1], np.zeros(r.shape[:-1] + (L,), dtype=complex)], axis=-1)
    windows = np.lib.stride_tricks.sliding_window_view(reversed_r, L + 1, axis=-1)[..., ::-1, :]
    return EqualizationDataset(inputs=windows[..., D : D + n_total, :], targets=s[..., :n_total])


def _draw(cfg: ChannelConfig, n_samples: int, L: int, D: int, seed: int, runs) -> EqualizationDataset:
    """The stacked datasets of the given runs: run j draws its source, then its noise, from the two
    children of child j of SeedSequence(seed), which it rebuilds from the integers (seed, j)."""
    pairs = [np.random.SeedSequence(seed, spawn_key=(run,)).spawn(2) for run in runs]
    s = np.array([generate_source(n_samples, cfg.rho, cfg.amplitude, seed=source) for source, _ in pairs])
    return build_dataset([run_channel(cfg, s_j, seed=noise) for s_j, (_, noise) in zip(s, pairs)], s, L, D)


def _squared(e: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """|e|^2 in out or one new array, with the imaginary parts of e overwritten on the way; an overflow reads inf."""
    with np.errstate(over="ignore"):
        sq = np.multiply(e.real, e.real, out=out)
        sq += np.multiply(e.imag, e.imag, out=e.imag)
    return sq


def _cklms_run(cfg, n_samples, L, D, mu, kernel, novelty, seed, run):
    """Squared errors and cumulative dictionary sizes of a CKLMS filter on the stream it draws for run `run`
    of `seed`: a task of picklable arguments, which needs nothing from the process that sent it."""
    dataset = _draw(cfg, n_samples, L, D, seed, [run])
    errors, admitted = CklmsFilter(kernel, mu, True, novelty).run(dataset.inputs[0], dataset.targets[0])
    return _squared(errors), np.cumsum(admitted, dtype=float)


def _pool(streams: int):
    """An executor of forked processes, one per usable core and at most one per stream, or None where the
    streams run in this process: one worker would do, `fork` is missing, or this process is a
    daemonic worker, which may not fork."""
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    workers = min(cores, streams)
    if workers < 2 or not hasattr(os, "fork"):
        return None
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    if multiprocessing.current_process().daemon:
        return None
    return ProcessPoolExecutor(workers, multiprocessing.get_context("fork"), _start_worker, ())


def _start_worker():
    """A pool worker leaves Ctrl-C to the parent and exits when the parent dies, or it would wait for tasks forever."""
    import multiprocessing
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # joining the parent waits on its sentinel, a pipe that reports end of file when the parent dies
    threading.Thread(target=lambda: (multiprocessing.parent_process().join(), os._exit(1)), daemon=True).start()


def _moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing moving average with warm-up; preserves length."""
    if window <= 1:
        return x
    c = np.cumsum(np.concatenate([[0.0], x]))
    idx = np.arange(1, x.size + 1)
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
    kernel: RealKernel = RealKernel.gaussian(DEFAULT_SIGMA),
    novelty: NoveltyCriterion = DEFAULT_NOVELTY,
    seed: int = 0,
    smooth: int = 1,
) -> dict[str, LearningCurve]:
    """Monte-Carlo learning curves for the requested algorithms.

    Every run draws a fresh source, channel noise and dataset; all
    algorithms see the same stream within a run. Run j draws them from
    SeedSequence(seed).spawn(runs)[j] (see _draw), so identical
    configurations reproduce bit-exactly. Errors are recorded before
    the update at each step, and the squared-error curves (and kernel
    dictionary sizes) are averaged pointwise across runs. `smooth` >= 1
    is the window of a trailing moving average.

    Runs are drawn in banks of at most 10. One `run_bank` pass steps all
    linear filters over all of a bank's runs, whose errors are squared
    block by block. Each CKLMS run is a task that draws its own stream
    from the two integers (seed, run). Forked workers, one per usable
    core, run a bank's CKLMS tasks while this process steps its linear
    filters, one bank queued at a time; the curves are the same
    bytes for any core count, and `taskset -c 0` keeps the runs in this
    process. The bank is then summed run by run, each run's algorithms
    in the requested order; the first non-finite squared error raises
    RuntimeError, so a divergence names the lowest run, then the first
    requested algorithm. Leaving, on an error or Ctrl-C too, cancels the
    runs no worker has taken yet; a killed worker raises RuntimeError.
    """
    if not (isinstance(runs, (int, np.integer)) and runs >= 1):
        raise ValueError(f"runs must be an integer >= 1, got {runs!r}")
    if not (isinstance(smooth, (int, np.integer)) and smooth >= 1):
        raise ValueError(f"smooth must be an integer >= 1, got {smooth!r}")
    steps = {**DEFAULT_MU, **(mu or {})}
    unknown = [a for a in [*algorithms, *steps] if a not in ALGORITHMS]
    # a repeated name would add its squared errors into one curve once per occurrence
    if not algorithms or unknown or len(set(algorithms)) != len(algorithms):
        raise ValueError(
            f"unknown or repeated algorithms in {list(algorithms)} or mu keys {list(steps)};"
            f" expected one or more distinct names among {ALGORITHMS}"
        )

    cklms = functools.partial(_cklms_run, cfg, n_samples, L, D, steps["cklms"], kernel, novelty, seed)
    linear = {a: ComplexNlms(L + 1, steps[a], widely_linear=a == "wl-nclms") for a in algorithms if a != "cklms"}
    pool = _pool(min(runs, _BANK)) if "cklms" in algorithms else None
    sum_err = dict.fromkeys(algorithms, 0.0)
    sum_size = dict.fromkeys(algorithms, 0.0)
    try:
        for first in range(0, runs, _BANK):
            bank = range(runs)[first : first + _BANK]
            # queued one bank at a time, before the linear filters step, so the workers run them meanwhile
            streams = {"cklms": (pool.map if pool else map)(cklms, bank)}
            if linear:  # one bank steps copies of every linear filter's zero weights
                dataset = _draw(cfg, n_samples, L, D, seed, bank)
                squared, done = np.empty((len(linear), len(bank), len(dataset))), 0
                for block in run_bank(list(linear.values()), dataset.inputs, dataset.targets):
                    _squared(block, squared[..., done : done + len(block)].transpose(2, 0, 1))
                    done += len(block)
                streams.update({name: zip(rows, [0.0] * len(bank)) for name, rows in zip(linear, squared[..., :done])})
                del dataset, squared, block  # freed before a CKLMS run of this bank takes place in this process
            for run in bank:
                for name in algorithms:
                    e, sizes = next(streams[name])
                    finite = np.isfinite(e)
                    if not finite.all():
                        raise RuntimeError(f"{name} diverged: non-finite error at step {finite.argmin()} of run {run}")
                    sum_err[name] += e
                    sum_size[name] += sizes
            del streams, e, sizes, finite  # free this bank before the next one is drawn
    finally:
        if pool:  # runs not yet handed to a worker are cancelled; the running ones finish
            pool.shutdown(cancel_futures=True)

    curves = {}
    for name in algorithms:
        mse = _moving_average(sum_err[name] / runs, smooth)
        curves[name] = LearningCurve(mse=mse, dict_size=np.zeros(mse.size) + sum_size[name] / runs, runs=runs)
    return curves
