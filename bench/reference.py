"""Independent computations the benchmark checks ckaf's outputs against.

Nothing here calls into ckaf. The equalization streams are rebuilt from
the rule documented in ``ckaf.channel.run_experiment`` (one
``SeedSequence(seed).spawn(runs)`` child per run, each spawning the
source and noise seeds in that order), and the filters are written out
as plain numpy recursions.
"""

from __future__ import annotations

import math

import numpy as np

# ckaf.channel.ChannelConfig defaults, restated from its documentation.
H0, H1, C2, C3 = -0.9 + 0.8j, 0.6 - 0.7j, 0.1 + 0.15j, 0.06 + 0.05j
AMPLITUDE = 0.70
SNR_DB = 15.0


def source(n, rho, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = rng.standard_normal(n)
    return AMPLITUDE * (math.sqrt(1.0 - rho * rho) * x + 1j * rho * y)


def received(s, seed):
    t = H0 * s + H1 * np.r_[0j, s[:-1]]
    q = t + C2 * t**2 + C3 * t**3
    rng = np.random.default_rng(seed)
    scale = math.sqrt(np.mean(np.abs(q) ** 2) * 10.0 ** (-SNR_DB / 10.0) / 2.0)
    return q + scale * (rng.standard_normal(s.size) + 1j * rng.standard_normal(s.size))


def windows(r, s, L, D):
    """inputs[n, tap] = r[n + D - tap] (0 before the stream), targets[n] = s[n]."""
    n = min(s.size, r.size - D)
    idx = np.arange(n)[:, None] + D - np.arange(L + 1)[None, :]
    inputs = np.where(idx >= 0, r[np.clip(idx, 0, None)], 0j)
    return inputs, s[:n].copy()


def stream(rho, seed_seq, n_samples, L=5, D=2):
    """One equalization stream from a SeedSequence that spawns (source, noise)."""
    source_seed, noise_seed = seed_seq.spawn(2)
    s = source(n_samples, rho, source_seed)
    return windows(received(s, noise_seed), s, L, D)


def monte_carlo_streams(rho, seed, runs, n_samples, L=5, D=2):
    return [stream(rho, child, n_samples, L, D) for child in np.random.SeedSequence(seed).spawn(runs)]


def ls_floor(inputs, targets, widely_linear):
    """Mean squared residual of the least-squares (widely) linear fit."""
    a = np.hstack([inputs, inputs.conj()]) if widely_linear else inputs
    w = np.linalg.lstsq(a, targets, rcond=None)[0]
    return float(np.mean(np.abs(targets - a @ w) ** 2))


def nlms_errors(inputs, targets, mu, widely_linear, eps=1e-8):
    """Errors of the normalized (widely linear) complex LMS, h^H x (+ g^H x*)."""
    h = np.zeros(inputs.shape[1], dtype=complex)
    g = np.zeros_like(h)
    errors = np.empty(targets.size, dtype=complex)
    for n, (x, d) in enumerate(zip(inputs, targets)):
        e = d - (np.vdot(h, x) + (np.vdot(g, x.conj()) if widely_linear else 0.0))
        power = float(np.vdot(x, x).real)
        if widely_linear:
            step = mu / (2.0 * power + eps) * np.conj(e)
            h = h + step * x
            g = g + step * x.conj()
        else:
            h = h + mu / (power + eps) * np.conj(e) * x
        errors[n] = e
    return errors


def ncklms_predictions(inputs, targets, sigma, mu, delta1, delta2):
    """NCKLMS with the Gaussian kernel in the form y = 2 sum_k alpha_k kappa(z, z_k).

    The complexified feature distance is ||Phi(z) - Phi(z_k)||^2 =
    4 (1 - kappa(z, z_k)) for the Gaussian kernel, and gamma = 2 kappa(z, z) = 2,
    so an admitted sample stores alpha = mu e / 2.
    """
    centers = np.empty((targets.size, inputs.shape[1]), dtype=complex)
    alpha = np.empty(targets.size, dtype=complex)
    predictions = np.empty(targets.size, dtype=complex)
    admitted = np.zeros(targets.size, dtype=bool)
    m = 0
    for n, (z, d) in enumerate(zip(inputs, targets)):
        diff = centers[:m] - z
        k = np.exp(-np.sum(diff.real**2 + diff.imag**2, axis=1) / (sigma * sigma))
        y = 2.0 * complex(alpha[:m] @ k)
        e = d - y
        far = m == 0 or math.sqrt(max(4.0 * (1.0 - float(k.max())), 0.0)) >= delta1
        if far and abs(e) >= delta2:
            centers[m], alpha[m] = z, mu * e / 2.0
            m += 1
            admitted[n] = True
        predictions[n] = y
    return predictions, admitted


class CubicField:
    """T(w) = sum_j w_j conj(w_j)^2, with its closed-form Wirtinger pair.

    dT/dz_j = conj(w_j)^2 and dT/dz*_j = 2 w_j conj(w_j). The call count
    shows how many field evaluations a numeric derivative spends.
    """

    def __init__(self):
        self.calls = 0

    def __call__(self, w):
        self.calls += 1
        return complex(np.sum(w * np.conj(w) ** 2))

    @staticmethod
    def pair(w):
        return np.conj(w) ** 2, 2.0 * w * np.conj(w)
