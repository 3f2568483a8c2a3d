"""Self-check suites: gradient integrity, parameter accounting, DSP oracles.

The finite-difference route only ever calls forward passes, so it stays an
independent check on every analytic backward rule; the naive DFT and
convolution here are deliberate O(N^2)/O(NM) restatements.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .audio import AudioBuffer
from .dsp import (StftConfig, convolve_full, design_butterworth, downsample_4x,
                  fft, filter_apply, frequency_response, upsample_4x)
from .loss import loss_total
from .metrics import si_sdr
from .model import ModelConfig, count_params, forward, init_params
from .tensor import Tensor

GRADCHECK_RESOLUTIONS = (StftConfig(64, 16, 32),)

PARAM_TARGETS = (
    ("demucs_baseline", 48, 18e6, 0.10),
    ("demucs_baseline", 64, 33e6, 0.10),
    ("hd_demucs", 48, 24e6, 0.15),
)


def _criterion(x_np: np.ndarray, target_np: np.ndarray, params, cfg):
    return loss_total(Tensor(target_np), forward(Tensor(x_np, dtype=np.float64), params, cfg),
                      resolutions=GRADCHECK_RESOLUTIONS)


def gradcheck_full_model(seed: int = 12345, h: float = 1e-5, tol: float = 1e-4):
    """Max relative error between analytic and central-difference gradients
    over every parameter of a tiny 64-bit model; returns (max_err, n_params).

    Coordinates whose primary-step error exceeds tol/2 are re-measured with
    a 10x smaller step: a perturbation that crosses a ReLU kink inflates the
    difference quotient at the larger step but not the smaller one, while a
    genuine backward bug shows a step-independent error and still fails.
    """
    cfg = ModelConfig(hidden_ch=2, depth=2, variant="hd_demucs")
    params = init_params(cfg, seed, np.float64)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(48) * 0.5
    target = x + 0.2 * rng.standard_normal(48)

    rep = _criterion(x, target, params, cfg)
    T.backward(rep.tensor)
    analytic = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
                for k, p in params.items()}
    for p in params.values():
        p.grad = None

    def central(flat, i, step):
        orig = flat[i]
        flat[i] = orig + step
        up = _criterion(x, target, params, cfg).total
        flat[i] = orig - step
        down = _criterion(x, target, params, cfg).total
        flat[i] = orig
        return (up - down) / (2 * step)

    worst = 0.0
    n_checked = 0
    with T.no_grad():
        for name, p in params.items():
            flat = p.data.reshape(-1)
            ref = analytic[name].reshape(-1)
            for i in range(flat.size):
                numeric = central(flat, i, h)
                err = abs(ref[i] - numeric) / max(1.0, abs(numeric))
                if err > tol / 2:
                    numeric = central(flat, i, h / 10)
                    err = abs(ref[i] - numeric) / max(1.0, abs(numeric))
                worst = max(worst, err)
                n_checked += 1
    return worst, n_checked


def params_suite():
    """Parameter-count checks against the reference model sizes."""
    results = []
    for variant, hidden, target, tol in PARAM_TARGETS:
        n = count_params(ModelConfig(hidden_ch=hidden, variant=variant))
        ok = abs(n - target) <= tol * target
        results.append((f"{variant} H={hidden}: {n:,} params "
                        f"(target {target / 1e6:.0f}M +-{tol:.0%})", ok))
    return results


def _naive_dft(x):
    n = len(x)
    k = np.arange(n)
    return np.exp(-2j * np.pi * np.outer(k, k) / n) @ np.asarray(x, complex)


def _naive_conv(x, r):
    out = np.zeros(len(x) + len(r) - 1)
    for i, ri in enumerate(r):
        out[i:i + len(x)] += ri * np.asarray(x, float)
    return out[:len(x)]


def dsp_suite(seed: int = 77):
    """FFT, filter design, filtering and resampler checks against naive
    references and analytic responses."""
    rng = np.random.default_rng(seed)
    results = []

    x = rng.standard_normal(64)
    err = float(np.max(np.abs(fft(x) - _naive_dft(x)[:33])))
    results.append((f"FFT vs naive DFT: max err {err:.2e}", err < 1e-10))
    ierr = float(np.max(np.abs(fft(fft(x), inverse=True) - x)))
    results.append((f"inverse FFT round trip: max err {ierr:.2e}", ierr < 1e-10))

    a = rng.standard_normal(100)
    b = rng.standard_normal(20)
    cerr = float(np.max(np.abs(convolve_full(a, b) - _naive_conv(a, b))))
    results.append((f"convolution vs naive: max err {cerr:.2e}", cerr < 1e-10))

    casc = design_butterworth(4, 2000.0, 16000.0, "lowpass")
    mag_db = float(20 * np.log10(abs(frequency_response(casc, [2000.0])[0])))
    results.append((f"Butterworth cutoff point: {mag_db:.3f} dB",
                    abs(mag_db + 3.0103) <= 0.1))

    # steady-state gain of filtered tones in the passband and past the
    # cutoff (1 kHz alone is -0.012 dB, too near a filter that does nothing);
    # each tail holds a whole number of periods
    t = np.arange(16000) / 16000.0
    for f in (1000.0, 3000.0):
        tone = np.sin(2 * np.pi * f * t)
        y = filter_apply(casc, AudioBuffer(tone, 16000)).samples
        gain_db = float(10 * np.log10(np.mean(y[8000:] ** 2) / np.mean(tone[8000:] ** 2)))
        want_db = float(20 * np.log10(abs(frequency_response(casc, [f])[0])))
        results.append((f"filtered {f / 1000:g} kHz tone gain: {gain_db:.4f} dB "
                        f"(response {want_db:.4f} dB)", abs(gain_db - want_db) <= 0.01))

    t = np.arange(4096) / 16000.0
    tone = np.sin(2 * np.pi * 1000.0 * t)
    with T.no_grad():
        up = upsample_4x(tone).data
        rt = downsample_4x(up).data
    # a one-sample phase slip at 64 kHz is an error of about 0.1
    fine = np.sin(2 * np.pi * 1000.0 * np.arange(4 * 4096) / 64000.0)
    uerr = float(np.max(np.abs(up - fine)[1024:-1024]))
    results.append((f"upsampled tone vs 64 kHz tone: max err {uerr:.2e}", uerr < 1e-4))
    score = si_sdr(tone[256:-256], rt[256:-256])
    results.append((f"resampler round-trip SI-SDR: {score:.1f} dB", score > 40.0))
    return results
