"""Training criterion: time-domain L1 plus multi-resolution spectral loss.

The spectral term sums, over three STFT resolutions, a spectral-convergence
ratio and a log-magnitude L1 distance scaled by 1/T (T = waveform length in
samples). The log floor of 1e-5 keeps zero-magnitude bins finite. Total is
the unweighted sum of the time and frequency terms.

Waveforms are [N] or a batch [B, N] of equal length. On a batch every term
is the mean over items of the per-item term, so each reported component
keeps its single-item meaning.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import tensor as T
from .dsp import StftConfig, TooShort, stft_magnitude
from .tensor import Tensor

STFT_RESOLUTIONS = (
    StftConfig(fft_bins=512, hop=50, window_len=240),
    StftConfig(fft_bins=1024, hop=120, window_len=600),
    StftConfig(fft_bins=2048, hop=240, window_len=1200),
)

LOG_FLOOR = 1e-5


class LengthMismatch(ValueError):
    pass


class ZeroReference(ValueError):
    pass


@dataclass
class LossReport:
    """Scalar components as floats plus the differentiable total."""
    l_time: float
    l_sc: tuple
    l_mag: tuple
    l_freq: float
    total: float
    tensor: Tensor


def loss_time(x: Tensor, x_hat: Tensor) -> Tensor:
    """Mean absolute sample difference (length-invariant L1)."""
    if x.shape != x_hat.shape:
        raise LengthMismatch(f"waveform shapes differ: {x.shape} vs {x_hat.shape}")
    return T.mean(T.abs_(x - x_hat))


def loss_sc(mag_ref: Tensor, mag_est: Tensor) -> Tensor:
    """Spectral convergence ||X - X_hat||_F / ||X||_F of each [frames, bins]
    spectrogram, averaged over leading axes."""
    if mag_ref.shape != mag_est.shape:
        raise LengthMismatch(f"spectra shapes differ: {mag_ref.shape} vs {mag_est.shape}")
    denom = T.frobenius_norm(mag_ref, (-2, -1))
    if (denom.data == 0.0).any():
        raise ZeroReference("reference spectrum has zero Frobenius norm")
    return T.mean(T.frobenius_norm(mag_ref - mag_est, (-2, -1)) / denom)


def loss_mag(mag_ref: Tensor, mag_est: Tensor) -> Tensor:
    """Summed L1 distance between floored log magnitudes of each spectrogram,
    averaged over leading axes."""
    if mag_ref.shape != mag_est.shape:
        raise LengthMismatch(f"spectra shapes differ: {mag_ref.shape} vs {mag_est.shape}")
    return T.mean(T.l1_norm(T.log(mag_ref + LOG_FLOOR) - T.log(mag_est + LOG_FLOOR),
                            (-2, -1)))


def loss_freq(x: Tensor, x_hat: Tensor, resolutions=STFT_RESOLUTIONS,
              mags_ref=None) -> tuple[Tensor, list, list]:
    """Multi-resolution spectral loss; returns (total, sc terms, mag terms).

    ``mags_ref``, when given, are x's magnitude spectra at ``resolutions``,
    already computed; they are used in place of transforming x again.
    """
    if x.shape != x_hat.shape:
        raise LengthMismatch(f"waveform shapes differ: {x.shape} vs {x_hat.shape}")
    longest = max(cfg.window_len for cfg in resolutions)
    if x.shape[-1] < longest:
        raise TooShort(f"need at least {longest} samples, got {x.shape[-1]}")
    t_len = float(x.shape[-1])
    sc_terms = []
    mag_terms = []
    total = None
    for i, cfg in enumerate(resolutions):
        mag_ref = stft_magnitude(x, cfg) if mags_ref is None else mags_ref[i]
        mag_est = stft_magnitude(x_hat, cfg)
        sc = loss_sc(mag_ref, mag_est)
        mag = loss_mag(mag_ref, mag_est)
        sc_terms.append(sc)
        mag_terms.append(mag)
        term = sc + mag * (1.0 / t_len)
        total = term if total is None else total + term
    return total, sc_terms, mag_terms


def loss_total(x: Tensor, x_hat: Tensor, resolutions=STFT_RESOLUTIONS) -> LossReport:
    """Time + frequency criterion with unit weighting."""
    lt = loss_time(x, x_hat)
    lf, sc_terms, mag_terms = loss_freq(x, x_hat, resolutions)
    total = lt + lf
    return LossReport(
        l_time=lt.item(),
        l_sc=tuple(t.item() for t in sc_terms),
        l_mag=tuple(t.item() for t in mag_terms),
        l_freq=lf.item(),
        total=total.item(),
        tensor=total,
    )
