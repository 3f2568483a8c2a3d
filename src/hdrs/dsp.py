"""Deterministic signal-processing primitives.

A power-of-two real-signal FFT (one-sided, by ``numpy.fft.rfft`` and
``irfft``), short-time magnitude spectra (differentiable through to the
waveform), Butterworth biquad design via bilinear transform with cutoff
prewarping, zero-state IIR filtering, factor-4 windowed-sinc resampling,
and linear convolution.

Resampling is one adjoint pair of window products: decimation multiplies
stride-4 129-tap windows by the kernel, interpolation stride-1 33-sample
windows by the [33, 4] polyphase matrix; each is the other's backward pass.

IIR filtering is block-parallel: each biquad section is run as a 2-state
system over 128-sample blocks, with matrix products inside each block and a
short recurrence carrying the state between blocks. It matches sequential
per-sample filtering within 1e-10 x the output peak.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .audio import AudioBuffer
from .tensor import Tensor, strided_view


class NonPowerOfTwoLength(ValueError):
    pass


class TooShort(ValueError):
    pass


class InvalidCutoff(ValueError):
    pass


class UnsupportedOrder(ValueError):
    pass


class LengthNotDivisible(ValueError):
    pass


# -- FFT -----------------------------------------------------------------------


def fft(x, n: int | None = None, inverse: bool = False) -> np.ndarray:
    """Real-signal DFT over the last axis by ``numpy.fft``, in float64.

    Forward maps real [..., m] (zero-padded or cut to n, default m) to the
    unscaled one-sided spectrum [..., n // 2 + 1]. Inverse maps a one-sided
    spectrum back to real [..., n] (default 2 * (m - 1)), scaled by 1/n. The
    length n must be a power of two.
    """
    x = np.asarray(x, dtype=np.complex128 if inverse else np.float64)
    if n is None:
        n = 2 * (x.shape[-1] - 1) if inverse else x.shape[-1]
    if n <= 0 or n & (n - 1):
        raise NonPowerOfTwoLength(f"FFT length {n} is not a power of two")
    return np.fft.irfft(x, n) if inverse else np.fft.rfft(x, n)


@functools.lru_cache(maxsize=32)
def _hann_periodic(n: int) -> np.ndarray:
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(n) / n)
    w.setflags(write=False)
    return w


# -- STFT magnitude ---------------------------------------------------------------


@dataclass(frozen=True)
class StftConfig:
    fft_bins: int
    hop: int
    window_len: int

    def __post_init__(self):
        if self.fft_bins & (self.fft_bins - 1) or self.fft_bins <= 0:
            raise NonPowerOfTwoLength(f"fft_bins={self.fft_bins} must be a power of two")
        if not (0 < self.window_len <= self.fft_bins):
            raise ValueError("require window_len <= fft_bins")
        if not (0 < self.hop <= self.window_len):
            raise ValueError("require hop <= window_len")

    @property
    def bins(self) -> int:
        return self.fft_bins // 2 + 1


def stft_magnitude(x, cfg: StftConfig) -> Tensor:
    """One-sided magnitude spectrograms [..., frames, bins] of waveforms [..., N].

    Leading axes are independent signals, transformed together by one FFT
    call. Frames are Hann-windowed and zero-padded to ``fft_bins``.
    Differentiable with respect to the waveform: the backward pass maps the
    magnitude gradient through the DFT analytically (one inverse real FFT
    per frame) and overlap-adds frame gradients back onto each signal.
    """
    if not isinstance(x, Tensor):
        x = Tensor(x)
    if x.data.ndim == 0:
        raise ValueError("waveform needs a time axis, got a scalar")
    length = x.shape[-1]
    if length < cfg.window_len:
        raise TooShort(f"waveform length {length} < window {cfg.window_len}")
    win = _hann_periodic(cfg.window_len)
    data = x.data
    n_frames = (length - cfg.window_len) // cfg.hop + 1
    frames = strided_view(data, (n_frames, cfg.window_len), (cfg.hop, 1))
    spec = fft(frames * win, cfg.fft_bins)
    mag = np.abs(spec).astype(x.dtype, copy=False)

    def backward(g):
        # d|X_k|/dx_n = Re(X_k e^{i w_k n}) / |X_k|, summed over the one-sided
        # bins. irfft counts DC and Nyquist once and every other bin twice and
        # divides by N, so those two bins are doubled and the result scaled by N/2.
        safe = np.where(mag > 0, mag, 1.0)
        c = np.where(mag > 0, g * spec / safe, 0.0)
        c[..., [0, -1]] *= 2.0
        frame_grads = fft(c, cfg.fft_bins, inverse=True)[..., :cfg.window_len]
        gframes = frame_grads * (cfg.fft_bins / 2) * win
        # signal b's frames overlap-add into bins [b * length, (b + 1) * length)
        n_signals = data.size // length
        idx = (np.arange(n_signals)[:, None, None] * length
               + np.arange(n_frames)[:, None] * cfg.hop + np.arange(cfg.window_len))
        gx = np.bincount(idx.ravel(), weights=gframes.ravel(),
                         minlength=n_signals * length)
        x._accum(gx.reshape(x.shape).astype(x.dtype))

    return Tensor._make(mag, (x,), backward, "stft_magnitude")


# -- Butterworth biquads -------------------------------------------------------------


@dataclass
class BiquadCascade:
    """Second-order sections (b0, b1, b2, a1, a2), a1/a2 normalized by a0."""
    sections: list
    sample_rate: float


_ORDERS = (2, 4, 6, 8)


def _butterworth_sections(order: int, cutoff_hz: float, sr_hz: float, highpass: bool):
    c = 1.0 / np.tan(np.pi * cutoff_hz / sr_hz)  # prewarped bilinear constant
    sections = []
    for k in range(order // 2):
        alpha = 2.0 * np.sin((2 * k + 1) * np.pi / (2 * order))
        a0 = c * c + alpha * c + 1.0
        a1 = 2.0 * (1.0 - c * c) / a0
        a2 = (c * c - alpha * c + 1.0) / a0
        if highpass:
            b0, b1, b2 = c * c / a0, -2.0 * c * c / a0, c * c / a0
        else:
            b0, b1, b2 = 1.0 / a0, 2.0 / a0, 1.0 / a0
        sections.append((b0, b1, b2, a1, a2))
    return sections


def pole_radius(cascade: BiquadCascade) -> float:
    worst = 0.0
    for _, _, _, a1, a2 in cascade.sections:
        roots = np.roots([1.0, a1, a2])
        worst = max(worst, float(np.max(np.abs(roots))))
    return worst


def design_butterworth(order: int, cutoff_hz, sr_hz: float, kind: str) -> BiquadCascade:
    """Stable biquad cascade; magnitude is exactly -3.01 dB at the cutoff.

    ``bandpass`` takes a (low, high) cutoff pair and is realized as a
    highpass-then-lowpass cascade of the same order each.
    """
    if order not in _ORDERS:
        raise UnsupportedOrder(f"order must be one of {_ORDERS}, got {order}")
    nyquist = sr_hz / 2.0
    if kind == "bandpass":
        lo, hi = cutoff_hz
        if not (0.0 < lo < hi < nyquist):
            raise InvalidCutoff(f"bandpass cutoffs {cutoff_hz} invalid for sr {sr_hz}")
        sections = (_butterworth_sections(order, lo, sr_hz, highpass=True)
                    + _butterworth_sections(order, hi, sr_hz, highpass=False))
    elif kind in ("lowpass", "highpass"):
        fc = float(cutoff_hz)
        if not (0.0 < fc < nyquist):
            raise InvalidCutoff(f"cutoff {fc} Hz outside (0, {nyquist})")
        sections = _butterworth_sections(order, fc, sr_hz, highpass=(kind == "highpass"))
    else:
        raise ValueError(f"unknown filter kind {kind!r}")
    cascade = BiquadCascade(sections, sr_hz)
    if pole_radius(cascade) >= 1.0 - 1e-6:
        raise InvalidCutoff(f"{kind} at {cutoff_hz} Hz yields near-unstable poles")
    return cascade


def frequency_response(cascade: BiquadCascade, freqs_hz) -> np.ndarray:
    """Complex response of the cascade at the given frequencies."""
    w = 2.0 * np.pi * np.asarray(freqs_hz, dtype=np.float64) / cascade.sample_rate
    z1 = np.exp(-1j * w)
    z2 = z1 * z1
    h = np.ones_like(z1)
    for b0, b1, b2, a1, a2 in cascade.sections:
        h = h * (b0 + b1 * z1 + b2 * z2) / (1.0 + a1 * z1 + a2 * z2)
    return h


# Samples per block in filter_apply. On a 3 s clip through order-8 filters
# (one BLAS thread), 64 ran about as fast and 256 about 1.4x slower.
_FILTER_BLOCK = 128


def _section_blocks(b0, b1, b2, a1, a2, m: int):
    """Block matrices of one DF2T biquad over m-sample blocks.

    The section is the 2-state system s[n+1] = A s[n] + B x[n],
    y[n] = C s[n] + D x[n] with A = [[-a1, 1], [-a2, 0]],
    B = [b1 - a1 b0, b2 - a2 b0], C = [1, 0], D = b0. Returns the
    upper-triangular Toeplitz matrix of impulse-response taps [m, m], the
    input-to-end-state map [m, 2], the start-state-to-output map C A^j
    [2, m], and A^m.
    """
    a = np.array([[-a1, 1.0], [-a2, 0.0]])
    powers = np.empty((m + 1, 2, 2))  # A^0 .. A^m, by doubling
    powers[0] = np.eye(2)
    powers[1] = a
    k = 1
    while k < m:
        step = min(k, m - k)
        powers[k + 1:k + 1 + step] = powers[1:1 + step] @ powers[k]
        k += step
    ab = powers[:m] @ np.array([b1 - a1 * b0, b2 - a2 * b0])  # A^j B
    taps = np.empty(m)
    taps[0] = b0
    taps[1:] = ab[:m - 1, 0]
    lag = np.arange(m)
    toeplitz = np.triu(taps[np.abs(lag[None, :] - lag[:, None])])
    return toeplitz, ab[::-1], powers[:m, 0, :].T, powers[m]


def filter_apply(cascade: BiquadCascade, buf: AudioBuffer) -> AudioBuffer:
    """Zero-initial-state direct-form-II-transposed filtering.

    Each section runs block-parallel (Burrus 1972): the signal is cut into
    ``_FILTER_BLOCK``-sample blocks, each block's zero-state response and end
    state are matrix products, and a recurrence over blocks carries the state
    across block boundaries. The output matches sequential per-sample
    filtering within 1e-10 x its peak (at most 7e-12 measured on order-8
    filters down to a 10 Hz highpass).
    """
    if cascade.sample_rate and buf.sample_rate != cascade.sample_rate:
        raise ValueError(
            f"sample rate {buf.sample_rate} != filter design rate {cascade.sample_rate}")
    x = np.asarray(buf.samples)
    n = len(x)
    m = _FILTER_BLOCK
    n_blocks = -(-n // m)
    y = np.zeros(n_blocks * m)
    y[:n] = x
    for section in cascade.sections:
        toeplitz, to_state, from_state, a_m = _section_blocks(*section, m)
        blocks = y.reshape(n_blocks, m)
        (p, q), (r, t) = a_m.tolist()
        s1 = s2 = 0.0
        starts = []
        for e1, e2 in (blocks @ to_state).tolist():
            starts.append((s1, s2))
            s1, s2 = p * s1 + q * s2 + e1, r * s1 + t * s2 + e2
        y = (blocks @ toeplitz + np.array(starts).reshape(n_blocks, 2) @ from_state).ravel()
    return AudioBuffer(y[:n].astype(x.dtype), buf.sample_rate)


# -- factor-4 resampling ----------------------------------------------------------

RESAMPLE_FACTOR = 4
_ZERO_CROSSINGS = 16
_HALF = RESAMPLE_FACTOR * _ZERO_CROSSINGS  # kernel half-width in high-rate taps
# Low-rate samples either resampler reads past each side of an output sample:
# interpolation 16 inputs, decimation 64 high-rate taps.
RESAMPLE_HALO = _ZERO_CROSSINGS
_TAPS = 2 * _HALF + 1
# Window rows per product in _interpolate: numpy copies strided windows whole
# before a matrix-matrix product (not _decimate's matrix-vector one), 42 MB in
# one product at 20 s; cache-sized blocks bound the copy and ran 3x faster.
_INTERP_ROWS = 4096


@functools.lru_cache(maxsize=4)
def _sinc_kernels(dtype_name: str):
    """(up, down) Hann-windowed sinc kernels, both DC-normalized.

    The upsampling kernel is normalized per polyphase branch so a constant
    input maps to the same constant; the decimation kernel sums to one.
    """
    t = np.arange(-_HALF, _HALF + 1, dtype=np.float64)
    raw = np.sinc(t / RESAMPLE_FACTOR) * np.hanning(_TAPS)
    up = raw.copy()
    for phase in range(RESAMPLE_FACTOR):
        sel = (np.arange(_TAPS) - _HALF) % RESAMPLE_FACTOR == phase
        up[sel] /= up[sel].sum()
    down = raw / raw.sum()
    dt = np.dtype(dtype_name)
    up = up.astype(dt)
    down = down.astype(dt)
    up.setflags(write=False)
    down.setflags(write=False)
    return up, down


def _windows(x: np.ndarray, pad: int, width: int, step: int, dtype) -> np.ndarray:
    """Read-only windows [..., count, width] over x zero-padded by ``pad`` at
    both ends of its last axis (as dtype); window i starts at i * step."""
    xp = np.zeros(x.shape[:-1] + (x.shape[-1] + 2 * pad,), dtype=dtype)
    xp[..., pad:-pad] = x
    return strided_view(xp, ((xp.shape[-1] - width) // step + 1, width), (step, 1))


def _decimate(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """[..., 4N] -> [..., N]: y[m] = sum_j x[4m + j - 64] kernel[j]."""
    return _windows(x, _HALF, _TAPS, RESAMPLE_FACTOR, kernel.dtype) @ kernel


def _interpolate(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """[..., N] -> [..., 4N], the exact adjoint of :func:`_decimate`.

    Output phase r at input sample m takes taps r, r + 4, ... against the 33
    inputs around m: one product of those windows with the [33, 4] polyphase
    matrix, taken ``_INTERP_ROWS`` windows at a time, gives all four phases,
    which a reshape interleaves.
    """
    phases = np.pad(kernel, (0, RESAMPLE_FACTOR - 1)).reshape(-1, RESAMPLE_FACTOR)[::-1]
    windows = _windows(x, _ZERO_CROSSINGS, len(phases), 1, kernel.dtype)
    out = np.empty(windows.shape[:-1] + (RESAMPLE_FACTOR,), kernel.dtype)
    for s in range(0, x.shape[-1], _INTERP_ROWS):
        np.matmul(windows[..., s:s + _INTERP_ROWS, :], phases,
                  out=out[..., s:s + _INTERP_ROWS, :])
    return out.reshape(x.shape[:-1] + (-1,))


def upsample_4x(x) -> Tensor:
    """Windowed-sinc interpolation along the last axis, [..., N] -> [..., 4N]:
    :func:`_interpolate`, differentiated through its adjoint :func:`_decimate`."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    kernel, _ = _sinc_kernels(x.dtype.name)

    def backward(g):
        x._accum(_decimate(g, kernel))

    return Tensor._make(_interpolate(x.data, kernel), (x,), backward, "upsample_4x")


def downsample_4x(x) -> Tensor:
    """Anti-aliased decimation along the last axis, [..., 4N] -> [..., N]:
    :func:`_decimate`, differentiated through its adjoint :func:`_interpolate`."""
    if not isinstance(x, Tensor):
        x = Tensor(x)
    n = x.shape[-1]
    if n % RESAMPLE_FACTOR:
        raise LengthNotDivisible(f"length {n} not divisible by {RESAMPLE_FACTOR}")
    _, kernel = _sinc_kernels(x.dtype.name)

    def backward(g):
        x._accum(_interpolate(g, kernel))

    return Tensor._make(_decimate(x.data, kernel), (x,), backward, "downsample_4x")


# -- linear convolution ------------------------------------------------------------


def convolve_full(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Linear convolution of x with r, trimmed to len(x).

    Trimming keeps a reverberated signal aligned with its dry source.
    Computed by pointwise multiplication of zero-padded one-sided spectra.
    """
    if len(x) == 0 or len(r) == 0:
        raise ValueError("convolve_full requires non-empty inputs")
    full_len = len(x) + len(r) - 1
    n = 1 << (full_len - 1).bit_length()
    return fft(fft(x, n) * fft(r, n), n, inverse=True)[:len(x)]
