"""Independent reference implementations used as test oracles.

Everything here is deliberately naive and written straight from the defining
formulas, without reusing any code path from the package under test.
"""

import numpy as np


def finite_difference_grad(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite differences of a scalar function over a flat array."""
    x = x.astype(np.float64)
    g = np.zeros_like(x)
    flat = x.reshape(-1)
    gf = g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f(x)
        flat[i] = orig - h
        fm = f(x)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * h)
    return g


def rel_grad_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(1, |n|), elementwise; robust near zero entries."""
    denom = np.maximum(1.0, np.abs(numeric))
    return float(np.max(np.abs(analytic - numeric) / denom))


def naive_dft(x: np.ndarray, inverse: bool = False) -> np.ndarray:
    """O(N^2) DFT straight from the definition (forward unscaled)."""
    x = np.asarray(x, dtype=np.complex128)
    n = x.shape[0]
    k = np.arange(n)
    sign = 1.0 if inverse else -1.0
    mat = np.exp(sign * 2j * np.pi * np.outer(k, k) / n)
    out = mat @ x
    if inverse:
        out = out / n
    return out


def naive_convolve_full(x: np.ndarray, r: np.ndarray) -> np.ndarray:
    """O(NM) linear convolution, full length N + M - 1."""
    x = np.asarray(x, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    out = np.zeros(len(x) + len(r) - 1)
    for i, ri in enumerate(r):
        out[i:i + len(x)] += ri * x
    return out


def naive_conv1d(x, w, b, stride=1, padding=0, dilation=1):
    """Cross-correlation conv over [C_in, L] with loops."""
    c_out, c_in, k = w.shape
    xp = np.pad(x, ((0, 0), (padding, padding)))
    span = dilation * (k - 1) + 1
    l_out = (xp.shape[1] - span) // stride + 1
    out = np.zeros((c_out, l_out))
    for o in range(c_out):
        for t in range(l_out):
            acc = b[o] if b is not None else 0.0
            for c in range(c_in):
                for j in range(k):
                    acc += w[o, c, j] * xp[c, t * stride + j * dilation]
            out[o, t] = acc
    return out


def naive_conv_transpose1d(x, w, b, stride=1, padding=0, dilation=1):
    """Adjoint of naive_conv1d; weight laid out [C_in, C_out, K]."""
    c_in, c_out, k = w.shape
    l_in = x.shape[1]
    l_full = (l_in - 1) * stride + dilation * (k - 1) + 1
    full = np.zeros((c_out, l_full))
    for i in range(c_in):
        for t in range(l_in):
            for o in range(c_out):
                for j in range(k):
                    full[o, t * stride + j * dilation] += w[i, o, j] * x[i, t]
    out = full[:, padding:l_full - padding] if padding else full
    if b is not None:
        out = out + b[:, None]
    return out


# -- MR-STFT loss, straight-line restatement -----------------------------------

LOSS_RESOLUTIONS = ((512, 50, 240), (1024, 120, 600), (2048, 240, 1200))
LOG_FLOOR = 1e-5


def ref_stft_mag(x: np.ndarray, nfft: int, hop: int, win: int) -> np.ndarray:
    """One-sided magnitude spectrogram, periodic Hann, frame zero-padded to nfft."""
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    frames = 1 + (len(x) - win) // hop
    mags = np.zeros((frames, nfft // 2 + 1))
    for t in range(frames):
        seg = x[t * hop:t * hop + win] * w
        padded = np.zeros(nfft)
        padded[:win] = seg
        mags[t] = np.abs(np.fft.rfft(padded))
    return mags


def ref_stft_input_grad(x: np.ndarray, g: np.ndarray, nfft: int, hop: int,
                        win: int) -> np.ndarray:
    """Waveform gradient of sum(g * |STFT(x)|), one frame at a time.

    Each frame's gradient is the real part of a forward DFT of the weighted
    conjugate spectrum, windowed and overlap-added onto the signal in frame
    order.
    """
    w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win) / win)
    frames = 1 + (len(x) - win) // hop
    bins = nfft // 2 + 1
    gx = np.zeros(len(x))
    for t in range(frames):
        padded = np.zeros(nfft)
        padded[:win] = x[t * hop:t * hop + win] * w
        spec = np.fft.fft(padded)[:bins]
        mag = np.abs(spec)
        full = np.zeros(nfft, dtype=np.complex128)
        full[:bins] = np.where(mag > 0, g[t] * np.conj(spec) / np.where(mag > 0, mag, 1.0), 0.0)
        gx[t * hop:t * hop + win] += np.fft.fft(full).real[:win] * w
    return gx


def ref_loss_time(x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.abs(x - y)))


def ref_loss_freq(x: np.ndarray, y: np.ndarray) -> float:
    total = 0.0
    t_len = len(x)
    for nfft, hop, win in LOSS_RESOLUTIONS:
        mx = ref_stft_mag(x, nfft, hop, win)
        my = ref_stft_mag(y, nfft, hop, win)
        sc = np.linalg.norm(mx - my) / np.linalg.norm(mx)
        mag = np.sum(np.abs(np.log(mx + LOG_FLOOR) - np.log(my + LOG_FLOOR)))
        total += sc + mag / t_len
    return float(total)


def ref_adam_trace(g_seq, lr, beta1=0.9, beta2=0.999, eps=1e-8, theta0=0.0):
    """Bias-corrected Adam on a scalar, returning the parameter after each step."""
    m = v = 0.0
    theta = theta0
    out = []
    for t, g in enumerate(g_seq, start=1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        m_hat = m / (1 - beta1 ** t)
        v_hat = v / (1 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
        out.append(theta)
    return out


def ref_si_sdr(ref: np.ndarray, est: np.ndarray) -> float:
    alpha = np.dot(est, ref) / np.dot(ref, ref)
    target = alpha * ref
    return 10 * np.log10(np.dot(target, target) / np.dot(est - target, est - target))


def naive_biquad_cascade(sections, x: np.ndarray) -> np.ndarray:
    """Sequential zero-state filtering through biquads (b0, b1, b2, a1, a2),
    one sample at a time in direct form II transposed:
    y[n] = b0 x[n] + s1, s1 <- b1 x[n] - a1 y[n] + s2, s2 <- b2 x[n] - a2 y[n]."""
    y = [float(v) for v in x]
    for b0, b1, b2, a1, a2 in sections:
        s1 = s2 = 0.0
        out = []
        for xn in y:
            yn = b0 * xn + s1
            s1 = b1 * xn - a1 * yn + s2
            s2 = b2 * xn - a2 * yn
            out.append(yn)
        y = out
    return np.asarray(y, dtype=np.float64)


def naive_interpolate_4x(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Factor-4 interpolation [..., N] -> [..., 4N] by scattering, one tap at a
    time: out[4m + j - H] += x[m] kernel[j] with H = len(kernel) // 2.

    With the upsampling kernel this is upsampling; with the decimation kernel
    it is the input gradient of decimation.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    half = len(kernel) // 2
    full = np.zeros(x.shape[:-1] + (4 * n + 2 * half,))
    for j, kj in enumerate(np.asarray(kernel, dtype=np.float64)):
        full[..., j:j + 4 * n:4] += x * kj
    return full[..., half:half + 4 * n]


def naive_decimate_4x(x: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Factor-4 decimation [..., 4N] -> [..., N], one tap at a time:
    out[m] = sum_j x[4m + j - H] kernel[j], zero outside the signal.

    With the decimation kernel this is downsampling; with the upsampling
    kernel it is the input gradient of upsampling.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1] // 4
    half = len(kernel) // 2
    xp = np.pad(x, [(0, 0)] * (x.ndim - 1) + [(half, half)])
    out = np.zeros(x.shape[:-1] + (n,))
    for j, kj in enumerate(np.asarray(kernel, dtype=np.float64)):
        out += xp[..., j:j + 4 * n:4] * kj
    return out


def naive_lstm(x: np.ndarray, layers, state=None):
    """Stacked LSTM over [B, T, in], one timestep at a time, in the gate
    order (input, forget, cell, output); returns ([B, T, H], final states).

    ``layers`` holds (w_ih [4H, in], w_hh [4H, H], b [4H]) arrays, and
    ``state`` is None for a zero state or one (h, c) pair of [B, H] arrays
    per layer. Each step forms z = pre[t] + (w_hh @ h.T).T, takes the
    logistic of all 4H as 0.5*tanh(0.5*z) + 0.5 for the i, f and o gates and
    tanh(z) for the cell gate. The input projection pre is one matrix
    product over all T*B rows; a lone row is doubled, since BLAS's
    matrix-vector path rounds unlike the matrix product.
    """
    seq = np.swapaxes(x, 0, 1)  # [T, B, in]
    t_len, n_b = seq.shape[:2]
    finals = []
    for k, (w_ih, w_hh, b) in enumerate(layers):
        hd = w_hh.shape[1]
        rows = seq.reshape(t_len * n_b, -1)
        lone = len(rows) == 1
        pre = ((np.vstack([rows, rows]) if lone else rows) @ w_ih.T + b)[:len(rows)]
        pre = pre.reshape(t_len, n_b, 4 * hd)
        if state is None:
            h = c = np.zeros((n_b, hd), dtype=pre.dtype)
        else:
            h, c = state[k]
        outs = []
        for t in range(t_len):
            z = pre[t] + (w_hh @ h.T).T
            s = 0.5 * np.tanh(0.5 * z) + 0.5
            i, f, o = s[:, :hd], s[:, hd:2 * hd], s[:, 3 * hd:]
            g = np.tanh(z[:, 2 * hd:3 * hd])
            c = f * c + i * g
            h = o * np.tanh(c)
            outs.append(h)
        finals.append((h, c))
        seq = np.stack(outs)
    return np.swapaxes(seq, 0, 1), finals
