"""Learnable layers: strided/dilated 1-D convolutions, GLU, and LSTM.

Convolutions follow the cross-correlation convention (no kernel flip) so
stored checkpoints are portable. conv1d weights are laid out
``[out_ch, in_ch, kernel]`` and transposed-conv weights ``[in_ch, out_ch,
kernel]``; with a shared weight array the two ops are exact adjoints of
each other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tensor, stable_sigmoid


class InputTooShort(ValueError):
    pass


class NegativeOutputLength(ValueError):
    pass


class OddChannels(ValueError):
    pass


@dataclass
class Conv1dParams:
    weight: Tensor  # conv: [out_ch, in_ch, k]; transposed: [in_ch, out_ch, k]
    bias: Tensor | None = None
    stride: int = 1
    padding: int = 0
    dilation: int = 1


@dataclass
class LstmParams:
    """Per layer: (w_ih [4H x in], w_hh [4H x H], bias [4H]).

    Gate order is fixed as (input, forget, cell, output).
    """
    layers: list


def conv1d_length(length: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    span = dilation * (kernel - 1) + 1
    return (length + 2 * padding - span) // stride + 1


def conv_transpose1d_length(length: int, kernel: int, stride: int, padding: int,
                            dilation: int) -> int:
    return (length - 1) * stride - 2 * padding + dilation * (kernel - 1) + 1


def _gather_patches(xp: np.ndarray, kernel: int, stride: int, dilation: int,
                    l_out: int) -> np.ndarray:
    c, s = xp.shape[0], xp.strides
    return as_strided(xp, (c, kernel, l_out), (s[0], dilation * s[1], stride * s[1]))


def _scatter_patches(target: np.ndarray, patches: np.ndarray, kernel: int,
                     stride: int, dilation: int) -> None:
    l_out = patches.shape[2]
    hi = stride * (l_out - 1) + 1
    for j in range(kernel):
        target[:, j * dilation:j * dilation + hi:stride] += patches[:, j, :]


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Strided dilated convolution over [in_ch, L] -> [out_ch, L']."""
    c_out, c_in, k = p.weight.shape
    if x.data.ndim != 2 or x.shape[0] != c_in:
        raise ValueError(f"conv1d input {x.shape} does not match weight {p.weight.shape}")
    span = p.dilation * (k - 1) + 1
    if x.shape[1] + 2 * p.padding < span:
        raise InputTooShort(
            f"length {x.shape[1]} + 2*{p.padding} pad < receptive span {span}")
    l_out = conv1d_length(x.shape[1], k, p.stride, p.padding, p.dilation)
    xp = np.pad(x.data, ((0, 0), (p.padding, p.padding))) if p.padding else x.data
    patches = _gather_patches(xp, k, p.stride, p.dilation, l_out)
    flat = np.ascontiguousarray(patches).reshape(c_in * k, l_out)
    w2 = p.weight.data.reshape(c_out, c_in * k)
    out = w2 @ flat
    if p.bias is not None:
        out = out + p.bias.data[:, None]

    def backward(g):
        p.weight._accum((g @ flat.T).reshape(c_out, c_in, k))
        if p.bias is not None:
            p.bias._accum(g.sum(axis=1))
        gp = (w2.T @ g).reshape(c_in, k, l_out)
        gxp = np.zeros_like(xp)
        _scatter_patches(gxp, gp, k, p.stride, p.dilation)
        x._accum(gxp[:, p.padding:xp.shape[1] - p.padding] if p.padding else gxp)

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return Tensor._make(np.ascontiguousarray(out), parents, backward, "conv1d")


def conv_transpose1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Adjoint of conv1d over [in_ch, L] -> [out_ch, L'] with dilation support."""
    c_in, c_out, k = p.weight.shape
    if x.data.ndim != 2 or x.shape[0] != c_in:
        raise ValueError(f"conv_transpose1d input {x.shape} vs weight {p.weight.shape}")
    l_in = x.shape[1]
    l_out = conv_transpose1d_length(l_in, k, p.stride, p.padding, p.dilation)
    if l_out <= 0:
        raise NegativeOutputLength(f"output length {l_out} for input {l_in}")
    l_full = (l_in - 1) * p.stride + p.dilation * (k - 1) + 1
    w2 = p.weight.data.reshape(c_in, c_out * k)
    gp = (w2.T @ x.data).reshape(c_out, k, l_in)
    full = np.zeros((c_out, l_full), dtype=x.dtype)
    _scatter_patches(full, gp, k, p.stride, p.dilation)
    out = full[:, p.padding:l_full - p.padding] if p.padding else full
    if p.bias is not None:
        out = out + p.bias.data[:, None]

    def backward(g):
        gfull = np.pad(g, ((0, 0), (p.padding, p.padding))) if p.padding else g
        patches = _gather_patches(gfull, k, p.stride, p.dilation, l_in)
        flat = np.ascontiguousarray(patches).reshape(c_out * k, l_in)
        x._accum(w2 @ flat)
        p.weight._accum((x.data @ flat.T).reshape(c_in, c_out, k))
        if p.bias is not None:
            p.bias._accum(g.sum(axis=1))

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return Tensor._make(np.ascontiguousarray(out), parents, backward, "conv_transpose1d")


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over the channel axis: a * sigmoid(b)."""
    c = x.shape[0]
    if c % 2:
        raise OddChannels(f"GLU needs an even channel count, got {c}")
    half = c // 2
    a = x.data[:half]
    gate_in = x.data[half:]
    gate = stable_sigmoid(gate_in)
    out = a * gate

    def backward(g):
        gx = np.empty_like(x.data)
        gx[:half] = g * gate
        gx[half:] = g * a * gate * (1.0 - gate)
        x._accum(gx)

    return Tensor._make(out, (x,), backward, "glu")


def lstm_forward(x: Tensor, p: LstmParams) -> Tensor:
    """Stacked unidirectional LSTM over [T, in] -> [T, H], zero initial state.

    Implemented as a single fused op: the forward loop stores per-step gate
    activations so the backward pass can run standard truncated-free BPTT
    without growing the tape with T nodes.
    """
    caches = []
    seq = x.data
    for (w_ih, w_hh, b) in p.layers:
        h_dim = w_hh.shape[1]
        t_len = seq.shape[0]
        pre = seq @ w_ih.data.T + b.data
        gates = np.empty((t_len, 4 * h_dim), dtype=seq.dtype)
        cells = np.empty((t_len, h_dim), dtype=seq.dtype)
        outs = np.empty((t_len, h_dim), dtype=seq.dtype)
        h = np.zeros(h_dim, dtype=seq.dtype)
        c = np.zeros(h_dim, dtype=seq.dtype)
        w_hh_t = w_hh.data.T
        for t in range(t_len):
            z = pre[t] + h @ w_hh_t
            gt = gates[t]
            gt[:] = stable_sigmoid(z)
            gt[2 * h_dim:3 * h_dim] = np.tanh(z[2 * h_dim:3 * h_dim])
            i, f, gc, o = (gt[:h_dim], gt[h_dim:2 * h_dim],
                           gt[2 * h_dim:3 * h_dim], gt[3 * h_dim:])
            c = f * c + i * gc
            h = o * np.tanh(c)
            cells[t] = c
            outs[t] = h
        caches.append((seq, gates, cells, outs))
        seq = outs

    def backward(g):
        grad_seq = g
        for (w_ih, w_hh, b), (inp, gates, cells, outs) in zip(reversed(p.layers),
                                                              reversed(caches)):
            h_dim = w_hh.shape[1]
            t_len = inp.shape[0]
            tanh_c = np.tanh(cells)
            dz_all = np.empty((t_len, 4 * h_dim), dtype=inp.dtype)
            dh_next = np.zeros(h_dim, dtype=inp.dtype)
            dc_next = np.zeros(h_dim, dtype=inp.dtype)
            for t in range(t_len - 1, -1, -1):
                i = gates[t, :h_dim]
                f = gates[t, h_dim:2 * h_dim]
                gc = gates[t, 2 * h_dim:3 * h_dim]
                o = gates[t, 3 * h_dim:]
                c_prev = cells[t - 1] if t > 0 else np.zeros(h_dim, dtype=inp.dtype)
                dh = grad_seq[t] + dh_next
                dc = dc_next + dh * o * (1.0 - tanh_c[t] * tanh_c[t])
                dz = dz_all[t]
                dz[:h_dim] = dc * gc * i * (1.0 - i)
                dz[h_dim:2 * h_dim] = dc * c_prev * f * (1.0 - f)
                dz[2 * h_dim:3 * h_dim] = dc * i * (1.0 - gc * gc)
                dz[3 * h_dim:] = dh * tanh_c[t] * o * (1.0 - o)
                dh_next = dz @ w_hh.data
                dc_next = dc * f
            h_prev = np.vstack([np.zeros((1, h_dim), dtype=inp.dtype), outs[:-1]])
            w_ih._accum(dz_all.T @ inp)
            w_hh._accum(dz_all.T @ h_prev)
            b._accum(dz_all.sum(axis=0))
            grad_seq = dz_all @ w_ih.data
        x._accum(grad_seq)

    parents = [x]
    for layer in p.layers:
        parents.extend(layer)
    return Tensor._make(seq, tuple(parents), backward, "lstm")


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
