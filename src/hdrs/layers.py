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

from .tensor import Tensor, _unbroadcast, grad_enabled, stable_sigmoid


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


# Bytes of one contiguous im2col block in conv1d, and of one block of tap
# products in conv_transpose1d: a few MiB stays cache-sized and bounds the
# temporary independently of the input length.
_IM2COL_BYTES = 4 << 20


def conv1d_length(length: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    span = dilation * (kernel - 1) + 1
    return (length + 2 * padding - span) // stride + 1


def conv_transpose1d_length(length: int, kernel: int, stride: int, padding: int,
                            dilation: int) -> int:
    return (length - 1) * stride - 2 * padding + dilation * (kernel - 1) + 1


def _gather_patches(xp: np.ndarray, kernel: int, stride: int, dilation: int,
                    l_out: int) -> np.ndarray:
    """[..., C, L] -> [..., C, kernel, l_out] strided view of every tap."""
    s = xp.strides
    return as_strided(xp, xp.shape[:-1] + (kernel, l_out),
                      s[:-1] + (dilation * s[-1], stride * s[-1]))


def _scatter_patches(target: np.ndarray, patches: np.ndarray, kernel: int,
                     stride: int, dilation: int) -> None:
    l_out = patches.shape[-1]
    hi = stride * (l_out - 1) + 1
    for j in range(kernel):
        target[..., j * dilation:j * dilation + hi:stride] += patches[..., j, :]


def _pad_last(a: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(pad, pad)])


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Strided dilated convolution over [..., in_ch, L] -> [..., out_ch, L'].

    Leading axes are independent items; the im2col product broadcasts over them.
    """
    c_out, c_in, k = p.weight.shape
    if x.data.ndim < 2 or x.shape[-2] != c_in:
        raise ValueError(f"conv1d input {x.shape} does not match weight {p.weight.shape}")
    lead, length = x.shape[:-2], x.shape[-1]
    span = p.dilation * (k - 1) + 1
    if length + 2 * p.padding < span:
        raise InputTooShort(
            f"length {length} + 2*{p.padding} pad < receptive span {span}")
    l_out = conv1d_length(length, k, p.stride, p.padding, p.dilation)
    xp = _pad_last(x.data, p.padding) if p.padding else x.data
    patches = _gather_patches(xp, k, p.stride, p.dilation, l_out)
    w2 = p.weight.data.reshape(c_out, c_in * k)
    out = np.empty(lead + (c_out, l_out), dtype=np.result_type(w2, xp))
    # im2col one block of output columns at a time, each copy at most _IM2COL_BYTES
    step = max(1, _IM2COL_BYTES // (patches[..., :1].size * xp.itemsize))
    for s in range(0, l_out, step):
        e = min(s + step, l_out)
        block = np.ascontiguousarray(patches[..., s:e]).reshape(lead + (c_in * k, e - s))
        np.matmul(w2, block, out=out[..., s:e])
    if p.bias is not None:
        out += p.bias.data[:, None]

    def backward(g):
        gxp = np.zeros_like(xp)
        if p.stride == 1:
            # tap j reads the contiguous slice xp[..., j*d : j*d + l_out], so
            # both gradients are taken tap by tap on views, with no im2col copy
            w = p.weight.data
            w_taps = np.ascontiguousarray(w.transpose(2, 1, 0))  # [k, c_in, c_out]
            gw = np.empty_like(w)
            gx_j = np.empty(lead + (c_in, l_out), dtype=gxp.dtype)
            for j in range(k):
                s = j * p.dilation
                gw[:, :, j] = _unbroadcast(g @ xp[..., s:s + l_out].swapaxes(-1, -2),
                                           (c_out, c_in))
                if c_out == 1:  # rank 1: the broadcast product is the K=1 matmul
                    np.multiply(w_taps[j], g, out=gx_j)
                else:
                    np.matmul(w_taps[j], g, out=gx_j)
                gxp[..., s:s + l_out] += gx_j
            p.weight._accum(gw)
        else:
            flat = np.ascontiguousarray(patches).reshape(lead + (c_in * k, l_out))
            p.weight._accum(_unbroadcast(g @ flat.swapaxes(-1, -2), w2.shape)
                            .reshape(c_out, c_in, k))
            gp = (w2.T @ g).reshape(lead + (c_in, k, l_out))
            _scatter_patches(gxp, gp, k, p.stride, p.dilation)
        if p.bias is not None:
            p.bias._accum(_unbroadcast(g.sum(axis=-1), (c_out,)))
        x._accum(gxp[..., p.padding:xp.shape[-1] - p.padding] if p.padding else gxp)

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return Tensor._make(out, parents, backward, "conv1d")


def conv_transpose1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Adjoint of conv1d over [..., in_ch, L] -> [..., out_ch, L'] with dilation support."""
    c_in, c_out, k = p.weight.shape
    if x.data.ndim < 2 or x.shape[-2] != c_in:
        raise ValueError(f"conv_transpose1d input {x.shape} vs weight {p.weight.shape}")
    lead, l_in = x.shape[:-2], x.shape[-1]
    l_out = conv_transpose1d_length(l_in, k, p.stride, p.padding, p.dilation)
    if l_out <= 0:
        raise NegativeOutputLength(f"output length {l_out} for input {l_in}")
    l_full = (l_in - 1) * p.stride + p.dilation * (k - 1) + 1
    w2 = p.weight.data.reshape(c_in, c_out * k)
    full = np.zeros(lead + (c_out, l_full), dtype=x.dtype)
    # scatter the tap products of one block of input columns at a time, each
    # block at most _IM2COL_BYTES and never one lone column (BLAS would take
    # its matrix-vector path and round differently); every output sample sums
    # the same products whatever the blocks
    step = max(2, _IM2COL_BYTES // (c_out * k * int(np.prod(lead)) * x.data.itemsize))
    s = 0
    while s < l_in:
        e = l_in if l_in - s <= step + 1 else s + step
        gp = (w2.T @ x.data[..., s:e]).reshape(lead + (c_out, k, e - s))
        _scatter_patches(full[..., s * p.stride:], gp, k, p.stride, p.dilation)
        s = e
    out = full[..., p.padding:l_full - p.padding] if p.padding else full
    if p.bias is not None:
        out += p.bias.data[:, None]

    def backward(g):
        gfull = _pad_last(g, p.padding) if p.padding else g
        patches = _gather_patches(gfull, k, p.stride, p.dilation, l_in)
        flat = np.ascontiguousarray(patches).reshape(lead + (c_out * k, l_in))
        x._accum(w2 @ flat)
        p.weight._accum(_unbroadcast(x.data @ flat.swapaxes(-1, -2), w2.shape)
                        .reshape(c_in, c_out, k))
        if p.bias is not None:
            p.bias._accum(_unbroadcast(g.sum(axis=-1), (c_out,)))

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return Tensor._make(out, parents, backward, "conv_transpose1d")


def glu(x: Tensor) -> Tensor:
    """Gated linear unit over the channel axis of [..., C, L]: a * sigmoid(b)."""
    c = x.shape[-2]
    if c % 2:
        raise OddChannels(f"GLU needs an even channel count, got {c}")
    half = c // 2
    a = x.data[..., :half, :]
    out = stable_sigmoid(x.data[..., half:, :])
    out *= a

    def backward(g):
        gate = stable_sigmoid(x.data[..., half:, :])  # recomputed, so no tape holds it
        gx = np.empty_like(x.data)
        gx[..., :half, :] = g * gate
        gx[..., half:, :] = g * a * gate * (1.0 - gate)
        x._accum(gx)

    return Tensor._make(out, (x,), backward, "glu")


def _gate_views(gates: np.ndarray, h_dim: int) -> list:
    """The (input, forget, cell, output) slices of [T, B, 4H] gate storage."""
    return [gates[..., k * h_dim:(k + 1) * h_dim] for k in range(4)]


def lstm_forward(x: Tensor, p: LstmParams, state: list | None = None) -> Tensor:
    """Stacked unidirectional LSTM over [..., T, in] -> [..., T, H].

    Leading axes are independent sequences, stepped together as the B rows
    of one [B, H] state. Implemented as a single fused op: the forward loop
    stores per-step gate activations so the backward pass can run full BPTT
    without growing the tape with T nodes. Each step makes 11 numpy calls
    into buffers made before the loop: ``np.dot(w_hh, h.T)`` (w_hh on the
    left, so B=1 stays a matrix-vector product and at larger B one BLAS call
    beats B of them), one tanh over all 4H gates, and in-place cell and
    output updates. The gates equal ``stable_sigmoid`` (i, f, o) and
    ``tanh`` (cell) of the pre-activation bit for bit.

    The initial state is zero unless ``state`` is given: a list, empty for a
    zero state or holding one ``(h, c)`` pair of [B, H] arrays per layer,
    that the call replaces with the final pairs, so one sequence can be
    stepped through in consecutive calls. A carried state is refused under
    a recording tape, whose BPTT backward assumes a zero initial state.
    """
    if state is not None and grad_enabled():
        raise ValueError("a carried LSTM state needs no_grad(); the backward assumes zero state")
    lead, t_len = x.shape[:-2], x.shape[-2]
    # time-major [T, B, in], so every step reads and writes contiguous rows
    seq = np.ascontiguousarray(np.swapaxes(x.data.reshape((-1,) + x.shape[-2:]), 0, 1))
    n_b = seq.shape[1]
    caches, final = [], []
    for layer, (w_ih, w_hh, b) in enumerate(p.layers):
        h_dim = w_hh.shape[1]
        rows = seq.reshape(t_len * n_b, -1)
        # a lone row would take BLAS's matrix-vector path, which rounds unlike
        # the matrix product, so a one-step call is computed as two rows
        pre = ((np.repeat(rows, 2, axis=0) if len(rows) == 1 else rows) @ w_ih.data.T
               + b.data)[:t_len * n_b].reshape(t_len, n_b, 4 * h_dim)
        gates = np.empty_like(pre)
        i, f, gc, o = _gate_views(gates, h_dim)
        cells = np.empty((t_len, n_b, h_dim), dtype=pre.dtype)
        outs = np.empty_like(cells)
        if state:
            h, c = state[layer]
        else:
            h = c = np.zeros((n_b, h_dim), dtype=pre.dtype)  # read, never written
        w = w_hh.data
        # i, f and o are stable_sigmoid(z) = 0.5*tanh(0.5*z) + 0.5 and the cell
        # gate is tanh(z): one tanh between a scale of 0.5 (1 on the cell gate)
        # and a shift of 0.5 (-0.0 on it), both exact, so each keeps its bits
        scale = np.full((n_b, 4 * h_dim), 0.5, dtype=pre.dtype)
        shift = scale.copy()
        scale[:, 2 * h_dim:3 * h_dim] = 1.0
        shift[:, 2 * h_dim:3 * h_dim] = -0.0
        zt = np.empty((4 * h_dim, n_b), dtype=np.result_type(w, pre))
        ig = np.empty((n_b, h_dim), dtype=pre.dtype)
        for pre_t, z, c_t, h_t, i_t, f_t, g_t, o_t in zip(pre, gates, cells, outs, i, f, gc, o):
            np.dot(w, h.T, out=zt)  # the bits of (w @ h.T).T, read transposed
            np.add(pre_t, zt.T, out=z)
            z *= scale
            np.tanh(z, out=z)
            z *= scale
            z += shift
            np.multiply(i_t, g_t, out=ig)
            c = np.multiply(f_t, c, out=c_t)
            c += ig
            h = np.tanh(c, out=h_t)
            h *= o_t
        caches.append((seq, gates, cells, outs))
        if state is not None:
            final.append((h.copy(), c.copy()))  # copies: h and c view the step storage
        seq = outs
    if state is not None:
        state[:] = final
    out = np.ascontiguousarray(np.swapaxes(seq, 0, 1)).reshape(lead + (t_len, seq.shape[-1]))

    def backward(g):
        grad_seq = np.swapaxes(g.reshape((n_b,) + g.shape[-2:]), 0, 1)
        for (w_ih, w_hh, b), (inp, gates, cells, outs) in zip(reversed(p.layers),
                                                              reversed(caches)):
            h_dim = w_hh.shape[1]
            i, f, gc, o = _gate_views(gates, h_dim)
            tanh_c = np.tanh(cells)
            c_prev = np.concatenate([np.zeros_like(cells[:1]), cells[:-1]])
            # Everything but the recurrence, over all T at once: dc/dh and the
            # gate pre-activation factors K, so that dz[t] = [dc, dc, dc, dh] * K[t].
            dc_dh = o * (1.0 - tanh_c * tanh_c)
            k_all = np.stack([gc * i * (1.0 - i), c_prev * f * (1.0 - f),
                              i * (1.0 - gc * gc), tanh_c * o * (1.0 - o)], axis=2)
            dz_all = np.empty_like(k_all)
            w_t = np.ascontiguousarray(w_hh.data.T)
            dh_next = np.zeros((n_b, h_dim), dtype=inp.dtype)
            dc_next = np.zeros((n_b, h_dim), dtype=inp.dtype)
            for t in range(t_len - 1, -1, -1):
                dh = grad_seq[t] + dh_next
                dc = dc_next + dh * dc_dh[t]
                kt, dz = k_all[t], dz_all[t]
                np.multiply(kt[:, :3], dc[:, None], out=dz[:, :3])
                np.multiply(kt[:, 3], dh, out=dz[:, 3])
                dh_next = (w_t @ dz.reshape(n_b, 4 * h_dim).T).T
                dc_next = dc * f[t]
            dz_flat = dz_all.reshape(t_len * n_b, 4 * h_dim)
            h_prev = np.concatenate([np.zeros_like(outs[:1]), outs[:-1]])
            w_ih._accum(dz_flat.T @ inp.reshape(t_len * n_b, -1))
            w_hh._accum(dz_flat.T @ h_prev.reshape(t_len * n_b, h_dim))
            b._accum(dz_flat.sum(axis=0))
            grad_seq = (dz_flat @ w_ih.data).reshape(t_len, n_b, -1)
        x._accum(np.ascontiguousarray(np.swapaxes(grad_seq, 0, 1)).reshape(x.shape))

    parents = [x]
    for layer in p.layers:
        parents.extend(layer)
    return Tensor._make(out, tuple(parents), backward, "lstm")


def uniform_init(rng: np.random.Generator, shape, fan_in: int, dtype) -> np.ndarray:
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(dtype)
