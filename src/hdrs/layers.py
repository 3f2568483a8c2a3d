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

from .tensor import Tensor, _unbroadcast, grad_enabled, stable_sigmoid, strided_view


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


# Bytes of one im2col block or one block of tap products: a few MiB stays
# cache-sized and bounds the temporary independently of the input length.
_IM2COL_BYTES = 4 << 20


def conv1d_length(length: int, kernel: int, stride: int, padding: int, dilation: int) -> int:
    span = dilation * (kernel - 1) + 1
    return (length + 2 * padding - span) // stride + 1


def conv_transpose1d_length(length: int, kernel: int, stride: int, padding: int,
                            dilation: int) -> int:
    return (length - 1) * stride - 2 * padding + dilation * (kernel - 1) + 1


def _pad_last(a: np.ndarray, pad: int) -> np.ndarray:
    return np.pad(a, [(0, 0)] * (a.ndim - 1) + [(pad, pad)]) if pad else a


def _blocks(n: int, column_bytes: int):
    """[s, e) column ranges, one item's block at most _IM2COL_BYTES and never
    one lone column, for which BLAS would take its matrix-vector path."""
    step = max(2, _IM2COL_BYTES // column_bytes)
    ends = list(range(step, n - 1, step)) + [n]
    return zip([0] + ends[:-1], ends)


def _gather(xp: np.ndarray, w: np.ndarray, stride: int, dilation: int, l_out: int,
            g: np.ndarray | None = None):
    """[..., B, L] -> [..., A, l_out] under w [A, B, k]: sum over b, j of
    w[a, b, j] xp[b, t*stride + j*dilation]. Each im2col block is a reshaped
    tap view, copied only where it must be: for a 1x1 stride-1 conv, xp itself.
    Given g [..., A, l_out], also returns _weight_grad(g, xp, k, stride,
    dilation), bit for bit, from the same im2col blocks."""
    a, b, k = w.shape
    patches = strided_view(xp, (k, l_out), (dilation, stride))  # [..., B, k, l_out]
    out = np.empty(xp.shape[:-2] + (a, l_out), dtype=np.result_type(w, xp))
    gw = None if g is None else np.zeros((a, b * k), dtype=np.result_type(g, xp))
    for i in np.ndindex(xp.shape[:-2]):
        for s, e in _blocks(l_out, b * k * xp.itemsize):
            col = patches[i][..., s:e].reshape(b * k, e - s)
            np.matmul(w.reshape(a, b * k), col, out=out[i][:, s:e])
            if gw is not None:
                gw += g[i][:, s:e] @ col.T
            del col  # so the next block can take its memory
    return out if gw is None else (out, gw.reshape(a, b, k))


def _scatter(y: np.ndarray, w: np.ndarray, stride: int, dilation: int, length: int):
    """The exact adjoint of _gather, [..., A, l] -> [..., B, length]: adds
    w[a, b, j] y[a, t] onto out[b, t*stride + j*dilation]. The model's convs
    all have kernel 8 and stride 4 (``hdrs.model.KERNEL``, ``STRIDE``) and an
    odd dilation (one of ``hdrs.model.REFINEMENT_DILATIONS``, or 1), so every
    output sums two products and blocks keep every bit."""
    a, b, k = w.shape
    wt = w.reshape(a, b * k).T
    out = np.zeros(y.shape[:-2] + (b, length), dtype=np.result_type(w, y))
    for i in np.ndindex(y.shape[:-2]):
        for s, e in _blocks(y.shape[-1], b * k * y.itemsize):
            # [b * k, e - s] tap products; with one channel in y a broadcast beats K=1 matmul
            gp = wt * y[i][:, s:e] if a == 1 else wt @ y[i][:, s:e]
            for j in range(k):
                o = s * stride + j * dilation
                out[i][:, o:o + stride * (e - s - 1) + 1:stride] += gp[j::k]
            del gp  # so the next block can take its memory
    return out


def _weight_grad(g: np.ndarray, xp: np.ndarray, kernel: int, stride: int, dilation: int):
    """The gradient in w of _gather(xp) and of _scatter(g), for both convs:
    sum over items and t of g[a, t] xp[b, t*stride + j*dilation]."""
    a, b, l = g.shape[-2], xp.shape[-2], g.shape[-1]
    patches = strided_view(xp, (kernel, l), (dilation, stride))
    gw = np.zeros((a, b * kernel), dtype=np.result_type(g, xp))
    for i in np.ndindex(g.shape[:-2]):
        for s, e in _blocks(l, b * kernel * xp.itemsize):
            gw += g[i][:, s:e] @ patches[i][..., s:e].reshape(b * kernel, e - s).T
    return gw.reshape(a, b, kernel)


def _conv_node(x: Tensor, p: Conv1dParams, out: np.ndarray, grads, op: str) -> Tensor:
    """Adds the bias to out and records it; grads(g) gives (weight grad, input grad)."""
    if p.bias is not None:
        out += p.bias.data[:, None]

    def backward(g):
        gw, gx = grads(g)
        p.weight._accum(gw)
        x._accum(gx)
        if p.bias is not None:
            p.bias._accum(_unbroadcast(g.sum(axis=-1), p.bias.shape))

    parents = (x, p.weight) if p.bias is None else (x, p.weight, p.bias)
    return Tensor._make(out, parents, backward, op)


def conv1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Strided dilated convolution over [..., in_ch, L] -> [..., out_ch, L'], leading axes
    being independent items: _gather forward, _scatter backward."""
    _, c_in, k = p.weight.shape
    if x.data.ndim < 2 or x.shape[-2] != c_in:
        raise ValueError(f"conv1d input {x.shape} does not match weight {p.weight.shape}")
    length, pad, w = x.shape[-1], p.padding, p.weight.data
    span = p.dilation * (k - 1) + 1
    if length + 2 * pad < span:
        raise InputTooShort(f"length {length} + 2*{pad} pad < receptive span {span}")
    l_out = conv1d_length(length, k, p.stride, pad, p.dilation)
    out = _gather(_pad_last(x.data, pad), w, p.stride, p.dilation, l_out)
    # the backward pads the input again, so no tape holds the padded copy
    return _conv_node(x, p, out, lambda g: (
        _weight_grad(g, _pad_last(x.data, pad), k, p.stride, p.dilation),
        _scatter(g, w, p.stride, p.dilation, length + 2 * pad)[..., pad:pad + length]),
        "conv1d")


def conv_transpose1d(x: Tensor, p: Conv1dParams) -> Tensor:
    """Adjoint of conv1d over [..., in_ch, L] -> [..., out_ch, L'] with dilation support:
    _scatter forward, _gather backward."""
    c_in, _, k = p.weight.shape
    if x.data.ndim < 2 or x.shape[-2] != c_in:
        raise ValueError(f"conv_transpose1d input {x.shape} vs weight {p.weight.shape}")
    l_in, pad, w = x.shape[-1], p.padding, p.weight.data
    l_out = conv_transpose1d_length(l_in, k, p.stride, pad, p.dilation)
    if l_out <= 0:
        raise NegativeOutputLength(f"output length {l_out} for input {l_in}")
    out = _scatter(x.data, w, p.stride, p.dilation, l_out + 2 * pad)[..., pad:pad + l_out]

    def grads(g):
        gx, gw = _gather(_pad_last(g, pad), w, p.stride, p.dilation, l_in, x.data)
        return gw, gx

    return _conv_node(x, p, out, grads, "conv_transpose1d")


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
        np.multiply(g, gate, out=gx[..., :half, :])
        gb = np.multiply(g, a, out=gx[..., half:, :])  # ((g * a) * gate) * (1 - gate)
        gb *= gate
        gb *= np.subtract(1.0, gate, out=gate)
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
            dh, dc, dc_next = (np.zeros((n_b, h_dim), dtype=inp.dtype) for _ in range(3))
            dh_next_t = np.zeros((h_dim, n_b), dtype=np.result_type(w_t, dz_all))
            for t in range(t_len - 1, -1, -1):
                np.add(grad_seq[t], dh_next_t.T, out=dh)
                np.multiply(dh, dc_dh[t], out=dc)
                dc += dc_next
                kt, dz = k_all[t], dz_all[t]
                np.multiply(kt[:, :3], dc[:, None], out=dz[:, :3])
                np.multiply(kt[:, 3], dh, out=dz[:, 3])
                np.dot(w_t, dz.reshape(n_b, 4 * h_dim).T, out=dh_next_t)
                np.multiply(dc, f[t], out=dc_next)
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
