"""Dual-decoder waveform restoration network and its ablation variants.

Topology: a 5-block strided-conv encoder over the 4x-upsampled normalized
input, a residual LSTM bottleneck, a suppression decoder that emits a [0,1]
time-domain mask, a refinement decoder with dilated transposed convolutions
that synthesizes a waveform directly, and a small convolutional fusion stack
producing a per-sample weight w in (0,1) that convexly combines the two
branches. ``demucs_baseline`` is the single-decoder ancestor network; the
remaining variants realize the ablation topologies (fixed 0.5 fusion,
refinement fed from encoder skips, single-decoder cuts).

The geometry is DEMUCS's and fixed: kernel ``KERNEL``, stride ``STRIDE``,
an ``LSTM_LAYERS``-layer LSTM, a ``FUSION_CH``-channel fusion stack and the
refinement dilations ``REFINEMENT_DILATIONS``.

Length bookkeeping: the input is right-padded to a multiple of
STRIDE**depth before upsampling, encoder convolutions use symmetric padding
``ENC_PADDING`` = (KERNEL - STRIDE) / 2 so each block divides the length by
exactly ``STRIDE``, and every transposed conv uses padding
``tconv_padding(dilation)`` = (dilation * (KERNEL-1) - (STRIDE-1)) / 2, an
integer for odd dilations, so each decoder block multiplies it by exactly
``STRIDE``. Output is trimmed back to the input length.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .audio import EmptyInput
from .dsp import RESAMPLE_FACTOR, RESAMPLE_HALO, downsample_4x, upsample_4x
from .layers import Conv1dParams, LstmParams, _gather, _scatter, _weight_grad, conv1d, \
    conv_transpose1d, glu, lstm_forward, uniform_init
from .tensor import Tensor, _unbroadcast

VARIANTS = ("hd_demucs", "demucs_baseline", "no_fusion", "no_fusion_no_skip",
            "suppression_only", "refinement_only")

STD_FLOOR = 1e-5
# DEMUCS's encoder-decoder geometry, which HD-DEMUCS keeps
KERNEL = 8
STRIDE = 4
LSTM_LAYERS = 2
FUSION_CH = 16
ENC_PADDING = (KERNEL - STRIDE) // 2
# HD-DEMUCS's refinement decoder; odd, so every tconv_padding is exact
REFINEMENT_DILATIONS = (1, 3, 5, 7, 9)

# A no-grad forward runs its input in windows, each spanning this many bytes
# at ``frame_width`` float32 values per bottleneck frame: 160 frames, 2.56 s,
# at hidden_ch 48 and depth 5, and 3840 frames, 3.84 s, at hidden_ch 4 and
# depth 3. An input of at most one window is one window. This bounds the
# forward's working set independently of the input length. Where the forward
# is pipelined (below), two windows are in flight and share the budget, each
# half of it: 80 frames, 1.28 s, at hidden_ch 48 and depth 5.
_WINDOW_BYTES = 15 << 20
# A no-grad forward of more than one window whose bottleneck LSTM is at least
# this wide (channels[-1]; 768 at hidden_ch 48 and depth 5) runs each window's
# encoder and LSTM on a helper thread one window ahead of the decoders, which
# stay on the calling thread. Its LSTM steps are matrix-vector products that
# release the GIL for long enough to overlap; at narrower widths both stages
# are chains of small numpy calls holding the GIL, and the helper costs time.
# At depth 5 on 24 s (one BLAS thread, 2-vCPU VM) the helper took a forward
# from 0.020 to 0.023 s/s at width 64, gained nothing clear at 128, and cut
# 8-23% at 192, 17-21% at 256 and 31-38% at 384 and 512.
_PIPELINE_WIDTH = 192
# Upsampled samples per column block of the fusion stack (``fuse``), whose
# fusion_ch-channel activations exist one block at a time. Of 2048 to 16384,
# 4096 ran ``fuse`` fastest at the H=4 evaluate and drill shapes and at an
# H=48 pipelined window (one BLAS thread, 2-vCPU VM).
_FUSION_BLOCK = 4096


class InvalidLength(ValueError):
    pass


@dataclass
class ModelConfig:
    hidden_ch: int = 48
    depth: int = 5
    variant: str = "hd_demucs"

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.hidden_ch < 1:
            raise ValueError(f"hidden_ch {self.hidden_ch} must be at least 1")
        if not 1 <= self.depth <= len(REFINEMENT_DILATIONS):
            raise ValueError(f"depth {self.depth} outside [1, {len(REFINEMENT_DILATIONS)}]")

    @property
    def channels(self) -> list:
        return [self.hidden_ch * (1 << i) for i in range(self.depth)]


def tconv_padding(dilation: int) -> int:
    return (dilation * (KERNEL - 1) - (STRIDE - 1)) // 2


def _branches(cfg: ModelConfig) -> list:
    v = cfg.variant
    out = []
    if v == "demucs_baseline":
        out.append(("dec", (1,) * cfg.depth))
    if v in ("hd_demucs", "no_fusion", "no_fusion_no_skip", "suppression_only"):
        out.append(("ds", (1,) * cfg.depth))
    if v in ("hd_demucs", "no_fusion", "no_fusion_no_skip", "refinement_only"):
        out.append(("dr", REFINEMENT_DILATIONS[:cfg.depth]))
    return out


def param_shapes(cfg: ModelConfig) -> list:
    """Every learnable array as (name, shape, fan_in); single source of truth
    for initialization, counting, and checkpoint layout."""
    ch = cfg.channels
    shapes = []
    c_prev = 1
    for i, c in enumerate(ch):
        shapes.append((f"enc.{i}.conv.w", (c, c_prev, KERNEL), c_prev * KERNEL))
        shapes.append((f"enc.{i}.conv.b", (c,), 0))
        shapes.append((f"enc.{i}.mix.w", (2 * c, c, 1), c))
        shapes.append((f"enc.{i}.mix.b", (2 * c,), 0))
        c_prev = c
    hid = ch[-1]
    for layer in range(LSTM_LAYERS):
        shapes.append((f"lstm.{layer}.w_ih", (4 * hid, hid), hid))
        shapes.append((f"lstm.{layer}.w_hh", (4 * hid, hid), hid))
        shapes.append((f"lstm.{layer}.b", (4 * hid,), 0))
    dec_in = ch[::-1]
    dec_out = ch[::-1][1:] + [1]
    for branch, _dil in _branches(cfg):
        for i, (ci, co) in enumerate(zip(dec_in, dec_out)):
            shapes.append((f"{branch}.{i}.mix.w", (2 * ci, ci, 1), ci))
            shapes.append((f"{branch}.{i}.mix.b", (2 * ci,), 0))
            shapes.append((f"{branch}.{i}.tconv.w", (ci, co, KERNEL), ci * KERNEL))
            shapes.append((f"{branch}.{i}.tconv.b", (co,), 0))
    if cfg.variant == "hd_demucs":
        f = FUSION_CH
        for j, (ci, co) in enumerate(((2, f), (f, f), (f, 1))):
            shapes.append((f"fusion.{j}.w", (co, ci, 3), ci * 3))
            shapes.append((f"fusion.{j}.b", (co,), 0))
    return shapes


def count_params(cfg: ModelConfig, prefix: str = "") -> int:
    total = 0
    for name, shape, _ in param_shapes(cfg):
        if name.startswith(prefix):
            total += int(np.prod(shape))
    return total


def init_params(cfg: ModelConfig, seed: int, dtype=np.float32) -> dict:
    """Uniform +-1/sqrt(fan_in) weights, zero biases; deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    params = {}
    for name, shape, fan_in in param_shapes(cfg):
        if fan_in == 0:
            arr = np.zeros(shape, dtype=dtype)
        else:
            arr = uniform_init(rng, shape, fan_in, dtype)
        params[name] = Tensor(arr, requires_grad=True, dtype=dtype)
    return params


def _conv(params, name, stride=1, padding=0, dilation=1) -> Conv1dParams:
    return Conv1dParams(params[f"{name}.w"], params[f"{name}.b"],
                        stride, padding, dilation)


def encode(h: Tensor, params: dict, cfg: ModelConfig, carry: tuple | None = None):
    """Encoder stack plus residual LSTM bottleneck.

    Input is [..., 1, L_up] with L_up a multiple of stride**depth; returns
    the bottleneck [..., C, T] and the per-block skip outputs.

    ``carry`` (no tape only) is ``(state, start, commit, stop)`` for one
    window of a longer input: the LSTM steps from the carried ``state`` over
    bottleneck frames [start, commit), which advances it, then on from a copy
    over [commit, stop); frames outside [start, stop) get no LSTM output.
    """
    if h.shape[-1] % (STRIDE ** cfg.depth):
        raise InvalidLength(
            f"encoder input length {h.shape[-1]} not a multiple of {STRIDE ** cfg.depth}")
    skips = []
    for i in range(cfg.depth):
        h = conv1d(h, _conv(params, f"enc.{i}.conv", STRIDE, ENC_PADDING))
        h = T.relu(h)
        h = conv1d(h, _conv(params, f"enc.{i}.mix"))
        h = glu(h)
        skips.append(h)
    lstm = LstmParams([(params[f"lstm.{l}.w_ih"], params[f"lstm.{l}.w_hh"],
                        params[f"lstm.{l}.b"]) for l in range(LSTM_LAYERS)])
    seq = T.transpose(h)
    if carry is None:
        return T.transpose(lstm_forward(seq, lstm)) + h, skips
    state, start, commit, stop = carry
    parts = []
    if commit > start:
        parts.append(lstm_forward(T.narrow(seq, -2, start, commit - start), lstm, state))
    if stop > commit:
        parts.append(lstm_forward(T.narrow(seq, -2, commit, stop - commit), lstm, list(state)))
    out = T.pad_axis(T.concat(parts, axis=-2), -2, start, seq.shape[-2] - stop)
    return T.transpose(out) + h, skips


def suppression_decode(bottleneck: Tensor, skips: list, params: dict, cfg: ModelConfig,
                       branch: str = "ds"):
    """Mask-emitting decoder; also returns each block's post-skip-sum input,
    which is the signal handed to the refinement decoder.

    Pops ``skips`` from the end as it reads them, so outside a recording tape
    each skip is freed once its block has used it.
    """
    h = bottleneck
    pre_inputs = []
    for i in range(cfg.depth):
        h = h + skips.pop()
        pre_inputs.append(h)
        h = glu(conv1d(h, _conv(params, f"{branch}.{i}.mix")))
        h = conv_transpose1d(h, _conv(params, f"{branch}.{i}.tconv", STRIDE, tconv_padding(1)))
        h = T.relu(h) if i < cfg.depth - 1 else T.sigmoid(h)
    return h, pre_inputs


def refinement_decode(feeds: list, params: dict, cfg: ModelConfig,
                      branch: str = "dr", dilations=None) -> Tensor:
    """Waveform-synthesizing decoder (linear output). ``feeds[i]`` is added
    to the running signal before block i; feeds[0] already carries the
    bottleneck. Pops ``feeds`` from the front as it reads them, so outside a
    recording tape each feed is freed once its block has used it."""
    dilations = REFINEMENT_DILATIONS if dilations is None else dilations
    h = None
    for i in range(cfg.depth):
        h = feeds.pop(0) if h is None else h + feeds.pop(0)
        h = glu(conv1d(h, _conv(params, f"{branch}.{i}.mix")))
        d = dilations[i]
        h = conv_transpose1d(h, _conv(params, f"{branch}.{i}.tconv", STRIDE, tconv_padding(d),
                                      d))
        if i < cfg.depth - 1:
            h = T.relu(h)
    return h


def _zero_outside(a: np.ndarray, start: int, n: int) -> np.ndarray:
    """Zeroes the columns of ``a``, which holds a signal's columns from
    ``start`` on, that lie outside [0, n): the convs' zero padding."""
    a[..., :max(-start, 0)] = 0
    a[..., n - start:] = 0
    return a


def fuse(refined: Tensor, masked: Tensor, params: dict, cfg: ModelConfig):
    """Per-sample weight w in (0,1) and the convex combination of branches.

    ``w`` is the fusion stack over ``refined`` and ``masked`` stacked as two
    channels: three kernel-3 convs zero-padded by one sample, a leaky ReLU
    (slope 0.01, ``T.leaky_relu``'s max(x, 0.01x)) after the first two and
    a sigmoid after the last. It is one tape node that walks the signal in
    column blocks of ``_FUSION_BLOCK`` samples, each reading 3 samples of
    halo either side, so its FUSION_CH-channel activations exist one block
    at a time; a recording tape keeps each block's input and two leaky
    outputs for the backward, which walks the same blocks.
    """
    convs = [(params[f"fusion.{j}.w"], params[f"fusion.{j}.b"]) for j in range(3)]
    n, lead = refined.shape[-1], refined.shape[:-2]
    dtype = np.result_type(refined.data, masked.data, convs[0][0].data)
    slope = dtype.type(0.01)
    out = np.empty(lead + (1, n), dtype)
    kept = [] if T.grad_enabled() else None
    for s in range(0, n, _FUSION_BLOCK):
        e = min(s + _FUSION_BLOCK, n)
        lo, hi = max(s - 3, 0), min(e + 3, n)
        h = np.zeros(lead + (2, e - s + 6), dtype)  # columns [s - 3, e + 3)
        h[..., :1, lo - s + 3:hi - s + 3] = refined.data[..., lo:hi]
        h[..., 1:, lo - s + 3:hi - s + 3] = masked.data[..., lo:hi]
        acts = [h]
        for j, (cw, cb) in enumerate(convs):
            a = _gather(acts[-1], cw.data, 1, 1, acts[-1].shape[-1] - 2)
            a += cb.data[:, None]
            if j == 2:
                out[..., s:e] = T.stable_sigmoid(a)
            else:  # columns [s - 2 + j, e + 2 - j)
                acts.append(_zero_outside(np.maximum(a, a * slope, out=a), s - 2 + j, n))
        if kept is not None:
            kept.append((s, e, lo, hi, acts))

    def backward(g):
        gin = np.zeros(lead + (2, n), g.dtype)
        gws = [np.zeros_like(cw.data) for cw, _ in convs]
        gbs = [np.zeros_like(cb.data) for _, cb in convs]
        for s, e, lo, hi, acts in kept:
            ga = g[..., s:e] * out[..., s:e] * (1.0 - out[..., s:e])
            for j in (2, 1, 0):
                x = acts[j]
                gws[j] += _weight_grad(ga, x, 3, 1, 1)
                gbs[j] += _unbroadcast(ga.sum(axis=-1), gbs[j].shape)
                ga = _scatter(ga, convs[j][0].data, 1, 1, x.shape[-1])
                if j:  # through the leaky ReLU, whose output is > 0 where its input is
                    _zero_outside(np.multiply(ga, np.maximum(x > 0, slope), out=ga), s - 3 + j, n)
            gin[..., lo:hi] += ga[..., lo - s + 3:hi - s + 3]
        refined._accum(gin[..., :1, :])
        masked._accum(gin[..., 1:, :])
        for (cw, cb), gw, gb in zip(convs, gws, gbs):
            cw._accum(gw)
            cb._accum(gb)

    w = Tensor._make(out, (refined, masked) + sum(convs, ()), backward, "fuse")
    x_hat_up = w * refined + (1.0 - w) * masked
    return w, x_hat_up


def frame_width(cfg: ModelConfig) -> int:
    """Values per bottleneck frame that size a no-grad window: the largest
    channels x upsampled samples per frame, over each encoder and decoder
    block's 2*ch-channel mix output and, for hd_demucs, FUSION_CH channels
    at the 4x rate. ``fuse`` holds its FUSION_CH channels one column block
    at a time, not a window long, but the term stays so that small models'
    windows (3840 frames at hidden_ch 4, depth 3) keep their length and
    their output bits."""
    f = STRIDE ** cfg.depth
    widths = [2 * c * f // STRIDE ** (i + 1) for i, c in enumerate(cfg.channels)]
    if cfg.variant == "hd_demucs":
        widths.append(FUSION_CH * f)
    return max(widths)


def halo_frames(cfg: ModelConfig) -> tuple:
    """(enc, dec), in bottleneck frames of stride**depth upsampled samples.

    ``enc``: frames at either end of an input slice whose bottleneck value
    the encoder's zero padding changes. Bottleneck frame j reads samples
    f*j - p*g through f*j + (kernel-1-p)*g, g = 1 + stride + ... +
    stride**(depth-1), so ceil(p*g/f) frames at the start and
    floor((kernel-1-p)*g/f) at the end reach past the slice.
    ``dec``: bottleneck frames beyond either end of a window that the
    decoders and the fusion stack read for its output, found by walking
    the window's first and last sample back through the widest decoder.
    """
    s, k, p = STRIDE, KERNEL, ENC_PADDING
    f = s ** cfg.depth
    g = (f - 1) // (s - 1)
    enc = max(-(-p * g // f), (k - 1 - p) * g // f)
    reach = 3 if cfg.variant == "hd_demucs" else 0  # three kernel-3 fusion convs
    # samples read for a window starting at sample 0, and one ending before it
    first, last = -reach, reach - 1
    for i in reversed(range(cfg.depth)):
        d = max(dil[i] for _, dil in _branches(cfg))
        pad = tconv_padding(d)
        first = -((d * (k - 1) - pad - first) // s)
        last = (last + pad) // s
    return enc, max(-first, last + 1)


def _decode(h: Tensor, bottleneck: Tensor, skips: list, params: dict, cfg: ModelConfig,
            w_override) -> tuple:
    """Decoders and fusion over ``encode``'s output for the upsampled
    [..., 1, L_up] input ``h``; returns (x_hat_up, mask, refined, w), each
    [..., 1, L_up] or None."""
    mask2 = refined2 = w2 = enc_feeds = None
    v = cfg.variant
    if v in ("demucs_baseline", "refinement_only", "no_fusion_no_skip"):
        # the decoders pop what they read, so the encoder-fed decoder gets its own list
        enc_feeds = [bottleneck + skips[-1]] + skips[-2::-1]
        if v != "no_fusion_no_skip":
            skips.clear()  # no suppression decoder reads them
    if v == "demucs_baseline":
        out2 = refinement_decode(enc_feeds, params, cfg, "dec", (1,) * cfg.depth)
    elif v == "suppression_only":
        mask2, _ = suppression_decode(bottleneck, skips, params, cfg)
        out2 = h * mask2
    elif v == "refinement_only":
        refined2 = refinement_decode(enc_feeds, params, cfg)
        out2 = refined2
    else:
        mask2, pre_inputs = suppression_decode(bottleneck, skips, params, cfg)
        masked2 = h * mask2
        feeds = enc_feeds if v == "no_fusion_no_skip" else pre_inputs
        del pre_inputs  # feeds alone holds them, and the decoder pops what it reads
        refined2 = refinement_decode(feeds, params, cfg)
        if v == "hd_demucs" and w_override is None:
            w2, out2 = fuse(refined2, masked2, params, cfg)
        else:
            wc = 0.5 if w_override is None else float(w_override)
            out2 = wc * refined2 + (1.0 - wc) * masked2
    return out2, mask2, refined2, w2


def _encoded_windows(x: Tensor, scale: np.ndarray, params: dict, cfg: ModelConfig,
                     total: int, window: int):
    """The first stage of ``_windowed_forward``: for each window [a, b) of
    ``window`` bottleneck frames, in order, normalises and upsamples its
    slice of the raw input ``x``, widened by the frame halo and the
    resampler's, and runs the encoder and the carried-state LSTM on it;
    yields (a, b, lo, h, bottleneck, skips), with ``h`` the upsampled slice
    from frame ``lo`` on."""
    f, r, halo = STRIDE ** cfg.depth, RESAMPLE_FACTOR, RESAMPLE_HALO
    n, lead = x.shape[-1], x.shape[:-1]
    enc, dec = halo_frames(cfg)
    state = []
    for a in range(0, total, window):
        b = min(a + window, total)
        # The decoders read the bottleneck on [a - dec, b + dec), so the LSTM
        # runs there, but its carried state advances only to b - dec, where
        # the next window's run starts; the last window runs it in one piece.
        # The slice reaches enc frames further, so the encoder's zero padding
        # at its ends never reaches that span.
        lo, hi = max(a - enc - dec, 0), min(b + enc + dec, total)
        stop = min(b + dec, total) - lo
        carry = (state, max(a - dec, 0) - lo, stop if b == total else max(b - dec, 0) - lo, stop)
        # input samples [m0, m1), zero outside [0, n): their upsampling is exact
        # on frames [lo, hi), which lie halo samples inside either end
        m0, m1 = lo * f // r - halo, -(-hi * f // r) + halo
        seg = np.zeros(lead + (m1 - m0,), x.dtype)
        seg[..., max(m0, 0) - m0:min(m1, n) - m0] = x.data[..., max(m0, 0):min(m1, n)] / scale
        up = upsample_4x(seg).data[..., lo * f - r * m0:hi * f - r * m0]
        h = Tensor(np.ascontiguousarray(up.reshape(lead + (1, -1))))
        yield (a, b, lo, h) + encode(h, params, cfg, carry)


@contextmanager
def _pulled_ahead(items):
    """``items`` pulled one item ahead of the caller by a one-worker
    executor: it makes item k+1 while the caller works on item k, and
    starts item k+2 only once the caller has taken k+1, so at most two items
    are alive. An exception from ``items`` is raised in the caller; once the
    caller leaves the block, even by an exception, the item in flight is
    finished, the worker joined and ``items`` closed."""

    def pull(pool):
        ahead = pool.submit(next, items, None)
        while (item := ahead.result()) is not None:
            ahead = pool.submit(next, items, None)
            yield item

    try:
        with ThreadPoolExecutor(1, "hdrs-encode") as pool:
            yield pull(pool)
    finally:
        items.close()


def _windowed_forward(x: Tensor, sigma: Tensor, params: dict, cfg: ModelConfig, w_override,
                      on_window) -> Tensor:
    """``forward`` run window by window from the raw input ``x``, with the
    LSTM state carried across, in two stages: ``_encoded_windows`` and then
    the decoders and fusion, which decimate each window's core into
    ``x_hat``, carrying over the upsampled samples the decimator reads past
    the window's end, and hand that core to ``on_window``. An input of more
    than one window at an LSTM width of at least ``_PIPELINE_WIDTH`` runs
    the first stage one window ahead on a helper thread, in windows of half
    the budget."""
    f, r, halo = STRIDE ** cfg.depth, RESAMPLE_FACTOR, RESAMPLE_HALO
    n, lead = x.shape[-1], x.shape[:-1]
    total = r * -(-n // f)  # bottleneck frames in the padded, upsampled input
    window = max(1, _WINDOW_BYTES // (4 * frame_width(cfg)))  # in bottleneck frames
    ahead = total > window and cfg.channels[-1] >= _PIPELINE_WIDTH
    if ahead:  # two windows in flight share the budget
        window = max(1, window // 2)
    windows = _encoded_windows(x, (sigma + STD_FLOOR).data, params, cfg, total, window)
    x_hat = np.empty(x.shape, x.dtype)
    # tail: upsampled output from sample r * (done - halo) on, not yet decimated
    done, tail = 0, np.zeros(lead + (r * halo,), x.dtype)
    with _pulled_ahead(windows) if ahead else nullcontext(windows) as windows:
        for a, b, lo, h, bottleneck, skips in windows:
            outs = [o if o is None else o.data[..., 0, (a - lo) * f:(b - lo) * f]
                    for o in (h,) + _decode(h, bottleneck, skips, params, cfg, w_override)]
            last = [np.zeros(lead + (r * halo,), x.dtype)] if b == total else []
            tail = np.concatenate([tail, outs[1]] + last, axis=-1)
            new = tail.shape[-1] // r - 2 * halo
            out = x_hat[..., done:done + new]  # empty once done passes n
            out[...] = downsample_4x(tail[..., :r * (new + 2 * halo)]).data[
                ..., halo:halo + out.shape[-1]] * sigma.data
            done, tail = done + new, tail[..., r * new:]
            if on_window is not None:
                on_window(a * f, outs)
    return Tensor(x_hat)


def forward(y, params: dict, cfg: ModelConfig, w_override: float | None = None,
            on_window=None) -> Tensor:
    """Full restoration pass over a waveform [N] or a batch [B, N] of equal
    length, given as an array or a Tensor; returns ``x_hat``, whose length
    always equals the input length.

    Every item is normalized by its own standard deviation. ``w_override``
    pins the fusion weight to a constant (the warm training phase runs the
    full model with w=0.5 and the fusion stack detached).

    Under ``no_grad()`` the input runs in consecutive windows of whole
    bottleneck frames (``_WINDOW_BYTES`` of its widest activation,
    ``frame_width``), one window for a short input, so its memory does not
    grow with its length beyond the input and ``x_hat``. Each window
    normalises and upsamples its own slice of the input, which reaches
    ``sum(halo_frames)`` frames and the resampler's ``RESAMPLE_HALO``
    samples past its ends; the LSTM carries its state from one window to
    the next, and the decimator the upsampled samples it reads across the
    boundary. A recording forward runs in one pass.

    An input of more than one window, at a bottleneck LSTM width of at
    least ``_PIPELINE_WIDTH``, is pipelined: a helper thread runs window
    k+1's upsampling, encoder and LSTM while the calling thread runs window
    k's decoders, fusion and decimation, so two windows are in flight and
    each is half the budget. Its bits equal those of the same windows run
    on one thread. An exception on the helper is raised in the caller, and
    the helper is joined before ``forward`` returns or raises.

    ``on_window(start, [y_up, x_hat_up, mask, refined, w])``, if given, is
    called once per window, in order and on the calling thread, with the
    window's first upsampled sample and numpy views of its slice of each
    4x-rate signal, [..., len], over the padded input; an entry is None
    where the variant has no such signal. A recording forward calls it
    once, with start 0 and the whole arrays.
    """
    if isinstance(y, Tensor):
        x = y
    else:
        dtype = next(iter(params.values())).dtype
        x = Tensor(np.asarray(y), dtype=dtype)
    n = x.shape[-1]
    if n == 0:
        raise EmptyInput("empty waveform")

    sigma = T.std(x, -1, keepdims=True)
    if not T.grad_enabled():
        return _windowed_forward(x, sigma, params, cfg, w_override, on_window)

    xn = x / (sigma + STD_FLOOR)
    pad = (-n) % (STRIDE ** cfg.depth)
    if pad:
        xn = T.pad_axis(xn, -1, 0, pad)
    y_up = upsample_4x(xn)
    # one input channel: [..., L_up] -> [..., 1, L_up]
    h = T.reshape(y_up, y_up.shape[:-1] + (1, y_up.shape[-1]))
    outs = _decode(h, *encode(h, params, cfg), params, cfg, w_override)
    if on_window is not None:
        on_window(0, [o if o is None else o.data[..., 0, :] for o in (h,) + outs])
    return T.narrow(downsample_4x(T.reshape(outs[0], y_up.shape)), -1, 0, n) * sigma
