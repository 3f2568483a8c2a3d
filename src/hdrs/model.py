"""Dual-decoder waveform restoration network and its ablation variants.

Topology: a 5-block strided-conv encoder over the 4x-upsampled normalized
input, a residual LSTM bottleneck, a suppression decoder that emits a [0,1]
time-domain mask, a refinement decoder with dilated transposed convolutions
that synthesizes a waveform directly, and a small convolutional fusion stack
producing a per-sample weight w in (0,1) that convexly combines the two
branches. ``demucs_baseline`` is the single-decoder ancestor network; the
remaining variants realize the ablation topologies (fixed 0.5 fusion,
refinement fed from encoder skips, single-decoder cuts).

Length bookkeeping: the input is right-padded to a multiple of
stride**depth before upsampling, encoder convolutions use symmetric padding
(kernel - stride) / 2 so each block divides the length by exactly
``stride``, and every transposed conv uses padding
(dilation * (kernel-1) - (stride-1)) / 2 so each decoder block multiplies
it by exactly ``stride``. Output is trimmed back to the input length.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .audio import AudioBuffer
from .dsp import downsample_4x, upsample_4x
from .layers import Conv1dParams, LstmParams, conv1d, conv_transpose1d, glu, \
    lstm_forward, uniform_init
from .tensor import Tensor

VARIANTS = ("hd_demucs", "demucs_baseline", "no_fusion", "no_fusion_no_skip",
            "suppression_only", "refinement_only")

STD_FLOOR = 1e-5

# A no-grad forward runs an input longer than one window in windows, each
# spanning this many bytes of the forward's widest float32 activation
# (``frame_width``): 160 frames, 2.56 s, at hidden_ch 48 and depth 5, and
# 3840 frames, 3.84 s, at hidden_ch 4 and depth 3. This bounds the forward's
# working set independently of the input length.
_WINDOW_BYTES = 15 << 20


class InvalidLength(ValueError):
    pass


class EmptyInput(ValueError):
    pass


class SampleRateMismatch(ValueError):
    pass


@dataclass
class ModelConfig:
    hidden_ch: int = 48
    depth: int = 5
    kernel: int = 8
    stride: int = 4
    resample_factor: int = 4
    lstm_layers: int = 2
    refinement_dilations: tuple = ()
    fusion_ch: int = 16
    variant: str = "hd_demucs"
    sample_rate: int = 16000

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; expected one of {VARIANTS}")
        if self.resample_factor != 4:
            raise ValueError("only resample_factor=4 is supported")
        if not self.refinement_dilations:
            if self.depth > 5:
                raise ValueError("provide refinement_dilations explicitly for depth > 5")
            self.refinement_dilations = (1, 3, 5, 7, 9)[:self.depth]
        self.refinement_dilations = tuple(int(d) for d in self.refinement_dilations)
        if len(self.refinement_dilations) != self.depth:
            raise ValueError("need one refinement dilation per decoder block")
        if (self.kernel - self.stride) % 2:
            raise ValueError("kernel - stride must be even for symmetric encoder padding")
        for d in (1,) + self.refinement_dilations:
            if (d * (self.kernel - 1) - (self.stride - 1)) % 2:
                raise ValueError(f"dilation {d} breaks the transposed-conv padding rule")

    @property
    def channels(self) -> list:
        return [self.hidden_ch * (1 << i) for i in range(self.depth)]

    @property
    def enc_padding(self) -> int:
        return (self.kernel - self.stride) // 2

    def tconv_padding(self, dilation: int) -> int:
        return (dilation * (self.kernel - 1) - (self.stride - 1)) // 2

    def to_text_dict(self) -> dict:
        return {
            "model.hidden_ch": str(self.hidden_ch),
            "model.depth": str(self.depth),
            "model.kernel": str(self.kernel),
            "model.stride": str(self.stride),
            "model.resample_factor": str(self.resample_factor),
            "model.lstm_layers": str(self.lstm_layers),
            "model.refinement_dilations": ",".join(map(str, self.refinement_dilations)),
            "model.fusion_ch": str(self.fusion_ch),
            "model.variant": self.variant,
            "model.sample_rate": str(self.sample_rate),
        }

    @staticmethod
    def from_text_dict(d: dict) -> "ModelConfig":
        return ModelConfig(
            hidden_ch=int(d["model.hidden_ch"]),
            depth=int(d["model.depth"]),
            kernel=int(d["model.kernel"]),
            stride=int(d["model.stride"]),
            resample_factor=int(d["model.resample_factor"]),
            lstm_layers=int(d["model.lstm_layers"]),
            refinement_dilations=tuple(
                int(v) for v in d["model.refinement_dilations"].split(",")),
            fusion_ch=int(d["model.fusion_ch"]),
            variant=d["model.variant"],
            sample_rate=int(d["model.sample_rate"]),
        )


@dataclass
class ForwardTrace:
    y_up: Tensor
    x_hat_up: Tensor
    x_hat: Tensor
    mask: Tensor | None = None
    refined: Tensor | None = None
    w: Tensor | None = None


def _branches(cfg: ModelConfig) -> list:
    v = cfg.variant
    out = []
    if v == "demucs_baseline":
        out.append(("dec", (1,) * cfg.depth))
    if v in ("hd_demucs", "no_fusion", "no_fusion_no_skip", "suppression_only"):
        out.append(("ds", (1,) * cfg.depth))
    if v in ("hd_demucs", "no_fusion", "no_fusion_no_skip", "refinement_only"):
        out.append(("dr", cfg.refinement_dilations))
    return out


def param_shapes(cfg: ModelConfig) -> list:
    """Every learnable array as (name, shape, fan_in); single source of truth
    for initialization, counting, and checkpoint layout."""
    ch = cfg.channels
    k = cfg.kernel
    shapes = []
    c_prev = 1
    for i, c in enumerate(ch):
        shapes.append((f"enc.{i}.conv.w", (c, c_prev, k), c_prev * k))
        shapes.append((f"enc.{i}.conv.b", (c,), 0))
        shapes.append((f"enc.{i}.mix.w", (2 * c, c, 1), c))
        shapes.append((f"enc.{i}.mix.b", (2 * c,), 0))
        c_prev = c
    hid = ch[-1]
    for layer in range(cfg.lstm_layers):
        shapes.append((f"lstm.{layer}.w_ih", (4 * hid, hid), hid))
        shapes.append((f"lstm.{layer}.w_hh", (4 * hid, hid), hid))
        shapes.append((f"lstm.{layer}.b", (4 * hid,), 0))
    dec_in = ch[::-1]
    dec_out = ch[::-1][1:] + [1]
    for branch, _dil in _branches(cfg):
        for i, (ci, co) in enumerate(zip(dec_in, dec_out)):
            shapes.append((f"{branch}.{i}.mix.w", (2 * ci, ci, 1), ci))
            shapes.append((f"{branch}.{i}.mix.b", (2 * ci,), 0))
            shapes.append((f"{branch}.{i}.tconv.w", (ci, co, k), ci * k))
            shapes.append((f"{branch}.{i}.tconv.b", (co,), 0))
    if cfg.variant == "hd_demucs":
        f = cfg.fusion_ch
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
    if h.shape[-1] % (cfg.stride ** cfg.depth):
        raise InvalidLength(
            f"encoder input length {h.shape[-1]} not a multiple of {cfg.stride ** cfg.depth}")
    skips = []
    for i in range(cfg.depth):
        h = conv1d(h, _conv(params, f"enc.{i}.conv", cfg.stride, cfg.enc_padding))
        h = T.relu(h)
        h = conv1d(h, _conv(params, f"enc.{i}.mix"))
        h = glu(h)
        skips.append(h)
    lstm = LstmParams([(params[f"lstm.{l}.w_ih"], params[f"lstm.{l}.w_hh"],
                        params[f"lstm.{l}.b"]) for l in range(cfg.lstm_layers)])
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
        h = conv_transpose1d(h, _conv(params, f"{branch}.{i}.tconv", cfg.stride,
                                      cfg.tconv_padding(1)))
        h = T.relu(h) if i < cfg.depth - 1 else T.sigmoid(h)
    return h, pre_inputs


def refinement_decode(feeds: list, params: dict, cfg: ModelConfig,
                      branch: str = "dr", dilations=None) -> Tensor:
    """Waveform-synthesizing decoder (linear output). ``feeds[i]`` is added
    to the running signal before block i; feeds[0] already carries the
    bottleneck. Pops ``feeds`` from the front as it reads them, so outside a
    recording tape each feed is freed once its block has used it."""
    dilations = cfg.refinement_dilations if dilations is None else dilations
    h = None
    for i in range(cfg.depth):
        h = feeds.pop(0) if h is None else h + feeds.pop(0)
        h = glu(conv1d(h, _conv(params, f"{branch}.{i}.mix")))
        d = dilations[i]
        h = conv_transpose1d(h, _conv(params, f"{branch}.{i}.tconv", cfg.stride,
                                      cfg.tconv_padding(d), d))
        if i < cfg.depth - 1:
            h = T.relu(h)
    return h


def fuse(refined: Tensor, masked: Tensor, params: dict, cfg: ModelConfig):
    """Per-sample weight w in (0,1) and the convex combination of branches."""
    h = T.concat([refined, masked], axis=-2)
    h = T.leaky_relu(conv1d(h, _conv(params, "fusion.0", padding=1)), 0.01)
    h = T.leaky_relu(conv1d(h, _conv(params, "fusion.1", padding=1)), 0.01)
    w = T.sigmoid(conv1d(h, _conv(params, "fusion.2", padding=1)))
    x_hat_up = w * refined + (1.0 - w) * masked
    return w, x_hat_up


def frame_width(cfg: ModelConfig) -> int:
    """Values per bottleneck frame of the forward's widest activation: the
    largest channels x upsampled samples per frame, over each encoder and
    decoder block's 2*ch-channel mix output and the fusion stack."""
    f = cfg.stride ** cfg.depth
    widths = [2 * c * f // cfg.stride ** (i + 1) for i, c in enumerate(cfg.channels)]
    if cfg.variant == "hd_demucs":
        widths.append(cfg.fusion_ch * f)
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
    s, k, p = cfg.stride, cfg.kernel, cfg.enc_padding
    f = s ** cfg.depth
    g = (f - 1) // (s - 1)
    enc = max(-(-p * g // f), (k - 1 - p) * g // f)
    reach = 3 if cfg.variant == "hd_demucs" else 0  # three kernel-3 fusion convs
    # samples read for a window starting at sample 0, and one ending before it
    first, last = -reach, reach - 1
    for i in reversed(range(cfg.depth)):
        d = max(dil[i] for _, dil in _branches(cfg))
        pad = cfg.tconv_padding(d)
        first = -((d * (k - 1) - pad - first) // s)
        last = (last + pad) // s
    return enc, max(-first, last + 1)


def _core(h: Tensor, params: dict, cfg: ModelConfig, w_override, carry=None) -> tuple:
    """Encoder, LSTM, decoders and fusion over an upsampled [..., 1, L_up]
    input; returns (x_hat_up, mask, refined, w), each [..., 1, L_up] or None."""
    bottleneck, skips = encode(h, params, cfg, carry)
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


def _windowed_core(h: Tensor, params: dict, cfg: ModelConfig, w_override, window: int) -> tuple:
    """``_core`` run window by window with the LSTM state carried across,
    each window's slice widened by a halo; returns the cores stitched."""
    f = cfg.stride ** cfg.depth
    total = h.shape[-1] // f
    enc, dec = halo_frames(cfg)
    state, stitched = [], None
    for a in range(0, total, window):
        b = min(a + window, total)
        # The decoders read the bottleneck on [a - dec, b + dec), so the LSTM
        # runs there, but its carried state advances only to b - dec, where
        # the next window's run starts. The slice reaches enc frames further,
        # so the encoder's zero padding at its ends never reaches that span.
        lo, hi = max(a - enc - dec, 0), min(b + enc + dec, total)
        carry = (state, max(a - dec, 0) - lo, max(b - dec, 0) - lo, min(b + dec, total) - lo)
        outs = _core(T.narrow(h, -1, lo * f, (hi - lo) * f), params, cfg, w_override, carry)
        if stitched is None:
            stitched = [None if o is None else np.empty(h.shape, o.dtype) for o in outs]
        for full, o in zip(stitched, outs):
            if o is not None:
                full[..., a * f:b * f] = o.data[..., (a - lo) * f:(b - lo) * f]
    return tuple(None if full is None else Tensor(full) for full in stitched)


def forward(y, params: dict, cfg: ModelConfig, w_override: float | None = None) -> ForwardTrace:
    """Full restoration pass over a waveform [N] or a batch [B, N] of equal
    length; output length always equals input length.

    Every item is normalized by its own standard deviation. ``w_override``
    pins the fusion weight to a constant (the warm training phase runs the
    full model with w=0.5 and the fusion stack detached).

    Under ``no_grad()`` an input longer than one window (``_WINDOW_BYTES``
    of its widest activation, ``frame_width``) runs in consecutive windows
    of whole bottleneck frames. Each window's slice of the upsampled input
    reaches ``sum(halo_frames)`` frames past its ends, and the LSTM carries
    its state from one window to the next, so the output matches the
    one-pass output up to rounding. Resampling and normalisation stay
    whole-file. A recording forward runs in one pass.
    """
    if isinstance(y, AudioBuffer):
        if y.sample_rate != cfg.sample_rate:
            raise SampleRateMismatch(
                f"input at {y.sample_rate} Hz, model expects {cfg.sample_rate} Hz")
        y = y.samples
    if isinstance(y, Tensor):
        x = y
    else:
        dtype = next(iter(params.values())).dtype
        x = Tensor(np.asarray(y), dtype=dtype)
    n = x.shape[-1]
    if n == 0:
        raise EmptyInput("empty waveform")

    sigma = T.std(x, -1, keepdims=True)
    xn = x / (sigma + STD_FLOOR)
    mult = cfg.stride ** cfg.depth
    pad = (-n) % mult
    if pad:
        xn = T.pad_axis(xn, -1, 0, pad)
    y_up = upsample_4x(xn)
    # one input channel: [..., L_up] -> [..., 1, L_up]
    h = T.reshape(y_up, y_up.shape[:-1] + (1, y_up.shape[-1]))

    # in bottleneck frames, each of mult upsampled samples
    window = max(1, _WINDOW_BYTES // (4 * frame_width(cfg)))
    if T.grad_enabled() or h.shape[-1] <= window * mult:
        out2, mask2, refined2, w2 = _core(h, params, cfg, w_override)
    else:
        out2, mask2, refined2, w2 = _windowed_core(h, params, cfg, w_override, window)

    x_hat_up = T.reshape(out2, y_up.shape)
    x_hat = T.narrow(downsample_4x(x_hat_up), -1, 0, n) * sigma

    def squeeze(t2):
        return None if t2 is None else T.reshape(t2, y_up.shape)

    return ForwardTrace(y_up=y_up, x_hat_up=x_hat_up, x_hat=x_hat,
                        mask=squeeze(mask2), refined=squeeze(refined2), w=squeeze(w2))
